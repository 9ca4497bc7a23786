#include "map/energy.h"

#include "map/compaction.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "xbar/mapper.h"

#include <cmath>

namespace xs::map {

using tensor::Tensor;

EnergyReport estimate_energy(nn::Sequential& model, prune::Method method,
                             const xbar::CrossbarConfig& xbar,
                             const EnergyConfig& config) {
    EnergyReport report;
    const double g_min = xbar.device.g_min();
    const double joule_scale = config.v_read * config.v_read *
                               config.t_read_ns * 1e-9 * 1e12;  // -> pJ

    for (nn::Layer* layer : mappable_layers(model)) {
        Tensor matrix = extract_matrix(*layer);
        if (method == prune::Method::kChannelFilter)
            matrix = compact_dense(matrix).matrix;

        const xbar::ConductanceMapper mapper(xbar.device,
                                             xbar::default_w_ref(matrix));
        const Tiling tiling = tile_for(method, matrix, xbar.size);

        LayerEnergy le;
        le.layer = layer->name();
        le.tiles = tiling.count();
        for (const Tile& tile : tiling.tiles) {
            // Mapped cells: G⁺ + G⁻ = 2·G_MIN + slope·|w|.
            double g_sum = 0.0;
            for (const auto r : tile.rows)
                for (const auto c : tile.cols)
                    g_sum += 2.0 * g_min +
                             mapper.slope() * std::fabs(matrix.at(r, c));
            // Padded cells idle at G_MIN on both arrays.
            const std::int64_t padded =
                xbar.size * xbar.size -
                static_cast<std::int64_t>(tile.rows.size() * tile.cols.size());
            g_sum += 2.0 * g_min * static_cast<double>(padded);

            le.array_energy_pj += g_sum * joule_scale;
            le.periph_energy_pj +=
                config.e_driver_pj_per_row * static_cast<double>(xbar.size) +
                config.e_sense_pj_per_col * static_cast<double>(xbar.size);
            le.area_um2 +=
                2.0 * static_cast<double>(xbar.size * xbar.size) *
                    config.cell_area_um2 +
                2.0 * static_cast<double>(xbar.size) * config.periph_area_um2_per_line;
        }
        report.tiles += le.tiles;
        report.array_energy_pj += le.array_energy_pj;
        report.periph_energy_pj += le.periph_energy_pj;
        report.area_um2 += le.area_um2;
        report.layers.push_back(std::move(le));
    }
    return report;
}

}  // namespace xs::map
