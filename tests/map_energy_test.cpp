// The energy estimate is a query of core::MappingPlan. reference_energy is
// the model-walking estimator the plan's query replaced, kept verbatim as
// its pin: it re-extracts, re-compacts and re-tiles every layer, and maps
// without R.
#include "core/evaluator.h"
#include "map/compaction.h"
#include "map/energy.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "xbar/mapper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace xs::map {
namespace {

using tensor::Tensor;

EnergyReport reference_energy(nn::Sequential& model, prune::Method method,
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

// The energy of `model` mapped under `method` (and R when `rearrange`).
EnergyReport plan_energy(nn::Sequential& model, prune::Method method,
                         const xbar::CrossbarConfig& xc,
                         const EnergyConfig& config, bool rearrange = false) {
    core::EvalConfig mapping;
    mapping.xbar = xc;
    mapping.method = method;
    mapping.rearrange = rearrange;
    return core::MappingPlan(model, mapping).energy(config);
}

nn::Sequential tiny_model(std::uint64_t seed) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(seed);
    return nn::build_vgg(vc, rng);
}

// A width-0.125 VGG pruned at init to s = 0.8 under `method` (none: dense).
nn::Sequential pruned_vgg(const std::string& variant, prune::Method method) {
    nn::VggConfig vc;
    vc.variant = variant;
    vc.width = 0.125;
    util::Rng rng(31);
    nn::Sequential model = nn::build_vgg(vc, rng);
    if (method != prune::Method::kNone) {
        prune::PruneConfig pc;
        pc.method = method;
        pc.sparsity = 0.8;
        prune::prune_at_init(model, pc);
    }
    return model;
}

::testing::AssertionResult near_rel(double got, double want, const char* what) {
    if (std::fabs(got - want) <= 1e-12 * std::max(std::fabs(got), std::fabs(want)))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": " << got << " vs " << want << " (beyond 1e-12 relative)";
}

TEST(Energy, ReportTotalsMatchLayerSums) {
    nn::Sequential model = tiny_model(1);
    xbar::CrossbarConfig xc;
    xc.size = 32;
    const EnergyReport r =
        plan_energy(model, prune::Method::kNone, xc, EnergyConfig{});
    double array = 0.0, periph = 0.0, area = 0.0;
    std::int64_t tiles = 0;
    for (const auto& l : r.layers) {
        array += l.array_energy_pj;
        periph += l.periph_energy_pj;
        area += l.area_um2;
        tiles += l.tiles;
    }
    EXPECT_NEAR(r.array_energy_pj, array, 1e-9);
    EXPECT_NEAR(r.periph_energy_pj, periph, 1e-9);
    EXPECT_NEAR(r.area_um2, area, 1e-9);
    EXPECT_EQ(r.tiles, tiles);
    EXPECT_GT(r.total_energy_pj(), 0.0);
}

TEST(Energy, PrunedModelUsesLessEnergyAndArea) {
    nn::Sequential model = tiny_model(2);
    prune::PruneConfig pc;
    pc.method = prune::Method::kChannelFilter;
    pc.sparsity = 0.6;
    prune::prune_at_init(model, pc);

    xbar::CrossbarConfig xc;
    xc.size = 16;
    const EnergyReport dense =
        plan_energy(model, prune::Method::kNone, xc, EnergyConfig{});
    const EnergyReport compact =
        plan_energy(model, prune::Method::kChannelFilter, xc, EnergyConfig{});
    EXPECT_LT(compact.tiles, dense.tiles);
    EXPECT_LT(compact.total_energy_pj(), dense.total_energy_pj());
    EXPECT_LT(compact.area_um2, dense.area_um2);
}

TEST(Energy, AreaScalesWithTileCount) {
    nn::Sequential model = tiny_model(3);
    xbar::CrossbarConfig xc;
    xc.size = 32;
    const EnergyConfig config;
    const EnergyReport r =
        plan_energy(model, prune::Method::kNone, xc, config);
    const double per_tile =
        2.0 * 32 * 32 * config.cell_area_um2 +
        2.0 * 32 * config.periph_area_um2_per_line;
    EXPECT_NEAR(r.area_um2, per_tile * static_cast<double>(r.tiles), 1e-6);
}

TEST(Energy, LargerReadVoltageCostsQuadratically) {
    nn::Sequential model = tiny_model(4);
    xbar::CrossbarConfig xc;
    xc.size = 16;
    EnergyConfig low;
    low.v_read = 0.1;
    EnergyConfig high;
    high.v_read = 0.2;
    const double e_low =
        plan_energy(model, prune::Method::kNone, xc, low).array_energy_pj;
    const double e_high =
        plan_energy(model, prune::Method::kNone, xc, high).array_energy_pj;
    EXPECT_NEAR(e_high / e_low, 4.0, 1e-6);
}

TEST(Energy, XcsPackingReducesPeripheralEnergy) {
    nn::Sequential model = tiny_model(5);
    prune::PruneConfig pc;
    pc.method = prune::Method::kXbarColumn;
    pc.sparsity = 0.7;
    pc.segment_size = 16;
    prune::prune_at_init(model, pc);

    xbar::CrossbarConfig xc;
    xc.size = 16;
    const EnergyReport packed =
        plan_energy(model, prune::Method::kXbarColumn, xc, EnergyConfig{});
    const EnergyReport dense =
        plan_energy(model, prune::Method::kNone, xc, EnergyConfig{});
    EXPECT_LT(packed.tiles, dense.tiles);
    EXPECT_LT(packed.periph_energy_pj, dense.periph_energy_pj);
}

// Per layer and in total, the plan's estimate equals the model-walking one
// to 1e-12 relative (not bit for bit: the same sum compiled in another
// translation unit, or taken over R's permuted tiles, may round in the last
// place). R only permutes columns before a dense or XCS tiling, so every
// tile count and the multiset of summed cells stay the same. XRS is the
// exception: R breaks up its row segments (the next test).
TEST(Energy, PlanMatchesTheModelWalkingEstimate) {
    const EnergyConfig config;
    for (const std::string variant : {"vgg11", "vgg16"}) {
        for (const prune::Method method :
             {prune::Method::kNone, prune::Method::kChannelFilter,
              prune::Method::kXbarColumn, prune::Method::kXbarRow}) {
            nn::Sequential model = pruned_vgg(variant, method);
            for (const std::int64_t size : {16, 32, 64, 128}) {
                xbar::CrossbarConfig xc;
                xc.size = size;
                const EnergyReport want =
                    reference_energy(model, method, xc, config);
                for (const bool rearrange : {false, true}) {
                    if (rearrange && method == prune::Method::kXbarRow) continue;
                    SCOPED_TRACE(variant + " " + prune::method_name(method) +
                                 " " + std::to_string(size) +
                                 (rearrange ? " R" : ""));
                    const EnergyReport got =
                        plan_energy(model, method, xc, config, rearrange);
                    EXPECT_EQ(got.tiles, want.tiles);
                    EXPECT_TRUE(near_rel(got.array_energy_pj,
                                         want.array_energy_pj, "array"));
                    EXPECT_TRUE(near_rel(got.periph_energy_pj,
                                         want.periph_energy_pj, "periph"));
                    EXPECT_TRUE(near_rel(got.area_um2, want.area_um2, "area"));
                    ASSERT_EQ(got.layers.size(), want.layers.size());
                    for (std::size_t i = 0; i < want.layers.size(); ++i) {
                        const LayerEnergy& g = got.layers[i];
                        const LayerEnergy& w = want.layers[i];
                        SCOPED_TRACE(w.layer);
                        EXPECT_EQ(g.layer, w.layer);
                        EXPECT_EQ(g.tiles, w.tiles);
                        EXPECT_TRUE(near_rel(g.array_energy_pj,
                                             w.array_energy_pj, "array"));
                        EXPECT_TRUE(near_rel(g.periph_energy_pj,
                                             w.periph_energy_pj, "periph"));
                        EXPECT_TRUE(near_rel(g.area_um2, w.area_um2, "area"));
                    }
                }
            }
        }
    }
}

// XRS with R: the energy estimate counts the tiles the plan maps, the ones
// its crossbar count and NF measurement report. The model-walking estimate
// tiled the matrix without R, whose row segments pack into fewer tiles.
TEST(Energy, XrsWithRearrangementCountsTheTilesItMaps) {
    nn::Sequential model = pruned_vgg("vgg11", prune::Method::kXbarRow);
    for (const std::int64_t size : {16, 32}) {
        SCOPED_TRACE(size);
        core::EvalConfig config;
        config.xbar.size = size;
        config.xbar.device.sigma_variation = 0.0;
        config.method = prune::Method::kXbarRow;
        config.rearrange = true;
        const core::MappingPlan plan(model, config);
        const EnergyReport energy = plan.energy(EnergyConfig{});
        EXPECT_EQ(energy.tiles, plan.crossbars().total);
        EXPECT_EQ(energy.tiles, core::measure_nf(plan, config).total_tiles);
        EXPECT_GT(energy.tiles,
                  reference_energy(model, config.method, config.xbar,
                                   EnergyConfig{})
                      .tiles);
    }
}

}  // namespace
}  // namespace xs::map
