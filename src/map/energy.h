// First-order energy / area accounting for crossbar-mapped models — the
// resource-efficiency half of the paper's trade-off (sparser networks map to
// fewer crossbars, saving array energy and area, but lose accuracy to
// non-idealities).
//
// Analytic model (per inference MAC pass over every mapped tile):
//   * array read energy: E = Σ_cells (G⁺ + G⁻) · V_read² · t_read, padded
//     cells sitting at G_MIN on both differential arrays;
//   * peripheral energy: per-tile driver energy ∝ rows + sense ∝ cols;
//   * area: two X×X device arrays per logical tile plus row/col periphery.
#pragma once

#include "nn/sequential.h"
#include "prune/prune.h"
#include "xbar/config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xs::map {

struct EnergyConfig {
    double v_read = 0.25;               // volts
    double t_read_ns = 10.0;            // read pulse width
    double e_driver_pj_per_row = 2.0;   // DAC/driver energy per active row
    double e_sense_pj_per_col = 5.0;    // ADC/sense energy per column read
    double cell_area_um2 = 0.05;        // 1T-1R cell footprint
    double periph_area_um2_per_line = 40.0;  // driver/ADC slice per row/col
};

struct LayerEnergy {
    std::string layer;
    std::int64_t tiles = 0;
    double array_energy_pj = 0.0;
    double periph_energy_pj = 0.0;
    double area_um2 = 0.0;
};

struct EnergyReport {
    std::vector<LayerEnergy> layers;
    std::int64_t tiles = 0;
    double array_energy_pj = 0.0;
    double periph_energy_pj = 0.0;
    double area_um2 = 0.0;

    double total_energy_pj() const { return array_energy_pj + periph_energy_pj; }
};

// Estimate one full-model MAC pass under `method` mapping semantics: the
// evaluator's T-compaction, map::tile_for and xbar::default_w_ref. A WCT
// model's frozen w_ref is not applied, so its conductances read as those of
// an unconstrained model with the same weights.
EnergyReport estimate_energy(nn::Sequential& model, prune::Method method,
                             const xbar::CrossbarConfig& xbar,
                             const EnergyConfig& config);

}  // namespace xs::map
