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
//
// These are the model's parameters and report. core::MappingPlan::energy
// fills the report from the plan's own tiles, so the estimate counts the
// mapping the evaluator degrades (T-compaction, R, the method's tiling).
#pragma once

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

}  // namespace xs::map
