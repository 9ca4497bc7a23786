// Non-ideality injection for one crossbar tile: Gaussian device variation
// plus the RxNN-style linearized parasitic model, and the non-ideality
// factor (NF) metric of paper §II-A.
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"
#include "xbar/config.h"
#include "xbar/solver.h"

namespace xs::xbar {

// G ← G·(1+ε), ε ~ N(0, sigma_variation), clamped to [G_MIN/2, 2·G_MAX]
// so extreme draws stay physical. No-op when sigma_variation == 0.
void apply_variation(tensor::Tensor& g, const DeviceConfig& device,
                     util::Rng& rng);

struct TileDegradeResult {
    tensor::Tensor g_eff;   // non-ideal conductances G′ (X×X)
    double nf = 0.0;        // average NF over columns at the calibration input
    bool converged = true;  // circuit solve reached tolerance
    int sweeps = 0;         // relaxation sweeps the solve used
};

// Reusable scratch for degrade_tile_batched: the one-tile solver workspace
// plus the calibration input vector and the ideal-current buffer.
// One instance per worker thread; reusing it across tiles keeps the steady
// state free of heap allocations (DESIGN.md §4). The fast and ideal backends
// use the two vectors as their own per-column scratch.
struct DegradeWorkspace {
    BatchedSolveWorkspace solve;
    std::vector<double> v_in;
    std::vector<double> ideal;
};

// Fast-model calibration (DESIGN.md §2): solve the parasitic network once at
// all-rows = v_nom, then fold each device's voltage-division ratio into an
// equivalent conductance  G′_ij = G_ij · (V_row(i,j) − V_col(i,j)) / v_nom.
// The resulting G′ reproduces the non-ideal column currents exactly at the
// calibration input and captures the tile-composition coupling (tiles dense
// in high conductances sag more). One tile of degrade_tile_batched.
TileDegradeResult degrade_tile(const tensor::Tensor& g,
                               const CrossbarConfig& config);

// Degrade `lanes` same-size tiles, one solve each: every tile runs through
// the blocked kernel alone, and G′ is folded straight from the workspace's
// blocked voltage fields. Every solve starts cold, so lane r's g_eff / nf /
// converged / sweeps depend only on g[r], never on the lane count or on
// what the workspace solved before. out[r]'s g_eff storage is reused when already tile-shaped,
// so steady state allocates nothing.
void degrade_tile_batched(const tensor::Tensor* const* g, int lanes,
                          const CircuitSolver& solver, DegradeWorkspace& ws,
                          TileDegradeResult* const* out);

// NF = (I_ideal − I_nonideal) / I_ideal at the all-v_nom input, averaged over
// columns with nonzero ideal current.
double non_ideality_factor(const tensor::Tensor& g, const CrossbarConfig& config);

}  // namespace xs::xbar
