// The hardware evaluation framework of the paper's Fig. 2: unroll every
// conv/linear layer to a MAC matrix, apply the pruning-scheme transformation
// T (and optionally the mitigation R), partition into crossbars, convert to
// conductances, inject circuit + device non-idealities, convert back, apply
// R⁻¹ and T⁻¹, and run inference with the resulting non-ideal weights W′.
//
// There is one evaluation path (DESIGN.md §12): Monte-Carlo repeats are
// lanes of one tile loop whose circuit solves batch across lanes, and each
// repeat's W′ compiles into an inference-engine instance that runs through
// forward_batched. A single evaluation (one repeat, degrade_mac_matrix,
// measure_nf) is the one-lane case of the same loop.
#pragma once

#include "core/rearrange.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "prune/prune.h"
#include "xbar/backend.h"
#include "xbar/config.h"
#include "xbar/faults.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xs::core {

struct EvalConfig {
    xbar::CrossbarConfig xbar;
    // Which T-transformation / tiling the scheme uses. kNone = dense mapping.
    prune::Method method = prune::Method::kNone;
    // Mitigation R (crossbar-column rearrangement).
    bool rearrange = false;
    RearrangeOrder order = RearrangeOrder::kAscending;
    // Per-layer weight→conductance reference scale. Layers absent from the
    // map use the `w_ref_percentile` of their non-zero |w| (outlier-robust);
    // WCT evaluation passes the frozen pre-clip scales here (DESIGN.md §2).
    std::map<std::string, double> w_ref;
    double w_ref_percentile = 0.995;
    // Device-variation RNG seed (deterministic per layer/tile).
    std::uint64_t seed = 7;
    // Monte-Carlo repeats over the device-variation draw; accuracy and NF
    // are averaged (chip-to-chip variability averaging).
    std::int64_t repeats = 1;
    bool include_parasitics = true;
    bool include_variation = true;
    // Which crossbar backend degrades each tile (xbar/backend.h, DESIGN.md
    // §8): kCircuit = exact parasitic solve (fidelity reference), kFast =
    // bucket-calibrated linear surrogate (~O(X²) per tile), kIdeal =
    // pass-through (equivalent to include_parasitics = false).
    xbar::BackendKind backend = xbar::BackendKind::kCircuit;
    // Mean-conductance calibration buckets for the fast backend's α cache.
    std::int64_t fast_buckets = 64;

    // ---- optional extensions (all off by default) ----
    // Finite write precision: number of programmable conductance levels
    // (0 = continuous devices).
    std::int64_t conductance_levels = 0;
    // Stuck-at-fault rates.
    xbar::FaultConfig faults;
    // Digital per-column gain correction calibrated at v_nom — the classic
    // IR-drop compensation baseline ([Liu et al., ICCAD'14], ref. [12] of
    // the paper). Exactly restores each column's calibration-point current;
    // residual error remains for other inputs.
    bool compensate_columns = false;
};

struct LayerEvalStats {
    std::string layer;
    std::int64_t rows = 0, cols = 0;  // matrix dims actually mapped (post-T)
    std::int64_t tiles = 0;
    std::int64_t unconverged = 0;  // tiles whose circuit solve hit max_sweeps
    double nf_mean = 0.0;  // average NF over this layer's tiles (both arrays)
    double w_ref = 0.0;
};

struct DegradeStats {
    std::int64_t tiles = 0;
    double nf_sum = 0.0;
    std::int64_t nf_tiles = 0;
    std::int64_t unconverged = 0;  // tiles whose circuit solve hit max_sweeps

    double nf_mean() const {
        return nf_tiles ? nf_sum / static_cast<double>(nf_tiles) : 0.0;
    }
};

struct EvalResult {
    double accuracy = 0.0;          // % on the provided test set
    double nf_mean = 0.0;           // tile-average NF across all layers
    std::int64_t total_tiles = 0;   // logical crossbars mapped (one repeat)
    // Solves that hit max_sweeps, summed over ALL Monte-Carlo repeats —
    // compare against total_tiles × repeats, not total_tiles.
    std::int64_t unconverged_tiles = 0;
    std::vector<LayerEvalStats> layers;
};

// Degrade one MAC matrix through the full T→R→tile→G→G′→W′→R⁻¹→T⁻¹ pipeline
// (one lane of the tile loop; tile t draws from rng.split(t + 1)). `w_ref`
// must be positive. Stats (tile/NF counts) accumulate into `stats`.
tensor::Tensor degrade_mac_matrix(const tensor::Tensor& matrix,
                                  const EvalConfig& config, double w_ref,
                                  util::Rng& rng, DegradeStats& stats);

// Full evaluation: degrade W′ and measure test accuracy, averaged over
// `config.repeats` Monte-Carlo repeats (repeat r seeded config.seed +
// r·7919). This is evaluate_repeats_on_crossbars over that seed list plus
// the averaging. The model itself is never mutated — W′ reaches a per-call
// inference engine (nn/infer.h) as compiled instances.
EvalResult evaluate_on_crossbars(nn::Sequential& model, const nn::Dataset& test,
                                 const EvalConfig& config);

// One EvalResult per entry of `seeds`: repeat r degrades with seed seeds[r]
// and all repeats evaluate in a single lane-batched pass (config.repeats is
// ignored — the seed list IS the repeat axis). The deterministic mapping
// stages (T-compaction, R-rearrangement, tiling, w_ref) are computed once;
// each repeat only redoes the stochastic stages (variation, faults, circuit
// solve). Repeats ride in groups of four lanes, and group g+1's degradation
// overlaps group g's inference on a producer thread. Circuit solves start
// cold, so a repeat's result does not depend on which other seeds ride with
// it: sweeps call this with one grid point's per-cell seeds and every
// repeat still produces its own CellResult.
std::vector<EvalResult> evaluate_repeats_on_crossbars(
    nn::Sequential& model, const nn::Dataset& test, const EvalConfig& config,
    const std::vector<std::uint64_t>& seeds);

// NF measurement only (paper Fig. 3(d)): one lane of the tile loop per
// layer, seeded config.seed; no inference pass, and the degraded matrices
// are never mapped back.
EvalResult measure_nf(nn::Sequential& model, const EvalConfig& config);

}  // namespace xs::core
