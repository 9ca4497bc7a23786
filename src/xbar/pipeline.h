// The tile non-ideality ladder (DESIGN.md §8).
//
// The paper's evaluation flow (Fig. 2) applies one fixed sequence of
// non-idealities to every crossbar tile's differential conductance pair.
// TilePipeline runs it, each step only when its input asks for it:
//
//   quantize    write quantization      conductance levels ≥ 2
//   variation   Gaussian device spread  device.sigma_variation > 0
//   faults      stuck-at faults         faults.any()
//   parasitics  G → G′ through the      backend ≠ ideal
//               circuit or fast backend
//   compensate  digital column gain     the compensation flag, after a
//                                       parasitic step
//
// All mutable per-tile state lives in a TileContext owned by the calling
// worker: the steps transform the context's *active* differential pair in
// place, and the parasitic step retargets it at the context's G′ buffers.
// After warm-up a worker's context performs no heap allocation, preserving
// the zero-allocation steady state of the solve pipeline (DESIGN.md §4).
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"
#include "xbar/backend.h"
#include "xbar/config.h"
#include "xbar/degrade.h"
#include "xbar/faults.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace xs::xbar {

// Per-worker ladder state, reused across tiles, layers and Monte-Carlo
// repeats. begin_tile() rebinds it to the next tile's differential pair.
struct TileContext {
    // Active differential pair: the tile's own buffers until the parasitic
    // step retargets it at pos_result / neg_result.g_eff.
    tensor::Tensor* pos = nullptr;
    tensor::Tensor* neg = nullptr;
    // Per-tile RNG stream (deterministic regardless of the tile partition).
    util::Rng* rng = nullptr;

    // Per-tile outputs, reset by begin_tile().
    double nf = 0.0;        // average NF over both arrays (parasitic step)
    bool converged = true;  // circuit solves reached tolerance

    // Worker-lifetime scratch (grown once, then reused).
    TileDegradeResult pos_result, neg_result;
    std::vector<double> col_before, col_after;  // compensation column sums

    void begin_tile(tensor::Tensor& g_pos, tensor::Tensor& g_neg,
                    util::Rng& tile_rng) {
        pos = &g_pos;
        neg = &g_neg;
        rng = &tile_rng;
        nf = 0.0;
        converged = true;
    }
};

// The ladder for one evaluation. Immutable after construction and shared by
// all workers (the fast backend's calibration cache is thread-safe).
class TilePipeline {
public:
    TilePipeline(const CrossbarConfig& xbar, std::int64_t conductance_levels,
                 const FaultConfig& faults, BackendKind backend,
                 bool compensate_columns);

    // Run the ladder on `count` per-repeat contexts of one tile (count = 1
    // for a single evaluation), one step at a time across the lanes; the
    // parasitic step solves every lane's tiles in `ws`, the solver scratch
    // the worker's lanes share. Each step is timed into an
    // "xbar.stage.<name>.ns" histogram and wrapped in a trace span; the
    // whole tile lands in "xbar.tile.ns" (one record per lane group).
    // Solves start cold, so lane r's outputs do not depend on `count`.
    void run_batch(TileContext* const* lanes, int count,
                   DegradeWorkspace& ws) const;

private:
    DeviceConfig device_;
    std::int64_t levels_;
    FaultConfig faults_;
    std::unique_ptr<CrossbarBackend> backend_;  // null: no parasitic step
    bool compensate_;
};

}  // namespace xs::xbar
