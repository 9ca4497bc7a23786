// Composable tile non-ideality pipeline (DESIGN.md §8).
//
// The paper's evaluation flow (Fig. 2) applies a sequence of independent
// non-ideality stages to every crossbar tile's differential conductance
// pair: write quantization, Gaussian device variation, stuck-at faults, the
// parasitic circuit model, and optional digital column compensation. This
// header turns that sequence into data — an ordered list of TileStages built
// from the evaluation config — so a new scenario (drift, write noise, ADC
// quantization, …) plugs in as one new stage instead of another branch in
// the evaluator's tile loop.
//
// All mutable per-tile state lives in a TileStageContext owned by the
// calling worker: stages transform the context's *active* differential pair
// in place (the parasitic stage retargets the active pointers at its G′
// buffers and exposes the pre-parasitic pair for the compensation stage).
// After warm-up a worker's context performs no heap allocation, preserving
// the zero-allocation steady state of the solve pipeline (DESIGN.md §4).
#pragma once

#include "tensor/tensor.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "xbar/backend.h"
#include "xbar/config.h"
#include "xbar/degrade.h"
#include "xbar/faults.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace xs::xbar {

// Per-worker pipeline state, reused across tiles, layers and Monte-Carlo
// repeats. begin_tile() rebinds it to the next tile's differential pair.
struct TileStageContext {
    // Active differential pair. Stages read and write through these; a stage
    // may retarget them at its own output buffers (parasitic stage → G′).
    tensor::Tensor* pos = nullptr;
    tensor::Tensor* neg = nullptr;
    // Pre-parasitic pair, set by the parasitic stage for compensation.
    const tensor::Tensor* pre_pos = nullptr;
    const tensor::Tensor* pre_neg = nullptr;
    // Per-tile RNG stream (deterministic regardless of the tile partition).
    util::Rng* rng = nullptr;

    // Per-tile outputs, reset by begin_tile().
    double nf = 0.0;        // average NF over both arrays (parasitic stage)
    bool converged = true;  // circuit solves reached tolerance

    // Worker-lifetime scratch (grown once, then reused).
    TileDegradeResult pos_result, neg_result;
    std::vector<double> col_before, col_after;  // compensation column sums

    void begin_tile(tensor::Tensor& g_pos, tensor::Tensor& g_neg,
                    util::Rng& tile_rng) {
        pos = &g_pos;
        neg = &g_neg;
        pre_pos = pre_neg = nullptr;
        rng = &tile_rng;
        nf = 0.0;
        converged = true;
    }
};

// One non-ideality transformation of the active differential pair. Stages
// are immutable after construction and shared by all workers; anything
// mutable lives in the per-worker context, or in `ws`, the solver scratch
// the worker's lanes share (only the parasitic stage solves).
class TileStage {
public:
    virtual ~TileStage() = default;
    virtual const char* name() const = 0;
    virtual void apply(TileStageContext& ctx, DegradeWorkspace& ws) const = 0;
};

// An ordered stage list plus the backend the parasitic stage solves with.
class TilePipeline {
public:
    TilePipeline() = default;
    TilePipeline(TilePipeline&&) = default;
    TilePipeline& operator=(TilePipeline&&) = default;

    void set_backend(std::unique_ptr<CrossbarBackend> backend);
    void add(std::unique_ptr<TileStage> stage);

    // Apply every stage in order to `count` per-repeat contexts of one tile
    // (count = 1 for a single evaluation), stage by stage across the lanes;
    // the parasitic stage solves every lane's tiles in `ws`. Each stage is
    // timed into an "xbar.stage.<name>.ns" histogram (registered once in
    // add()) and wrapped in a trace span; the whole tile lands in
    // "xbar.tile.ns" (one record per lane group). Solves start cold, so
    // lane r's outputs do not depend on `count`.
    void run_batch(TileStageContext* const* lanes, int count,
                   DegradeWorkspace& ws) const;

    std::size_t size() const { return stages_.size(); }
    const CrossbarBackend* backend() const { return backend_.get(); }
    // "quantize|variation|faults|parasitics[circuit]|compensate", or
    // "identity" for an empty pipeline.
    std::string describe() const;

private:
    std::unique_ptr<CrossbarBackend> backend_;
    std::vector<std::unique_ptr<TileStage>> stages_;
    // One per stage, parallel to stages_ (empty with XS_TELEMETRY=OFF).
    std::vector<util::metrics::Histogram> stage_timers_;
};

// Everything the stage list depends on; core::EvalConfig maps onto this
// 1:1 (core/evaluator.cpp) so existing configs behave identically.
struct PipelineSpec {
    CrossbarConfig xbar;
    std::int64_t conductance_levels = 0;  // ≥2 enables write quantization
    bool include_variation = true;
    FaultConfig faults;
    bool include_parasitics = true;
    bool compensate_columns = false;
    BackendKind backend = BackendKind::kCircuit;
    std::int64_t fast_buckets = 64;
};

// Build the stage list for `spec`, in the fixed order quantize → variation →
// faults → parasitics → compensate, each included only when its config
// switch asks for it. BackendKind::kIdeal (like include_parasitics = false)
// elides the parasitic and compensation stages entirely — the pass-through
// is free rather than a copy.
TilePipeline build_tile_pipeline(const PipelineSpec& spec);

// Digital per-column gain correction calibrated at v_nom ([Liu et al.,
// ICCAD'14]): scale G′ columns so the calibration-point column currents
// match `g_before`. Exposed for the compensation stage and tests; `ctx`
// provides the column-sum scratch.
void compensate_columns(tensor::Tensor& g_eff, const tensor::Tensor& g_before,
                        TileStageContext& ctx);

}  // namespace xs::xbar
