// Zero-allocation inference engine over a Sequential layer stack
// (DESIGN.md §6).
//
// The training-oriented Layer::forward path allocates a fresh output tensor
// per layer and, pre-guard, cached a deep copy of every input. For the
// Monte-Carlo evaluation loop — thousands of eval-mode forward passes over
// the same network — that cost dominates once the crossbar solve is fast.
// The engine instead compiles the layer stack into a step plan once and
// streams activations through a two-buffer ping-pong arena:
//
//  * Conv2d (+ following BatchNorm2d, + following ReLU) become ONE step:
//    the BN affine is folded into the conv weights/bias at compile time,
//    the whole batch runs as a single tiled GEMM against weights packed
//    once per compile, and the bias+ReLU epilogue runs on each GEMM tile
//    while it is hot — eliminating two full passes over every activation
//    map plus the per-call weight packing.
//  * The GEMM reads its B — the im2col matrix — in place from the
//    activation with masked loads (gemm_conv_tiles): no im2col copy and no
//    packed-B buffer. The plan accepts stride-1 "same" convolutions only.
//  * Conv activations stay channel-major ("CN": channels × batch·H·W)
//    through the conv trunk, so batched GEMM outputs need no reshuffle;
//    Flatten transposes back to batch-major once, on the smallest map.
//  * Linear (+ following ReLU) is fused the same way.
//  * Dropout (identity at inference) is skipped.
//
// One evaluation path: folded weights live in CompiledInstances, and every
// forward is forward_batched over one or more of them. forward() runs the
// engine's own instance, compiled from the model's parameters at
// construction, as a single lane. Degraded crossbar weights W′ reach the
// engine as MAC-matrix overrides compiled into further instances WITHOUT
// touching the model — folding happens after the swap, per compile, so BN
// folding composes correctly with per-repeat degraded weights.
//
// Each conv/linear step records its time in its own histogram,
// nn.step.<slot>.conv.ns / nn.step.<slot>.linear.ns (slots ordered like
// map::mappable_layers). After a warm-up forward, steady-state forwards of
// the same batch shape perform zero heap allocations (pinned by
// tests/nn_infer_test.cpp).
#pragma once

#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/metrics.h"

#include <cstdint>
#include <vector>

namespace xs::nn {

class BatchNorm2d;
class Conv2d;
class Linear;

// One compiled weight set for an InferenceEngine: per mappable layer the
// folded weights (BN composed in at compile time), folded bias, and — for
// conv steps — the GEMM panel-packed A matrix. Instances are engine-shaped
// but engine-independent storage, so the Monte-Carlo evaluator can hold R
// degraded instances and run them all through one engine (forward_batched).
// Storage is reused across recompiles of the same model shape.
struct CompiledInstance {
    struct Slot {
        Tensor w;  // folded weights: conv (Cout × patch), linear (in × out)
        Tensor b;  // folded bias; empty when the step has no epilogue
        tensor::PackedGemmA wpack;  // conv only: panel-packed w
    };
    std::vector<Slot> slots;  // ordered like map::mappable_layers(model)
};

class InferenceEngine {
public:
    // Compiles the plan and the engine's own instance from the model's
    // current parameters. The engine keeps pointers into `model`; it must
    // outlive the engine and its layer structure must not change. Parameter
    // changes after construction reach the engine only through instances
    // compiled afterwards (compile_instance); forward() keeps the weights
    // captured here. Throws for a conv that is not a stride-1 "same"
    // convolution (2·pad = kernel − 1).
    explicit InferenceEngine(Sequential& model);

    // Non-copyable (owns arenas keyed to the plan), movable.
    InferenceEngine(const InferenceEngine&) = delete;
    InferenceEngine& operator=(const InferenceEngine&) = delete;
    InferenceEngine(InferenceEngine&&) = default;
    InferenceEngine& operator=(InferenceEngine&&) = default;

    // Eval-mode forward of the engine's own instance: forward_batched with
    // one lane. The returned reference points at an engine-owned buffer and
    // stays valid until the next forward call on this engine.
    const Tensor& forward(const Tensor& x);
    // Zero-copy variant reading the batch straight from caller storage
    // (e.g. a contiguous slice of a dataset tensor).
    const Tensor& forward(const float* x, const tensor::Shape& shape);

    // Compile one mappable layer's folded weight set into `inst` (slot
    // storage reused when already shaped). `mac_override` is the layer's
    // MAC matrix (rows = inputs × cols = outputs, the map::extract_matrix
    // orientation), or null for the layer's own parameters; this is how
    // degraded crossbar weights W′ are evaluated without mutating the model.
    // Folding runs in double and the conv pack is rebuilt.
    void compile_instance_slot(std::size_t slot,
                               const tensor::Tensor* mac_override,
                               CompiledInstance& inst) const;
    // All slots at once, `mac_overrides` ordered like
    // map::mappable_layers(model); empty means model parameters.
    void compile_instance(
        const std::vector<const tensor::Tensor*>& mac_overrides,
        CompiledInstance& out) const;

    // Evaluate `count` compiled instances over ONE input batch in a single
    // pass: lanes share the input (the first conv reads it once for all
    // of them) and produce a lane-major stacked output — rows [r·n, (r+1)·n) are
    // instance r's result, bit-identical to a one-lane pass of instance r.
    // The returned reference points at an engine-owned buffer and stays
    // valid until the next forward/forward_batched call on this engine.
    // Steady state performs no heap allocation (kGeneric fallback steps
    // excepted).
    const Tensor& forward_batched(const float* x, const tensor::Shape& shape,
                                  const CompiledInstance* const* instances,
                                  std::size_t count);

    // Number of mappable layers the plan found (instance slots).
    std::size_t mappable_count() const { return mappable_steps_.size(); }

private:
    struct Step {
        enum class Kind {
            kConv,      // Conv2d [+ folded BN] [+ fused ReLU]
            kLinear,    // Linear [+ fused ReLU]
            kBatchNorm, // standalone BatchNorm2d (eval statistics)
            kReLU,      // standalone ReLU (in-place on the arena)
            kMaxPool,
            kAvgPool,
            kFlatten,
            kGeneric,   // fallback: Layer::forward(x, false) — allocates
        };
        Kind kind;
        Layer* layer = nullptr;
        BatchNorm2d* bn = nullptr;  // folded into kConv when non-null
        bool relu = false;          // fused ReLU epilogue
        bool epilogue = false;      // bias add and/or ReLU needed
        // Geometry captured at plan time (layer structure is immutable).
        std::int64_t cin = 0, cout = 0, k = 0, pad = 0, patch = 0;
        std::int64_t in_features = 0, out_features = 0;
        std::int64_t pool_kernel = 0;
    };

    void build_plan(Sequential& model);

    std::vector<Step> steps_;
    std::vector<std::size_t> mappable_steps_;  // steps_ indices of mappables
#if XS_TELEMETRY_ENABLED
    // Per mappable slot: nn.step.<slot>.<conv|linear>.ns.
    std::vector<util::metrics::Histogram> slot_timers_;
#endif
    CompiledInstance own_;  // model parameters at construction (forward())
    // Activation ping-pong buffers and the conv B tables live in a
    // per-thread scratch arena shared by every engine on the thread (see
    // engine_scratch() in infer.cpp): evaluators build a fresh engine per
    // Monte-Carlo evaluation, and per-engine buffers would hand their multi-MB
    // allocations back to the OS each time — repaying page faults and zero
    // fills on every eval. Only the final output is engine-owned (out_), so
    // the documented "valid until the next forward on this engine" contract
    // survives other engines running on the same thread in between.
    Tensor out_;               // last forward's output (engine-owned copy)
    tensor::Shape cur_shape_;  // logical NCHW shape of the current buffer
};

}  // namespace xs::nn
