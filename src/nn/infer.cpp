#include "nn/infer.h"

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "tensor/gemm.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace xs::nn {

using tensor::check;
using tensor::Shape;
using tensor::Tensor;

namespace {

// Raw-dispatch contexts: plain structs passed by pointer through the
// allocation-free parallel_for_workers overload. All fields are set before
// the dispatch and only read (or written at disjoint offsets) inside.

// A conv step's GEMMs: every lane's (row-panel × n-block) tiles in one
// dispatch, lane-major. Lane r reads its activation at x + r·x_lane
// (x_lane = 0 while the lanes share the input) and writes its channel-major
// output (cout × n_cols) at y + r·y_lane. Tiles write disjoint regions.
struct ConvCtx {
    const CompiledInstance* const* instances;
    std::size_t slot;
    const tensor::ConvTables* tables;
    const float* x;
    float* y;
    std::int64_t x_lane, y_lane, tiles;
    bool epilogue, relu;
};

void conv_kernel(void* pv, std::size_t /*worker*/, std::size_t lo,
                 std::size_t hi) {
    const ConvCtx& ctx = *static_cast<const ConvCtx*>(pv);
    const std::int64_t n_cols = ctx.tables->n_cols;
    for (auto t = static_cast<std::int64_t>(lo);
         t < static_cast<std::int64_t>(hi);) {
        const std::int64_t r = t / ctx.tiles;
        const std::int64_t t_hi =
            std::min(static_cast<std::int64_t>(hi), (r + 1) * ctx.tiles);
        const CompiledInstance::Slot& sl = ctx.instances[r]->slots[ctx.slot];
        tensor::gemm_conv_tiles(sl.wpack, *ctx.tables, ctx.x + r * ctx.x_lane,
                                ctx.y + r * ctx.y_lane, n_cols,
                                ctx.epilogue ? sl.b.data() : nullptr,
                                ctx.relu, t - r * ctx.tiles,
                                t_hi - r * ctx.tiles);
        t = t_hi;
    }
}

// Pooling is plane-local, so one kernel serves both activation layouts
// (batch-major NCHW and the engine's channel-major CN): plane i of the
// input maps to plane i of the output in either ordering.
struct PoolCtx {
    const float* x;
    float* y;
    std::int64_t h, w, k, oh, ow;
    bool is_max;
};

void pool_kernel(void* pv, std::size_t /*worker*/, std::size_t lo,
                 std::size_t hi) {
    PoolCtx& ctx = *static_cast<PoolCtx*>(pv);
    const std::int64_t plane_in = ctx.h * ctx.w;
    const std::int64_t plane_out = ctx.oh * ctx.ow;
    const float inv = 1.0f / static_cast<float>(ctx.k * ctx.k);
    for (std::size_t idx = lo; idx < hi; ++idx) {
        const float* plane = ctx.x + static_cast<std::int64_t>(idx) * plane_in;
        float* out = ctx.y + static_cast<std::int64_t>(idx) * plane_out;
        if (ctx.is_max && ctx.k == 2) {
            // The VGG configuration: a branch-free 2×2 max the compiler can
            // vectorize with pairwise shuffles.
            for (std::int64_t oi = 0; oi < ctx.oh; ++oi) {
                const float* r0 = plane + 2 * oi * ctx.w;
                const float* r1 = r0 + ctx.w;
                float* o = out + oi * ctx.ow;
                for (std::int64_t oj = 0; oj < ctx.ow; ++oj)
                    o[oj] = std::max(std::max(r0[2 * oj], r0[2 * oj + 1]),
                                     std::max(r1[2 * oj], r1[2 * oj + 1]));
            }
            continue;
        }
        for (std::int64_t oi = 0; oi < ctx.oh; ++oi)
            for (std::int64_t oj = 0; oj < ctx.ow; ++oj) {
                if (ctx.is_max) {
                    float best = plane[oi * ctx.k * ctx.w + oj * ctx.k];
                    for (std::int64_t ki = 0; ki < ctx.k; ++ki)
                        for (std::int64_t kj = 0; kj < ctx.k; ++kj)
                            best = std::max(best,
                                            plane[(oi * ctx.k + ki) * ctx.w +
                                                  (oj * ctx.k + kj)]);
                    out[oi * ctx.ow + oj] = best;
                } else {
                    double acc = 0.0;
                    for (std::int64_t ki = 0; ki < ctx.k; ++ki)
                        for (std::int64_t kj = 0; kj < ctx.k; ++kj)
                            acc += plane[(oi * ctx.k + ki) * ctx.w +
                                         (oj * ctx.k + kj)];
                    out[oi * ctx.ow + oj] = static_cast<float>(acc) * inv;
                }
            }
    }
}

// Per-thread scratch shared by every engine on the thread: the activation
// ping-pong pair (a forward is synchronous, so two engines never overlap on
// one thread) and the conv step's B tables. Evaluators construct a fresh
// engine per Monte-Carlo evaluation; engine-owned buffers this large
// (multi-MB) would be mmap'd by the allocator and returned to the OS on
// every engine destruction, repaying page faults and zero fills each eval.
// Thread-locality makes the sharing race-free; the engine copies its final
// output out of the arena before returning (InferenceEngine::out_), so
// callers never hold references into this scratch.
struct EngineScratch {
    Tensor arena[2];            // ping-pong activation buffers
    tensor::ConvTables conv;    // rebuilt per conv step; grows once
};

EngineScratch& engine_scratch() {
    static thread_local EngineScratch scratch;
    return scratch;
}

}  // namespace

InferenceEngine::InferenceEngine(Sequential& model) {
    build_plan(model);
    compile_instance({}, own_);
}

void InferenceEngine::build_plan(Sequential& model) {
    const std::size_t count = model.size();
    const auto next_real = [&model, count](std::size_t j) {
        while (j < count && model.layer(j).identity_at_inference()) ++j;
        return j;
    };
    std::size_t i = next_real(0);
    while (i < count) {
        Layer* l = &model.layer(i);
        std::size_t next = next_real(i + 1);
        Step s;
        s.layer = l;
        if (auto* conv = dynamic_cast<Conv2d*>(l)) {
            // The conv step reads B in place (gemm_conv_tiles), which covers
            // stride-1 "same" convolutions only.
            check(conv->stride() == 1 &&
                      2 * conv->pad() == conv->kernel() - 1,
                  "InferenceEngine: conv layer '" + l->name() + "' (" +
                      conv->describe() +
                      ") is not a stride-1 same convolution "
                      "(2·pad = kernel − 1)");
            s.kind = Step::Kind::kConv;
            s.cin = conv->in_channels();
            s.cout = conv->out_channels();
            s.k = conv->kernel();
            s.pad = conv->pad();
            s.patch = s.cin * s.k * s.k;
            if (next < count) {
                auto* bn = dynamic_cast<BatchNorm2d*>(&model.layer(next));
                if (bn && bn->channels() == s.cout) {
                    s.bn = bn;
                    next = next_real(next + 1);
                }
            }
            if (next < count && dynamic_cast<ReLU*>(&model.layer(next))) {
                s.relu = true;
                next = next_real(next + 1);
            }
            s.epilogue = s.relu || s.bn != nullptr || conv->has_bias();
        } else if (auto* fc = dynamic_cast<Linear*>(l)) {
            s.kind = Step::Kind::kLinear;
            s.in_features = fc->in_features();
            s.out_features = fc->out_features();
            if (next < count && dynamic_cast<ReLU*>(&model.layer(next))) {
                s.relu = true;
                next = next_real(next + 1);
            }
            s.epilogue = s.relu || fc->has_bias();
        } else if (dynamic_cast<BatchNorm2d*>(l) != nullptr) {
            s.kind = Step::Kind::kBatchNorm;
        } else if (dynamic_cast<ReLU*>(l) != nullptr) {
            s.kind = Step::Kind::kReLU;
        } else if (auto* mp = dynamic_cast<MaxPool2d*>(l)) {
            s.kind = Step::Kind::kMaxPool;
            s.pool_kernel = mp->kernel();
        } else if (auto* ap = dynamic_cast<AvgPool2d*>(l)) {
            s.kind = Step::Kind::kAvgPool;
            s.pool_kernel = ap->kernel();
        } else if (dynamic_cast<Flatten*>(l) != nullptr) {
            s.kind = Step::Kind::kFlatten;
        } else {
            s.kind = Step::Kind::kGeneric;
        }
        if (s.kind == Step::Kind::kConv || s.kind == Step::Kind::kLinear) {
#if XS_TELEMETRY_ENABLED
            slot_timers_.push_back(util::metrics::histogram(
                "nn.step." + std::to_string(mappable_steps_.size()) +
                (s.kind == Step::Kind::kConv ? ".conv.ns" : ".linear.ns")));
#endif
            mappable_steps_.push_back(steps_.size());
        }
        steps_.push_back(std::move(s));
        i = next;
    }
}

void InferenceEngine::compile_instance_slot(std::size_t slot,
                                            const Tensor* mac_override,
                                            CompiledInstance& inst) const {
    check(slot < mappable_count(),
          "InferenceEngine::compile_instance_slot: slot out of range");
    XS_TIMER_NS("nn.compile.ns");
    if (inst.slots.size() != mappable_count())
        inst.slots.resize(mappable_count());
    CompiledInstance::Slot& sl = inst.slots[slot];
    Tensor& w = sl.w;
    Tensor& b = sl.b;
    const Step& step = steps_[mappable_steps_[slot]];
    if (step.kind == Step::Kind::kConv) {
        auto* conv = static_cast<Conv2d*>(step.layer);
        const std::int64_t cout = step.cout, patch = step.patch;
        if (mac_override)
            check(mac_override->rank() == 2 && mac_override->dim(0) == patch &&
                      mac_override->dim(1) == cout,
                  "InferenceEngine: conv MAC override shape mismatch");
        w.reset(cout, patch);
        if (step.epilogue && b.numel() != cout) b = Tensor({cout});
        const float* src = conv->weight().value.data();  // (cout × patch)
        for (std::int64_t c = 0; c < cout; ++c) {
            // BN folding in double: y = s·(conv(x) + bias) + t with the
            // affine from BatchNorm2d::inference_affine → W′ = s·W,
            // b′ = s·bias + t.
            double s = 1.0, t = 0.0;
            if (step.bn) step.bn->inference_affine(c, s, t);
            if (step.epilogue) {
                const double bias =
                    conv->has_bias() ? conv->bias().value[c] : 0.0;
                b[c] = static_cast<float>(s * bias + t);
            }
            float* dst = w.data() + c * patch;
            if (mac_override) {
                // MAC orientation is (patch × cout): transposed read, once
                // per compile — this replaces the inject/restore transposes.
                const float* m = mac_override->data();
                for (std::int64_t p = 0; p < patch; ++p)
                    dst[p] = static_cast<float>(s * m[p * cout + c]);
            } else {
                const float* row = src + c * patch;
                for (std::int64_t p = 0; p < patch; ++p)
                    dst[p] = static_cast<float>(s * row[p]);
            }
        }
        tensor::gemm_pack_a(cout, patch, w.data(), patch, sl.wpack);
        return;
    }
    auto* fc = static_cast<Linear*>(step.layer);
    const std::int64_t in = step.in_features, out = step.out_features;
    if (mac_override)
        check(mac_override->rank() == 2 && mac_override->dim(0) == in &&
                  mac_override->dim(1) == out,
              "InferenceEngine: linear MAC override shape mismatch");
    w.reset(in, out);
    if (step.epilogue && b.numel() != out) b = Tensor({out});
    if (mac_override) {
        std::memcpy(w.data(), mac_override->data(),
                    static_cast<std::size_t>(in * out) * sizeof(float));
    } else {
        const float* src = fc->weight().value.data();  // (out × in)
        for (std::int64_t j = 0; j < in; ++j)
            for (std::int64_t o = 0; o < out; ++o)
                w.data()[j * out + o] = src[o * in + j];
    }
    if (step.epilogue)
        for (std::int64_t o = 0; o < out; ++o)
            b[o] = fc->has_bias() ? fc->bias().value[o] : 0.0f;
}

void InferenceEngine::compile_instance(
    const std::vector<const Tensor*>& mac_overrides,
    CompiledInstance& out) const {
    check(mac_overrides.empty() || mac_overrides.size() == mappable_count(),
          "InferenceEngine::compile_instance: override count mismatch");
    for (std::size_t slot = 0; slot < mappable_count(); ++slot)
        compile_instance_slot(
            slot, mac_overrides.empty() ? nullptr : mac_overrides[slot], out);
}

const Tensor& InferenceEngine::forward(const Tensor& x) {
    return forward(x.data(), x.shape());
}

const Tensor& InferenceEngine::forward(const float* x, const Shape& shape) {
    const CompiledInstance* own = &own_;
    return forward_batched(x, shape, &own, 1);
}

const Tensor& InferenceEngine::forward_batched(
    const float* x, const Shape& shape, const CompiledInstance* const* instances,
    std::size_t count) {
    check(count >= 1, "InferenceEngine::forward_batched: need ≥1 instance");
    for (std::size_t r = 0; r < count; ++r)
        check(instances[r] != nullptr &&
                  instances[r]->slots.size() == mappable_count(),
              "InferenceEngine::forward_batched: instance slot count mismatch");
    XS_TIMER_NS("nn.forward.ns");
    XS_COUNT("nn.forwards", static_cast<std::uint64_t>(count));
    XS_TRACE_SPAN("forward_batched");

    EngineScratch& scratch = engine_scratch();
    Tensor* const batch_arena_ = scratch.arena;
    const std::int64_t R = static_cast<std::int64_t>(count);
    cur_shape_ = shape;
    const float* cur = x;
    int cur_arena = -1;  // index into batch_arena_ once an arena is written
    bool cn = false;     // channel-major conv-trunk layout (per lane block)
    // While `uniform`, every lane shares one activation — the caller's
    // input, untouched (weightless prefix steps that would write a buffer
    // materialize lanes first). Divergence happens at the first step that
    // reads instance weights; until then packing/pooling work is done once
    // for all R lanes.
    bool uniform = true;
    std::size_t slot = 0;
    const auto dst_of = [](int arena) { return arena == 0 ? 1 : 0; };
    const auto block_numel = [&]() { return tensor::shape_numel(cur_shape_); };

    // Copy the shared activation into R lane blocks; from here on each lane
    // transforms its own block.
    const auto materialize_lanes = [&]() {
        const std::int64_t block = block_numel();
        const int dst = dst_of(cur_arena);
        Tensor& y = batch_arena_[dst];
        y.reset(R, block);
        for (std::int64_t r = 0; r < R; ++r)
            std::memcpy(y.data() + r * block, cur,
                        static_cast<std::size_t>(block) * sizeof(float));
        cur = y.data();
        cur_arena = dst;
        uniform = false;
    };

    // Swap the two leading dims of each (a × b × H·W) block — one block
    // while the lanes share the activation, else R: batch-major NCHW ↔
    // channel-major CN.
    const auto swap_major = [&](std::int64_t a, std::int64_t b) {
        const std::int64_t hw = cur_shape_[2] * cur_shape_[3];
        const std::int64_t block = a * b * hw;
        const std::int64_t blocks = uniform ? 1 : R;
        const int dst = dst_of(cur_arena);
        Tensor& y = batch_arena_[dst];
        y.reset(blocks, block);
        for (std::int64_t r = 0; r < blocks; ++r) {
            const float* src = cur + r * block;
            float* dp = y.data() + r * block;
            for (std::int64_t i = 0; i < a; ++i)
                for (std::int64_t j = 0; j < b; ++j)
                    std::memcpy(dp + (j * a + i) * hw, src + (i * b + j) * hw,
                                static_cast<std::size_t>(hw) * sizeof(float));
        }
        cur = y.data();
        cur_arena = dst;
        cn = !cn;
    };
    // CN → batch-major (flatten boundary / trunk end).
    const auto to_batch_major_lanes = [&]() {
        swap_major(cur_shape_[1], cur_shape_[0]);
    };

    for (Step& step : steps_) {
        if (uniform) {
            if (step.kind == Step::Kind::kFlatten) {
                check(!cur_shape_.empty(),
                      "InferenceEngine: flatten expects a batch dimension");
                const std::int64_t n = cur_shape_[0];
                const std::int64_t numel = block_numel();
                cur_shape_.resize(2);
                cur_shape_[0] = n;
                cur_shape_[1] = n > 0 ? numel / n : 0;
                continue;
            }
            if (step.kind != Step::Kind::kConv &&
                step.kind != Step::Kind::kLinear)
                materialize_lanes();
        }
        switch (step.kind) {
            case Step::Kind::kConv: {
#if XS_TELEMETRY_ENABLED
                const util::metrics::ScopedTimerNs timer(slot_timers_[slot]);
#endif
                XS_TRACE_SPAN("conv");
                check(cur_shape_.size() == 4 && cur_shape_[1] == step.cin,
                      "InferenceEngine: conv input shape mismatch");
                const std::int64_t n = cur_shape_[0], h = cur_shape_[2],
                                   w = cur_shape_[3];
                // B is read in place (gemm_conv_tiles). A batch-major input
                // qualifies when every 16-column panel lies inside one
                // image; any other is copied to channel-major first.
                if (!cn && (h * w) % tensor::kPackNr != 0)
                    swap_major(n, step.cin);
                const std::int64_t in_block = block_numel();
                const std::int64_t s_img = cn ? h * w : step.cin * h * w;
                const std::int64_t s_c = cn ? n * h * w : h * w;
                tensor::conv_tables(n, step.cin, h, w, s_img, s_c, step.k,
                                    step.pad, scratch.conv);
                const std::int64_t n_cols = scratch.conv.n_cols;
                const std::int64_t out_block = step.cout * n_cols;
                const int dst = dst_of(cur_arena);
                Tensor& y = batch_arena_[dst];
                y.reset(R, out_block);
                ConvCtx ctx;
                ctx.instances = instances;
                ctx.slot = slot;
                ctx.tables = &scratch.conv;
                ctx.x = cur;
                ctx.y = y.data();
                ctx.x_lane = uniform ? 0 : in_block;
                ctx.y_lane = out_block;
                ctx.tiles = tensor::gemm_tile_count(step.cout, n_cols);
                ctx.epilogue = step.epilogue;
                ctx.relu = step.relu;
                util::parallel_for_workers(
                    0, static_cast<std::size_t>(R * ctx.tiles), &conv_kernel,
                    &ctx);
                uniform = false;
                cur = y.data();
                cur_arena = dst;
                cn = true;
                cur_shape_[1] = step.cout;  // "same" conv: H and W unchanged
                ++slot;
                break;
            }
            case Step::Kind::kLinear: {
#if XS_TELEMETRY_ENABLED
                const util::metrics::ScopedTimerNs timer(slot_timers_[slot]);
#endif
                XS_TRACE_SPAN("linear");
                check(cur_shape_.size() == 2 &&
                          cur_shape_[1] == step.in_features,
                      "InferenceEngine: linear input shape mismatch");
                const std::int64_t n = cur_shape_[0];
                const std::int64_t in = step.in_features,
                                   out = step.out_features;
                const std::int64_t in_block = n * in, out_block = n * out;
                const int dst = dst_of(cur_arena);
                Tensor& y = batch_arena_[dst];
                y.reset(R, out_block);
                for (std::int64_t r = 0; r < R; ++r) {
                    const CompiledInstance::Slot& sl = instances[r]->slots[slot];
                    const float* xr = uniform ? cur : cur + r * in_block;
                    float* yr = y.data() + r * out_block;
                    tensor::gemm_serial(n, out, in, 1.0f, xr, in, sl.w.data(),
                                        out, 0.0f, yr, out);
                    if (step.epilogue) {
                        for (std::int64_t i = 0; i < n; ++i) {
                            float* row = yr + i * out;
                            if (step.relu) {
                                for (std::int64_t o = 0; o < out; ++o)
                                    row[o] = std::max(row[o] + sl.b[o], 0.0f);
                            } else {
                                for (std::int64_t o = 0; o < out; ++o)
                                    row[o] += sl.b[o];
                            }
                        }
                    }
                }
                cur = y.data();
                cur_arena = dst;
                uniform = false;
                cur_shape_.resize(2);
                cur_shape_[0] = n;
                cur_shape_[1] = out;
                ++slot;
                break;
            }
            case Step::Kind::kBatchNorm: {
                check(cur_shape_.size() == 4,
                      "InferenceEngine: BatchNorm expects NCHW input");
                auto* bn = static_cast<BatchNorm2d*>(step.layer);
                check(cur_shape_[1] == bn->channels(),
                      "InferenceEngine: BatchNorm channel mismatch");
                const std::int64_t n = cur_shape_[0], c = cur_shape_[1],
                                   hw = cur_shape_[2] * cur_shape_[3];
                const std::int64_t block = n * c * hw;
                const int dst = dst_of(cur_arena);
                Tensor& y = batch_arena_[dst];
                y.reset(R, block);
                for (std::int64_t ch = 0; ch < c; ++ch) {
                    double sd, td;
                    bn->inference_affine(ch, sd, td);
                    const float s = static_cast<float>(sd);
                    const float t = static_cast<float>(td);
                    for (std::int64_t r = 0; r < R; ++r) {
                        const float* src = cur + r * block;
                        float* dp = y.data() + r * block;
                        if (cn) {
                            const float* px = src + ch * n * hw;
                            float* py = dp + ch * n * hw;
                            for (std::int64_t q = 0; q < n * hw; ++q)
                                py[q] = s * px[q] + t;
                            continue;
                        }
                        for (std::int64_t i = 0; i < n; ++i) {
                            const float* px = src + (i * c + ch) * hw;
                            float* py = dp + (i * c + ch) * hw;
                            for (std::int64_t q = 0; q < hw; ++q)
                                py[q] = s * px[q] + t;
                        }
                    }
                }
                cur = y.data();
                cur_arena = dst;
                break;
            }
            case Step::Kind::kReLU: {
                // Once diverged the activation always lives in a batch
                // arena: clamp all lanes in one pass, no buffer hop.
                float* p = batch_arena_[cur_arena].data();
                const std::int64_t numel = R * block_numel();
                for (std::int64_t i = 0; i < numel; ++i)
                    if (p[i] < 0.0f) p[i] = 0.0f;
                break;
            }
            case Step::Kind::kMaxPool:
            case Step::Kind::kAvgPool: {
                check(cur_shape_.size() == 4,
                      "InferenceEngine: pool expects NCHW input");
                const std::int64_t n = cur_shape_[0], c = cur_shape_[1],
                                   h = cur_shape_[2], w = cur_shape_[3];
                const std::int64_t k = step.pool_kernel;
                check(h % k == 0 && w % k == 0,
                      "InferenceEngine: pool input not divisible by kernel");
                const std::int64_t oh = h / k, ow = w / k;
                const int dst = dst_of(cur_arena);
                Tensor& y = batch_arena_[dst];
                y.reset(R, c * n * oh * ow);
                PoolCtx ctx;
                ctx.x = cur;
                ctx.y = y.data();
                ctx.h = h;
                ctx.w = w;
                ctx.k = k;
                ctx.oh = oh;
                ctx.ow = ow;
                ctx.is_max = step.kind == Step::Kind::kMaxPool;
                // Lane blocks are contiguous and pooling is plane-local, so
                // one dispatch over all R·n·c planes serves every lane.
                util::parallel_for_workers(
                    0, static_cast<std::size_t>(R * n * c), &pool_kernel, &ctx);
                cur = y.data();
                cur_arena = dst;
                cur_shape_.resize(4);
                cur_shape_[0] = n;
                cur_shape_[1] = c;
                cur_shape_[2] = oh;
                cur_shape_[3] = ow;
                break;
            }
            case Step::Kind::kFlatten: {
                check(!cur_shape_.empty(),
                      "InferenceEngine: flatten expects a batch dimension");
                if (cn) to_batch_major_lanes();
                const std::int64_t n = cur_shape_[0];
                const std::int64_t numel = block_numel();
                cur_shape_.resize(2);
                cur_shape_[0] = n;
                cur_shape_[1] = n > 0 ? numel / n : 0;
                break;
            }
            case Step::Kind::kGeneric: {
                // Correctness fallback for layer types the engine doesn't
                // know: route each lane's block through the allocating
                // Layer::forward.
                if (cn) to_batch_major_lanes();
                const std::int64_t in_block = block_numel();
                Tensor in(cur_shape_);
                const int dst = dst_of(cur_arena);
                Tensor& y = batch_arena_[dst];
                std::int64_t out_block = 0;
                Shape out_shape;
                for (std::int64_t r = 0; r < R; ++r) {
                    std::memcpy(in.data(), cur + r * in_block,
                                static_cast<std::size_t>(in_block) *
                                    sizeof(float));
                    const Tensor out =
                        step.layer->forward(in, /*training=*/false);
                    if (r == 0) {
                        out_block = out.numel();
                        out_shape = out.shape();
                        y.reset(R, out_block);
                    }
                    std::memcpy(y.data() + r * out_block, out.data(),
                                static_cast<std::size_t>(out_block) *
                                    sizeof(float));
                }
                cur = y.data();
                cur_arena = dst;
                cur_shape_ = out_shape;
                break;
            }
        }
    }

    if (uniform) materialize_lanes();  // weightless model: identical lanes
    if (cn) to_batch_major_lanes();
    check(!cur_shape_.empty(),
          "InferenceEngine::forward_batched: scalar output shape");
    cur_shape_[0] *= R;  // lane-major stacking along the batch dimension
    // Copy the stacked result out of the shared per-thread arena: the
    // returned reference must survive other engines forwarding on this
    // thread.
    out_.reset(cur_shape_);
    std::memcpy(out_.data(), cur,
                static_cast<std::size_t>(out_.numel()) * sizeof(float));
    return out_;
}

}  // namespace xs::nn
