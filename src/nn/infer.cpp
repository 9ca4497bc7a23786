#include "nn/infer.h"

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
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

// Phase 1 of a conv step: batched im2col straight into packed-B panels.
// Workers split the panel range; panels write disjoint regions.
struct PackCtx {
    const float* x;
    float* packed;
    std::int64_t n, cin, h, w, s_img, s_c, k, stride, pad;
};

void pack_kernel(void* pv, std::size_t /*worker*/, std::size_t lo,
                 std::size_t hi) {
    PackCtx& ctx = *static_cast<PackCtx*>(pv);
    tensor::im2col_pack_b(ctx.x, ctx.n, ctx.cin, ctx.h, ctx.w, ctx.s_img,
                          ctx.s_c, ctx.k, ctx.k, ctx.stride, ctx.pad,
                          ctx.packed, static_cast<std::int64_t>(lo),
                          static_cast<std::int64_t>(hi));
}

// Phase 2: tiled GEMM over (row-panel × n-block) tiles with the fused
// bias+ReLU epilogue. Workers split the tile range; tiles write disjoint
// C regions.
struct TileCtx {
    const tensor::PackedGemmA* wpack;
    const float* wraw;  // folded weights (cout × patch)
    const float* packed;
    float* y;  // channel-major (cout × n·out_hw)
    const float* bias;
    std::int64_t lda, n_cols;
    bool relu;
};

void gemm_tile_kernel(void* pv, std::size_t /*worker*/, std::size_t lo,
                      std::size_t hi) {
    TileCtx& ctx = *static_cast<TileCtx*>(pv);
    tensor::gemm_prepacked_tiles(*ctx.wpack, ctx.wraw, ctx.lda, ctx.packed,
                                 ctx.n_cols, ctx.y, ctx.n_cols, ctx.bias,
                                 ctx.relu, static_cast<std::int64_t>(lo),
                                 static_cast<std::int64_t>(hi));
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
// ping-pong pair (scalar run() and forward_batched() use it in turn — a
// forward is synchronous, so the two never overlap on one thread) and the
// packed im2col panel store. Evaluators construct a fresh engine per
// Monte-Carlo evaluation; engine-owned buffers this large (multi-MB) would be
// mmap'd by the allocator and returned to the OS on every engine destruction,
// repaying page faults and zero fills each eval. Thread-locality makes the
// sharing race-free; the engine copies its final output out of the arena
// before returning (InferenceEngine::out_), so callers never hold references
// into this scratch.
struct EngineScratch {
    Tensor arena[2];            // ping-pong activation buffers
    std::vector<float> packedb;  // packed im2col panels, grown once and
                                 // reused across layers/batches/engines
};

EngineScratch& engine_scratch() {
    static thread_local EngineScratch scratch;
    return scratch;
}

}  // namespace

InferenceEngine::InferenceEngine(Sequential& model) {
    build_plan(model);
    refresh();
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
            s.kind = Step::Kind::kConv;
            s.cin = conv->in_channels();
            s.cout = conv->out_channels();
            s.k = conv->kernel();
            s.stride = conv->stride();
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
            ++mappable_count_;
        } else if (auto* fc = dynamic_cast<Linear*>(l)) {
            s.kind = Step::Kind::kLinear;
            s.in_features = fc->in_features();
            s.out_features = fc->out_features();
            if (next < count && dynamic_cast<ReLU*>(&model.layer(next))) {
                s.relu = true;
                next = next_real(next + 1);
            }
            s.epilogue = s.relu || fc->has_bias();
            ++mappable_count_;
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
        if (s.kind == Step::Kind::kConv || s.kind == Step::Kind::kLinear)
            mappable_steps_.push_back(steps_.size());
        steps_.push_back(std::move(s));
        i = next;
    }
}

void InferenceEngine::refresh() {
    static const std::vector<const Tensor*> kNoOverrides;
    refresh(kNoOverrides);
}

void InferenceEngine::refresh(const std::vector<const Tensor*>& mac_overrides) {
    check(mac_overrides.empty() || mac_overrides.size() == mappable_count_,
          "InferenceEngine::refresh: override count must match mappable layers");
    std::size_t slot = 0;
    for (Step& s : steps_) {
        if (s.kind != Step::Kind::kConv && s.kind != Step::Kind::kLinear)
            continue;
        const Tensor* ov =
            mac_overrides.empty() ? nullptr : mac_overrides[slot];
        ++slot;
        refresh_step(s, ov);
    }
}

void InferenceEngine::fold_step(const Step& step, const Tensor* mac_override,
                                Tensor& w, Tensor& b,
                                tensor::PackedGemmA& wpack) const {
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
                // per refresh — this replaces the inject/restore transposes.
                const float* m = mac_override->data();
                for (std::int64_t p = 0; p < patch; ++p)
                    dst[p] = static_cast<float>(s * m[p * cout + c]);
            } else {
                const float* row = src + c * patch;
                for (std::int64_t p = 0; p < patch; ++p)
                    dst[p] = static_cast<float>(s * row[p]);
            }
        }
        tensor::gemm_pack_a(cout, patch, w.data(), patch, wpack);
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

void InferenceEngine::refresh_step(Step& step, const Tensor* mac_override) {
    fold_step(step, mac_override, step.w, step.b, step.wpack);
}

void InferenceEngine::compile_instance_slot(std::size_t slot,
                                            const Tensor* mac_override,
                                            CompiledInstance& out) const {
    check(slot < mappable_count_,
          "InferenceEngine::compile_instance_slot: slot out of range");
    XS_TIMER_NS("nn.compile.ns");
    if (out.slots.size() != mappable_count_) out.slots.resize(mappable_count_);
    CompiledInstance::Slot& s = out.slots[slot];
    fold_step(steps_[mappable_steps_[slot]], mac_override, s.w, s.b, s.wpack);
}

void InferenceEngine::compile_instance(
    const std::vector<const Tensor*>& mac_overrides,
    CompiledInstance& out) const {
    check(mac_overrides.empty() || mac_overrides.size() == mappable_count_,
          "InferenceEngine::compile_instance: override count mismatch");
    for (std::size_t slot = 0; slot < mappable_count_; ++slot)
        compile_instance_slot(
            slot, mac_overrides.empty() ? nullptr : mac_overrides[slot], out);
}

const Tensor& InferenceEngine::forward(const Tensor& x) {
    return run(x.data(), x.shape());
}

const Tensor& InferenceEngine::forward(const float* x, const Shape& shape) {
    return run(x, shape);
}

const Tensor& InferenceEngine::run(const float* x, const Shape& shape) {
    XS_TIMER_NS("nn.forward.ns");
    XS_COUNT("nn.forwards", 1);
    XS_TRACE_SPAN("forward");
    EngineScratch& scratch = engine_scratch();
    Tensor* const arena_ = scratch.arena;
    std::vector<float>& packedb_ = scratch.packedb;
    cur_shape_ = shape;  // capacity-reusing copy
    const float* cur = x;
    int cur_arena = -1;   // -1: reading caller storage (zero-copy input)
    bool cn = false;      // channel-major (C × N·HW) conv-trunk layout
    const auto dst_of = [](int arena) { return arena == 0 ? 1 : 0; };

    // CN → batch-major NCHW conversion (per-(channel, image) plane memcpy),
    // used at the flatten boundary, before generic fallbacks, and when a
    // model ends inside the conv trunk.
    const auto to_batch_major = [&]() {
        const std::int64_t n = cur_shape_[0], c = cur_shape_[1],
                           hw = cur_shape_[2] * cur_shape_[3];
        const int dst = dst_of(cur_arena);
        Tensor& y = arena_[dst];
        y.reset(cur_shape_);
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t i = 0; i < n; ++i)
                std::memcpy(y.data() + (i * c + ch) * hw,
                            cur + (ch * n + i) * hw,
                            static_cast<std::size_t>(hw) * sizeof(float));
        cur = y.data();
        cur_arena = dst;
        cn = false;
    };

    for (Step& step : steps_) {
        switch (step.kind) {
            case Step::Kind::kConv: {
                XS_TIMER_NS("nn.step.conv.ns");
                XS_TRACE_SPAN("conv");
                check(cur_shape_.size() == 4 && cur_shape_[1] == step.cin,
                      "InferenceEngine: conv input shape mismatch");
                const std::int64_t n = cur_shape_[0], h = cur_shape_[2],
                                   w = cur_shape_[3];
                const std::int64_t oh =
                    tensor::conv_out_size(h, step.k, step.stride, step.pad);
                const std::int64_t ow =
                    tensor::conv_out_size(w, step.k, step.stride, step.pad);
                const std::int64_t n_cols = n * oh * ow;
                // Phase 1: batched im2col into packed panels (one buffer,
                // grown once, reused across layers and batches).
                const std::int64_t packed_size =
                    tensor::packed_b_size(step.patch, n_cols);
                if (static_cast<std::int64_t>(packedb_.size()) < packed_size)
                    packedb_.resize(static_cast<std::size_t>(packed_size));
                PackCtx pctx;
                pctx.x = cur;
                pctx.packed = packedb_.data();
                pctx.n = n;
                pctx.cin = step.cin;
                pctx.h = h;
                pctx.w = w;
                pctx.s_img = cn ? h * w : step.cin * h * w;
                pctx.s_c = cn ? n * h * w : h * w;
                pctx.k = step.k;
                pctx.stride = step.stride;
                pctx.pad = step.pad;
                // Phase 2 state: one tiled GEMM for the whole batch,
                // channel-major output, epilogue fused into each tile.
                const int dst = dst_of(cur_arena);
                Tensor& y = arena_[dst];
                y.reset(step.cout, n_cols);
                TileCtx tctx;
                tctx.wpack = &step.wpack;
                tctx.wraw = step.w.data();
                tctx.packed = packedb_.data();
                tctx.y = y.data();
                tctx.bias = step.epilogue ? step.b.data() : nullptr;
                tctx.lda = step.patch;
                tctx.n_cols = n_cols;
                tctx.relu = step.relu;
                // Walk kPackNc-wide n-blocks, running the GEMM tiles of a
                // block right after packing its panels so the packed data is
                // consumed while still cache-resident (a whole-layer pack
                // would stream megabytes through L2 twice). Tile index
                // nb·row_panels + ip makes each block's tiles contiguous.
                const std::int64_t total_panels =
                    tensor::packed_b_panels(n_cols);
                const std::int64_t block_panels =
                    tensor::kPackNc / tensor::kPackNr;
                const std::int64_t row_panels =
                    (step.cout + tensor::kPackMr - 1) / tensor::kPackMr;
                const std::int64_t n_blocks =
                    (total_panels + block_panels - 1) / block_panels;
                // Per-block pack/kernel timing is detail-gated
                // (XS_METRICS=detail): always-on it would add hundreds of
                // clock reads per layer to the hottest loop in the engine.
                const bool split_timing = util::metrics::detail_enabled();
                std::uint64_t pack_ns = 0, kernel_ns = 0;
                for (std::int64_t nb = 0; nb < n_blocks; ++nb) {
                    const std::int64_t p_lo = nb * block_panels;
                    const std::int64_t p_hi =
                        std::min(total_panels, p_lo + block_panels);
                    const std::uint64_t t0 =
                        split_timing ? util::metrics::detail::now_ns() : 0;
                    util::parallel_for_workers(
                        static_cast<std::size_t>(p_lo),
                        static_cast<std::size_t>(p_hi), &pack_kernel, &pctx);
                    const std::uint64_t t1 =
                        split_timing ? util::metrics::detail::now_ns() : 0;
                    util::parallel_for_workers(
                        static_cast<std::size_t>(nb * row_panels),
                        static_cast<std::size_t>((nb + 1) * row_panels),
                        &gemm_tile_kernel, &tctx);
                    if (split_timing) {
                        pack_ns += t1 - t0;
                        kernel_ns += util::metrics::detail::now_ns() - t1;
                    }
                }
                if (split_timing) {
                    static const util::metrics::Histogram pack_hist =
                        util::metrics::histogram("gemm.pack.ns");
                    static const util::metrics::Histogram kernel_hist =
                        util::metrics::histogram("gemm.kernel.ns");
                    pack_hist.record(pack_ns);
                    kernel_hist.record(kernel_ns);
                }
                cur = y.data();
                cur_arena = dst;
                cn = true;
                cur_shape_.resize(4);
                cur_shape_[0] = n;
                cur_shape_[1] = step.cout;
                cur_shape_[2] = oh;
                cur_shape_[3] = ow;
                break;
            }
            case Step::Kind::kLinear: {
                XS_TIMER_NS("nn.step.linear.ns");
                XS_TRACE_SPAN("linear");
                check(cur_shape_.size() == 2 &&
                          cur_shape_[1] == step.in_features,
                      "InferenceEngine: linear input shape mismatch");
                const std::int64_t n = cur_shape_[0];
                const std::int64_t in = step.in_features,
                                   out = step.out_features;
                const int dst = dst_of(cur_arena);
                Tensor& y = arena_[dst];
                y.reset(n, out);
                // y (n × out) = x (n × in) · W_folded (in × out)
                tensor::gemm_serial(n, out, in, 1.0f, cur, in, step.w.data(),
                                    out, 0.0f, y.data(), out);
                if (step.epilogue) {
                    for (std::int64_t i = 0; i < n; ++i) {
                        float* row = y.data() + i * out;
                        if (step.relu) {
                            for (std::int64_t o = 0; o < out; ++o)
                                row[o] = std::max(row[o] + step.b[o], 0.0f);
                        } else {
                            for (std::int64_t o = 0; o < out; ++o)
                                row[o] += step.b[o];
                        }
                    }
                }
                cur = y.data();
                cur_arena = dst;
                cur_shape_.resize(2);
                cur_shape_[0] = n;
                cur_shape_[1] = out;
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
                const int dst = dst_of(cur_arena);
                Tensor& y = arena_[dst];
                if (cn) {
                    y.reset(c, n * hw);
                } else {
                    y.reset(cur_shape_);
                }
                for (std::int64_t ch = 0; ch < c; ++ch) {
                    double sd, td;
                    bn->inference_affine(ch, sd, td);
                    const float s = static_cast<float>(sd);
                    const float t = static_cast<float>(td);
                    if (cn) {
                        // Channel-major: the whole channel is one run.
                        const float* px = cur + ch * n * hw;
                        float* py = y.data() + ch * n * hw;
                        for (std::int64_t q = 0; q < n * hw; ++q)
                            py[q] = s * px[q] + t;
                        continue;
                    }
                    for (std::int64_t i = 0; i < n; ++i) {
                        const float* px = cur + (i * c + ch) * hw;
                        float* py = y.data() + (i * c + ch) * hw;
                        for (std::int64_t q = 0; q < hw; ++q)
                            py[q] = s * px[q] + t;
                    }
                }
                cur = y.data();
                cur_arena = dst;
                break;
            }
            case Step::Kind::kReLU: {
                const std::int64_t numel = tensor::shape_numel(cur_shape_);
                if (cur_arena >= 0) {
                    // The activation already lives in the arena: clamp it in
                    // place, no buffer hop.
                    float* p = arena_[cur_arena].data();
                    for (std::int64_t i = 0; i < numel; ++i)
                        if (p[i] < 0.0f) p[i] = 0.0f;
                } else {
                    Tensor& y = arena_[0];
                    y.reset(cur_shape_);
                    for (std::int64_t i = 0; i < numel; ++i)
                        y[i] = cur[i] > 0.0f ? cur[i] : 0.0f;
                    cur = y.data();
                    cur_arena = 0;
                }
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
                Tensor& y = arena_[dst];
                if (cn) {
                    y.reset(c, n * oh * ow);
                } else {
                    y.reset(n, c, oh, ow);
                }
                PoolCtx ctx;
                ctx.x = cur;
                ctx.y = y.data();
                ctx.h = h;
                ctx.w = w;
                ctx.k = k;
                ctx.oh = oh;
                ctx.ow = ow;
                ctx.is_max = step.kind == Step::Kind::kMaxPool;
                // Plane i → plane i in both layouts, so one dispatch over
                // all n·c planes serves NCHW and CN alike.
                util::parallel_for_workers(0, static_cast<std::size_t>(n * c),
                                           &pool_kernel, &ctx);
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
                if (cn) to_batch_major();  // one transpose, smallest map
                const std::int64_t n = cur_shape_[0];
                const std::int64_t numel = tensor::shape_numel(cur_shape_);
                cur_shape_.resize(2);
                cur_shape_[0] = n;
                cur_shape_[1] = n > 0 ? numel / n : 0;
                break;  // beyond the transpose the buffer is untouched
            }
            case Step::Kind::kGeneric: {
                // Correctness fallback for layer types the engine doesn't
                // know: route through the allocating Layer::forward.
                if (cn) to_batch_major();
                if (cur_arena < 0) {
                    Tensor& in = arena_[0];
                    in.reset(cur_shape_);
                    std::memcpy(in.data(), cur,
                                static_cast<std::size_t>(in.numel()) *
                                    sizeof(float));
                    cur_arena = 0;
                } else {
                    arena_[cur_arena].reset(cur_shape_);  // metadata only
                }
                const int dst = dst_of(cur_arena);
                arena_[dst] =
                    step.layer->forward(arena_[cur_arena], /*training=*/false);
                cur = arena_[dst].data();
                cur_arena = dst;
                cur_shape_ = arena_[dst].shape();
                break;
            }
        }
    }

    if (cn) to_batch_major();  // model ends inside the conv trunk
    // Copy the result out of the shared per-thread arena: the returned
    // reference must survive other engines forwarding on this thread.
    out_.reset(cur_shape_);
    std::memcpy(out_.data(), cur,
                static_cast<std::size_t>(out_.numel()) * sizeof(float));
    return out_;
}

const Tensor& InferenceEngine::forward_batched(
    const float* x, const Shape& shape, const CompiledInstance* const* instances,
    std::size_t count) {
    check(count >= 1, "InferenceEngine::forward_batched: need ≥1 instance");
    for (std::size_t r = 0; r < count; ++r)
        check(instances[r] != nullptr &&
                  instances[r]->slots.size() == mappable_count_,
              "InferenceEngine::forward_batched: instance slot count mismatch");
    XS_TIMER_NS("nn.forward.ns");
    XS_COUNT("nn.forwards", static_cast<std::uint64_t>(count));
    XS_TRACE_SPAN("forward_batched");

    EngineScratch& scratch = engine_scratch();
    Tensor* const batch_arena_ = scratch.arena;
    std::vector<float>& packedb_ = scratch.packedb;
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

    // Per-lane CN → batch-major transpose (flatten boundary / trunk end).
    const auto to_batch_major_lanes = [&]() {
        const std::int64_t n = cur_shape_[0], c = cur_shape_[1],
                           hw = cur_shape_[2] * cur_shape_[3];
        const std::int64_t block = n * c * hw;
        const int dst = dst_of(cur_arena);
        Tensor& y = batch_arena_[dst];
        y.reset(R, block);
        for (std::int64_t r = 0; r < R; ++r) {
            const float* src = cur + r * block;
            float* dp = y.data() + r * block;
            for (std::int64_t ch = 0; ch < c; ++ch)
                for (std::int64_t i = 0; i < n; ++i)
                    std::memcpy(dp + (i * c + ch) * hw, src + (ch * n + i) * hw,
                                static_cast<std::size_t>(hw) * sizeof(float));
        }
        cur = y.data();
        cur_arena = dst;
        cn = false;
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
                XS_TIMER_NS("nn.step.conv.ns");
                XS_TRACE_SPAN("conv");
                check(cur_shape_.size() == 4 && cur_shape_[1] == step.cin,
                      "InferenceEngine: conv input shape mismatch");
                const std::int64_t n = cur_shape_[0], h = cur_shape_[2],
                                   w = cur_shape_[3];
                const std::int64_t oh =
                    tensor::conv_out_size(h, step.k, step.stride, step.pad);
                const std::int64_t ow =
                    tensor::conv_out_size(w, step.k, step.stride, step.pad);
                const std::int64_t n_cols = n * oh * ow;
                const std::int64_t in_block = block_numel();
                const std::int64_t out_block = step.cout * n_cols;
                const std::int64_t packed_size =
                    tensor::packed_b_size(step.patch, n_cols);
                if (static_cast<std::int64_t>(packedb_.size()) < packed_size)
                    packedb_.resize(static_cast<std::size_t>(packed_size));
                const int dst = dst_of(cur_arena);
                Tensor& y = batch_arena_[dst];
                y.reset(R, out_block);
                PackCtx pctx;
                pctx.packed = packedb_.data();
                pctx.n = n;
                pctx.cin = step.cin;
                pctx.h = h;
                pctx.w = w;
                pctx.s_img = cn ? h * w : step.cin * h * w;
                pctx.s_c = cn ? n * h * w : h * w;
                pctx.k = step.k;
                pctx.stride = step.stride;
                pctx.pad = step.pad;
                TileCtx tctx;
                tctx.packed = packedb_.data();
                tctx.lda = step.patch;
                tctx.n_cols = n_cols;
                tctx.relu = step.relu;
                const std::int64_t total_panels =
                    tensor::packed_b_panels(n_cols);
                const std::int64_t block_panels =
                    tensor::kPackNc / tensor::kPackNr;
                const std::int64_t row_panels =
                    (step.cout + tensor::kPackMr - 1) / tensor::kPackMr;
                const std::int64_t n_blocks =
                    (total_panels + block_panels - 1) / block_panels;
                const auto set_lane = [&](std::int64_t r) {
                    const CompiledInstance::Slot& sl = instances[r]->slots[slot];
                    tctx.wpack = &sl.wpack;
                    tctx.wraw = sl.w.data();
                    tctx.bias = step.epilogue ? sl.b.data() : nullptr;
                    tctx.y = y.data() + r * out_block;
                };
                const bool split_timing = util::metrics::detail_enabled();
                std::uint64_t pack_ns = 0, kernel_ns = 0;
                const auto run_blocks = [&]() {
                    for (std::int64_t nb = 0; nb < n_blocks; ++nb) {
                        const std::int64_t p_lo = nb * block_panels;
                        const std::int64_t p_hi =
                            std::min(total_panels, p_lo + block_panels);
                        const std::uint64_t t0 =
                            split_timing ? util::metrics::detail::now_ns() : 0;
                        util::parallel_for_workers(
                            static_cast<std::size_t>(p_lo),
                            static_cast<std::size_t>(p_hi), &pack_kernel,
                            &pctx);
                        if (split_timing) {
                            const std::uint64_t t1 =
                                util::metrics::detail::now_ns();
                            pack_ns += t1 - t0;
                            kernel_ns -= t1;  // closed after the GEMM below
                        }
                        if (uniform) {
                            // Shared input: pack each n-block once and GEMM
                            // it for every instance while cache-resident —
                            // the R-fold pack amortization that makes the
                            // repeat batch cheaper than R forwards.
                            for (std::int64_t r = 0; r < R; ++r) {
                                set_lane(r);
                                util::parallel_for_workers(
                                    static_cast<std::size_t>(nb * row_panels),
                                    static_cast<std::size_t>((nb + 1) *
                                                             row_panels),
                                    &gemm_tile_kernel, &tctx);
                            }
                        } else {
                            util::parallel_for_workers(
                                static_cast<std::size_t>(nb * row_panels),
                                static_cast<std::size_t>((nb + 1) * row_panels),
                                &gemm_tile_kernel, &tctx);
                        }
                        if (split_timing)
                            kernel_ns += util::metrics::detail::now_ns();
                    }
                };
                if (uniform) {
                    pctx.x = cur;
                    run_blocks();
                    uniform = false;
                } else {
                    for (std::int64_t r = 0; r < R; ++r) {
                        pctx.x = cur + r * in_block;
                        set_lane(r);
                        run_blocks();
                    }
                }
                if (split_timing) {
                    static const util::metrics::Histogram pack_hist =
                        util::metrics::histogram("gemm.pack.ns");
                    static const util::metrics::Histogram kernel_hist =
                        util::metrics::histogram("gemm.kernel.ns");
                    pack_hist.record(pack_ns);
                    kernel_hist.record(kernel_ns);
                }
                cur = y.data();
                cur_arena = dst;
                cn = true;
                cur_shape_.resize(4);
                cur_shape_[0] = n;
                cur_shape_[1] = step.cout;
                cur_shape_[2] = oh;
                cur_shape_[3] = ow;
                ++slot;
                break;
            }
            case Step::Kind::kLinear: {
                XS_TIMER_NS("nn.step.linear.ns");
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
                // Correctness fallback: route each lane's block through the
                // allocating Layer::forward (kGeneric allocates in the
                // scalar path too).
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
