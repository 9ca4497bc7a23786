// Inference-engine pins (DESIGN.md §6):
//  * steady-state forwards allocate nothing (counting operator new);
//  * the folded/fused path matches the reference layer-by-layer forward;
//  * a conv step with a fused 2×2 max-pool is bit-identical to the unpooled
//    step's output put through MaxPool2d::forward;
//  * the plan rejects, naming the layer, any layer it cannot fuse;
//  * MAC-matrix overrides match inject_matrix semantics;
//  * a lane of a batched forward is bit-identical to a one-lane pass;
//  * evaluate_on_crossbars is deterministic.
#include "core/evaluator.h"
#include "map/matrix_view.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/infer.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "tensor/ops.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace {

// Per-thread allocation counter. Worker threads grow thread-local GEMM pack
// buffers on first contact with a layer, and the pool's part→thread claim
// order is nondeterministic — so a global count would be flaky by design.
// Every engine-owned allocation (arenas, shapes, scratch growth, dispatch)
// happens on the calling thread, which is exactly what this pins. The
// calling thread runs no part of a dispatch, so the pins also count the
// same steady state run from inside a pool region (allocations_inline).
// With a single-core pool everything runs inline and the pin covers the
// whole path.
thread_local long t_alloc_count = 0;

}  // namespace

void* operator new(std::size_t size) {
    ++t_alloc_count;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// std::stable_sort's temporary buffer (pruning ranks its structures with
// it) takes the nothrow form.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++t_alloc_count;
    return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return ::operator new(size, std::nothrow);
}

// Out of line: once inlined into a caller, GCC 12 pairs the std::free with
// the caller's operator new and reports a mismatch (-Wmismatched-new-delete),
// depending on how much of the file it inlines.
__attribute__((noinline)) void operator delete(void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace xs::nn {
namespace {

using tensor::Tensor;

// Covers every step kind and epilogue: conv+BN+ReLU+pool, conv with bias
// and no BN (+ReLU+pool), flatten, and a linear classifier with bias.
Sequential small_model(util::Rng& rng) {
    Sequential model;
    model.add(std::make_unique<Conv2d>(3, 8, 3, 1, 1, rng, /*bias=*/false),
              "conv1");
    model.add(std::make_unique<BatchNorm2d>(8), "bn1");
    model.add(std::make_unique<ReLU>(), "relu1");
    model.add(std::make_unique<MaxPool2d>(), "pool1");
    model.add(std::make_unique<Conv2d>(8, 12, 3, 1, 1, rng, /*bias=*/true),
              "conv2");
    model.add(std::make_unique<ReLU>(), "relu2");
    model.add(std::make_unique<MaxPool2d>(), "pool2");
    model.add(std::make_unique<Flatten>(), "flatten");
    model.add(std::make_unique<Linear>(12 * 4 * 4, 10, rng), "fc1");
    return model;
}

// Populate BN running stats so folding has non-trivial statistics.
void warm_batchnorm(Sequential& model, util::Rng& rng,
                    std::int64_t spatial = 16) {
    for (int it = 0; it < 4; ++it) {
        Tensor x({4, 3, spatial, spatial});
        tensor::fill_normal(x, rng, 0.5f, 1.5f);
        model.forward(x, /*training=*/true);
    }
}

// Allocations of a second call of `fn` made from inside a pool region:
// there every nested dispatch runs inline, so each part of fn's dispatches
// runs, and allocates, on this one worker thread. The first call warms the
// thread's own buffers.
template <class Fn>
long allocations_inline(Fn&& fn) {
    long count = -1;
    util::parallel_for(0, 2, [&](std::size_t i) {
        if (i != 0) return;
        fn();
        const long before = t_alloc_count;
        fn();
        count = t_alloc_count - before;
    });
    return count;
}

TEST(InferenceEngine, SteadyStateAllocatesNothing) {
    util::Rng rng(1);
    Sequential model = small_model(rng);
    warm_batchnorm(model, rng);
    InferenceEngine engine(model);

    Tensor x({8, 3, 16, 16});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    // Warm-up: grows arenas, shapes, im2col scratch, and pack buffers.
    engine.forward(x);
    engine.forward(x);

    const long before = t_alloc_count;
    for (int rep = 0; rep < 5; ++rep) engine.forward(x);
    EXPECT_EQ(t_alloc_count, before);
    EXPECT_EQ(allocations_inline([&] { engine.forward(x); }), 0);
}

TEST(InferenceEngine, FoldedForwardMatchesReference) {
    util::Rng rng(2);
    Sequential model = small_model(rng);
    warm_batchnorm(model, rng);
    InferenceEngine engine(model);

    Tensor x({5, 3, 16, 16});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor reference = model.forward(x, /*training=*/false);
    const Tensor& fused = engine.forward(x);
    ASSERT_EQ(fused.shape(), reference.shape());
    EXPECT_TRUE(tensor::allclose(fused, reference, 1e-4f, 1e-3f))
        << "max diff " << tensor::max_abs_diff(fused, reference);
}

TEST(InferenceEngine, VggForwardMatchesReference) {
    VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(3);
    Sequential model = build_vgg(vc, rng);
    warm_batchnorm(model, rng, /*spatial=*/32);
    InferenceEngine engine(model);

    Tensor x({4, 3, 32, 32});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor reference = model.forward(x, /*training=*/false);
    const Tensor& fused = engine.forward(x);
    ASSERT_EQ(fused.shape(), reference.shape());
    EXPECT_TRUE(tensor::allclose(fused, reference, 1e-4f, 1e-3f))
        << "max diff " << tensor::max_abs_diff(fused, reference);
}

// A layer type the engine has no step for.
class ScaleLayer : public Layer {
public:
    Tensor forward(const Tensor& x, bool /*training*/) override {
        return tensor::scale(x, 2.0f);
    }
    Tensor backward(const Tensor& dy) override { return dy; }
    std::string type() const override { return "Scale"; }
};

// Construction throws std::invalid_argument naming layer `name`.
void expect_rejected(Sequential& model, const std::string& name) {
    try {
        InferenceEngine engine(model);
        ADD_FAILURE() << "no throw; expected one naming '" << name << "'";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'" + name + "'"),
                  std::string::npos)
            << e.what();
    }
}

// The plan runs conv [+BN] [+ReLU] [+2×2 max-pool], linear [+ReLU] and
// flatten steps only. A layer that folds into none of them, and a model
// with no conv or linear layer, fail at construction, naming the layer.
TEST(InferenceEngine, RejectsLayersItCannotFuse) {
    util::Rng rng(14);
    {
        Sequential model;
        model.add(std::make_unique<ReLU>(), "relu_in");
        model.add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, rng), "conv1");
        expect_rejected(model, "relu_in");
    }
    {
        Sequential model;
        model.add(std::make_unique<Flatten>(), "flatten");
        model.add(std::make_unique<Linear>(12, 4, rng), "fc1");
        model.add(std::make_unique<BatchNorm2d>(4), "bn_fc");
        expect_rejected(model, "bn_fc");
    }
    {
        Sequential model;
        model.add(std::make_unique<MaxPool2d>(), "pool_in");
        model.add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, rng), "conv1");
        expect_rejected(model, "pool_in");
    }
    {
        Sequential model;
        model.add(std::make_unique<Conv2d>(3, 4, 3, 1, 1, rng), "conv1");
        model.add(std::make_unique<ScaleLayer>(), "scale1");
        model.add(std::make_unique<Flatten>(), "flatten");
        expect_rejected(model, "scale1");
    }
    {
        Sequential model;
        model.add(std::make_unique<Flatten>(), "flat_only");
        expect_rejected(model, "flat_only");
    }
}

// VGG11's and VGG16's conv trunks at width 0.125 (-1: a 2×2 max-pool).
const std::vector<std::int64_t> kVgg11Trunk = {8,  -1, 16, -1, 32, 32, -1,
                                               64, 64, -1, 64, 64, -1};
const std::vector<std::int64_t> kVgg16Trunk = {
    8, 8, -1, 16, 16, -1, 32, 32, 32, -1, 64, 64, 64, -1, 64, 64, 64, -1};

struct TrunkEpilogue {
    bool bn, bias, relu;
};

// The trunk up to its `pools`-th pool, whose pooled map (batch-major NCHW)
// is the output. Without `last_pool` the trunk stops just before that pool,
// so its output is the map the pool reads: the reference.
Sequential vgg_trunk(const std::vector<std::int64_t>& plan, int pools,
                     const TrunkEpilogue& ep, bool last_pool, util::Rng& rng) {
    Sequential model;
    std::int64_t in = 3;
    for (const std::int64_t entry : plan) {
        if (entry < 0) {
            if (--pools > 0 || last_pool)
                model.add(std::make_unique<MaxPool2d>());
            if (pools == 0) break;
            continue;
        }
        model.add(std::make_unique<Conv2d>(in, entry, 3, 1, 1, rng, ep.bias));
        if (ep.bn) model.add(std::make_unique<BatchNorm2d>(entry));
        if (ep.relu) model.add(std::make_unique<ReLU>());
        in = entry;
    }
    return model;
}

// Both trunks are built from one seed, so they hold the same weights, and
// get the same BN statistics and degraded instances. At each batch size,
// the one-lane forward of the engine's own instance and every lane of a
// 4-lane forward must equal the reference's output put through
// MaxPool2d::forward, bit for bit.
void expect_fused_pools_match(const std::vector<std::int64_t>& plan, int pools,
                              const TrunkEpilogue& ep, prune::Method method,
                              std::initializer_list<std::int64_t> batches) {
    util::Rng rng_a(21), rng_b(21);
    Sequential fused = vgg_trunk(plan, pools, ep, true, rng_a);
    Sequential ref = vgg_trunk(plan, pools, ep, false, rng_b);
    if (method != prune::Method::kNone) {
        prune::PruneConfig pc;
        pc.method = method;
        pc.spare_first_conv = false;
        prune::prune_at_init(fused, pc);
        prune::prune_at_init(ref, pc);
    }
    if (ep.bn) {
        util::Rng wa(22), wb(22);
        warm_batchnorm(fused, wa, 32);
        warm_batchnorm(ref, wb, 32);
    }
    InferenceEngine fused_engine(fused), ref_engine(ref);

    util::Rng rng(23);
    const auto layers = map::mappable_layers(fused);
    std::vector<std::vector<Tensor>> degraded(4);
    for (std::vector<Tensor>& lane : degraded)
        for (nn::Layer* l : layers) {
            Tensor d = map::extract_matrix(*l);
            for (std::int64_t i = 0; i < d.numel(); ++i)
                d[i] *= 0.85f + 0.3f * static_cast<float>(rng.uniform());
            lane.push_back(std::move(d));
        }
    std::vector<CompiledInstance> fused_insts(4), ref_insts(4);
    std::vector<const CompiledInstance*> fused_ptrs, ref_ptrs;
    for (std::size_t r = 0; r < 4; ++r) {
        std::vector<const Tensor*> ov;
        for (const Tensor& d : degraded[r]) ov.push_back(&d);
        fused_engine.compile_instance(ov, fused_insts[r]);
        ref_engine.compile_instance(ov, ref_insts[r]);
        fused_ptrs.push_back(&fused_insts[r]);
        ref_ptrs.push_back(&ref_insts[r]);
    }

    MaxPool2d pool;
    // Lanes are stacked along the batch dimension, so lane r of both
    // outputs is the r-th of `lanes` equal blocks.
    const auto expect_pooled = [&pool](const Tensor& got,
                                       const Tensor& unpooled,
                                       std::int64_t lanes,
                                       const std::string& what) {
        const Tensor want = pool.forward(unpooled, /*training=*/false);
        ASSERT_EQ(got.shape(), want.shape()) << what;
        const std::int64_t block = want.numel() / lanes;
        for (std::int64_t r = 0; r < lanes; ++r)
            EXPECT_EQ(std::memcmp(got.data() + r * block,
                                  want.data() + r * block,
                                  static_cast<std::size_t>(block) *
                                      sizeof(float)),
                      0)
                << what << ", lane " << r << " of " << lanes;
    };
    for (const std::int64_t batch : batches) {
        Tensor x({batch, 3, 32, 32});
        tensor::fill_normal(x, rng, 0.0f, 1.0f);
        const std::string what =
            std::to_string(plan.size()) + "-entry plan, " +
            std::to_string(pools) + " pools, " + prune::method_name(method) +
            ", bn " + std::to_string(ep.bn) + " bias " +
            std::to_string(ep.bias) + " relu " + std::to_string(ep.relu) +
            ", batch " + std::to_string(batch);
        const Tensor one = fused_engine.forward(x);
        expect_pooled(one, ref_engine.forward(x), 1, what);
        const Tensor four = fused_engine.forward_batched(
            x.data(), x.shape(), fused_ptrs.data(), 4);
        expect_pooled(four,
                      ref_engine.forward_batched(x.data(), x.shape(),
                                                 ref_ptrs.data(), 4),
                      4, what);
    }
}

TEST(InferenceEngine, FusedConvPoolIsBitIdenticalToConvThenMaxPool2dForward) {
    // Every pool of both trunks, conv + BN + ReLU + pool, dense and pruned:
    // the stem's pool (p = 1) reads the NCHW input in place, and the later
    // ones pool maps 16, 8, 4 and 2 wide. MaxPool2d::forward keeps the
    // first maximal element of each window, which is the fused pool's
    // result whenever no NaN is present (tensor/gemm.h); the epilogue's
    // numerics at every shape and batch are pinned in tensor_gemm_test.
    const TrunkEpilogue vgg{true, false, true};
    for (const prune::Method method :
         {prune::Method::kNone, prune::Method::kChannelFilter,
          prune::Method::kXbarColumn})
        for (int pools = 1; pools <= 5; ++pools) {
            expect_fused_pools_match(kVgg11Trunk, pools, vgg, method, {3});
            expect_fused_pools_match(kVgg16Trunk, pools, vgg, method, {3});
        }
    expect_fused_pools_match(kVgg11Trunk, 1, vgg, prune::Method::kNone,
                             {1, 50, 64});
    expect_fused_pools_match(kVgg11Trunk, 5, vgg, prune::Method::kNone, {50});
    // The conv's own bias, with and without ReLU, and a bare conv.
    for (const TrunkEpilogue ep : {TrunkEpilogue{false, true, true},
                                   TrunkEpilogue{false, true, false},
                                   TrunkEpilogue{false, false, false}})
        expect_fused_pools_match(kVgg11Trunk, 5, ep, prune::Method::kNone,
                                 {3});
}

// A pooled conv whose GEMM tiles would split row pairs fails, naming the
// layer, like a conv geometry the kernel does not cover; odd maps fail too.
TEST(InferenceEngine, RejectsPooledMapsTheTilesDoNotCover) {
    util::Rng rng(13);
    Sequential model;
    model.add(std::make_unique<Conv2d>(3, 8, 3, 1, 1, rng), "conv_p");
    model.add(std::make_unique<ReLU>(), "relu_p");
    model.add(std::make_unique<MaxPool2d>(), "pool_p");
    InferenceEngine engine(model);
    Tensor ok({2, 3, 8, 8});  // 128 columns: whole row pairs
    EXPECT_NO_THROW(engine.forward(ok));
    Tensor six({64, 3, 6, 6});  // 256-column slices split 12-column pairs
    try {
        engine.forward(six);
        ADD_FAILURE() << "6×6 maps at batch 64 did not throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("conv_p"), std::string::npos)
            << e.what();
    }
    Tensor odd({1, 3, 5, 6});
    EXPECT_THROW(engine.forward(odd), std::invalid_argument);
}

// A batch-major input whose H·W (5×5) is not a multiple of the 16-column
// panel cannot be read in place: the engine copies it to channel-major
// first, once, while the lanes share the input.
TEST(InferenceEngine, NchwInputOffThePanelGridMatchesReference) {
    util::Rng rng(10);
    Sequential model;
    model.add(std::make_unique<Conv2d>(3, 6, 3, 1, 1, rng), "conv1");
    model.add(std::make_unique<ReLU>(), "relu1");
    model.add(std::make_unique<Conv2d>(6, 4, 1, 1, 0, rng), "conv2");
    model.add(std::make_unique<Flatten>(), "flatten");
    model.add(std::make_unique<Linear>(4 * 5 * 5, 3, rng), "fc1");
    InferenceEngine engine(model);

    Tensor x({3, 3, 5, 5});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor reference = model.forward(x, /*training=*/false);
    const Tensor fused = engine.forward(x);
    ASSERT_EQ(fused.shape(), reference.shape());
    EXPECT_TRUE(tensor::allclose(fused, reference, 1e-4f, 1e-3f))
        << "max diff " << tensor::max_abs_diff(fused, reference);

    CompiledInstance inst;
    engine.compile_instance({}, inst);
    const CompiledInstance* ptrs[2] = {&inst, &inst};
    const Tensor& got = engine.forward_batched(x.data(), x.shape(), ptrs, 2);
    ASSERT_EQ(got.numel(), 2 * fused.numel());
    for (std::int64_t i = 0; i < fused.numel(); ++i) {
        ASSERT_EQ(got[i], fused[i]) << "lane 0 element " << i;
        ASSERT_EQ(got[fused.numel() + i], fused[i]) << "lane 1 element " << i;
    }
}

// The conv step covers stride-1 "same" convolutions only; any other conv
// fails at plan time, naming the layer, rather than running a fallback.
TEST(InferenceEngine, RejectsConvGeometryTheKernelDoesNotCover) {
    util::Rng rng(11);
    Sequential strided;
    strided.add(std::make_unique<Conv2d>(3, 4, 3, 2, 1, rng), "conv_s2");
    EXPECT_THROW(InferenceEngine engine(strided), std::invalid_argument);
    try {
        InferenceEngine engine(strided);
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("conv_s2"), std::string::npos)
            << e.what();
    }
    Sequential valid_pad;
    valid_pad.add(std::make_unique<Conv2d>(3, 4, 3, 1, 0, rng), "conv_p0");
    EXPECT_THROW(InferenceEngine engine(valid_pad), std::invalid_argument);
}

TEST(InferenceEngine, MacOverridesMatchInjectedWeights) {
    util::Rng rng(5);
    Sequential model = small_model(rng);
    warm_batchnorm(model, rng);

    Tensor x({3, 3, 16, 16});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);

    // Perturbed MAC matrices standing in for degraded crossbar weights W′.
    const auto layers = map::mappable_layers(model);
    std::vector<Tensor> originals, degraded;
    for (nn::Layer* l : layers) {
        originals.push_back(map::extract_matrix(*l));
        Tensor d = originals.back();
        for (std::int64_t i = 0; i < d.numel(); ++i)
            d[i] *= 0.9f + 0.2f * static_cast<float>(rng.uniform());
        degraded.push_back(std::move(d));
    }

    // Path A (seed semantics): inject W′ into the model, forward, restore.
    for (std::size_t i = 0; i < layers.size(); ++i)
        map::inject_matrix(*layers[i], degraded[i]);
    InferenceEngine injected(model);
    const Tensor via_inject = injected.forward(x);
    for (std::size_t i = 0; i < layers.size(); ++i)
        map::inject_matrix(*layers[i], originals[i]);

    // Path B: the model keeps its weights; W′ arrives as MAC overrides
    // compiled into an instance.
    InferenceEngine engine(model);
    std::vector<const Tensor*> overrides;
    for (const Tensor& d : degraded) overrides.push_back(&d);
    ASSERT_EQ(engine.mappable_count(), overrides.size());
    CompiledInstance inst;
    engine.compile_instance(overrides, inst);
    const CompiledInstance* lane = &inst;
    const Tensor via_override =
        engine.forward_batched(x.data(), x.shape(), &lane, 1);

    EXPECT_TRUE(tensor::allclose(via_override, via_inject, 1e-5f, 1e-4f))
        << "max diff " << tensor::max_abs_diff(via_override, via_inject);

    // And the engine's own instance still holds the clean weights.
    const Tensor reference = model.forward(x, /*training=*/false);
    EXPECT_TRUE(tensor::allclose(engine.forward(x), reference, 1e-4f, 1e-3f));
}

// Lane r of a multi-lane forward_batched must be bit-identical to a
// one-lane pass of instance r — the contract that makes a repeat's result
// independent of its lane group, and so sweep CSVs independent of grouping.
TEST(InferenceEngine, BatchedForwardMatchesSingleLanePerInstanceBitExact) {
    util::Rng rng(7);
    Sequential model = small_model(rng);
    warm_batchnorm(model, rng);
    InferenceEngine engine(model);

    Tensor x({6, 3, 16, 16});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);

    const auto layers = map::mappable_layers(model);
    const std::size_t lanes = 3;
    std::vector<std::vector<Tensor>> degraded(lanes);
    for (std::size_t r = 0; r < lanes; ++r)
        for (nn::Layer* l : layers) {
            Tensor d = map::extract_matrix(*l);
            for (std::int64_t i = 0; i < d.numel(); ++i)
                d[i] *= 0.85f + 0.3f * static_cast<float>(rng.uniform());
            degraded[r].push_back(std::move(d));
        }

    std::vector<CompiledInstance> insts(lanes);
    std::vector<const CompiledInstance*> ptrs;
    for (std::size_t r = 0; r < lanes; ++r) {
        std::vector<const Tensor*> ov;
        for (const Tensor& d : degraded[r]) ov.push_back(&d);
        engine.compile_instance(ov, insts[r]);
        ptrs.push_back(&insts[r]);
    }

    const Tensor& stacked =
        engine.forward_batched(x.data(), x.shape(), ptrs.data(), lanes);
    ASSERT_EQ(stacked.dim(0), static_cast<std::int64_t>(lanes) * x.dim(0));
    // Copy out: the next forward reuses the engine's output buffer.
    const Tensor got = stacked;

    const std::int64_t block = got.numel() / static_cast<std::int64_t>(lanes);
    for (std::size_t r = 0; r < lanes; ++r) {
        const Tensor& ref =
            engine.forward_batched(x.data(), x.shape(), &ptrs[r], 1);
        ASSERT_EQ(ref.numel(), block);
        const float* gp = got.data() + static_cast<std::int64_t>(r) * block;
        for (std::int64_t i = 0; i < block; ++i)
            ASSERT_EQ(gp[i], ref[i]) << "lane " << r << " element " << i;
    }
}

TEST(InferenceEngine, BatchedForwardSteadyStateAllocatesNothing) {
    util::Rng rng(9);
    Sequential model = small_model(rng);
    warm_batchnorm(model, rng);
    InferenceEngine engine(model);

    Tensor x({8, 3, 16, 16});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);

    std::vector<CompiledInstance> insts(4);
    std::vector<const CompiledInstance*> ptrs;
    for (auto& inst : insts) {
        engine.compile_instance({}, inst);
        ptrs.push_back(&inst);
    }

    // Warm-up grows the batch arenas and pack scratch.
    engine.forward_batched(x.data(), x.shape(), ptrs.data(), ptrs.size());
    engine.forward_batched(x.data(), x.shape(), ptrs.data(), ptrs.size());

    const long before = t_alloc_count;
    for (int rep = 0; rep < 5; ++rep)
        engine.forward_batched(x.data(), x.shape(), ptrs.data(), ptrs.size());
    // Recompiling an already-shaped instance must also be allocation-free.
    for (std::size_t slot = 0; slot < engine.mappable_count(); ++slot)
        engine.compile_instance_slot(slot, nullptr, insts[0]);
    EXPECT_EQ(t_alloc_count, before);
    EXPECT_EQ(allocations_inline([&] {
                  engine.forward_batched(x.data(), x.shape(), ptrs.data(),
                                         ptrs.size());
                  for (std::size_t slot = 0; slot < engine.mappable_count(); ++slot)
                      engine.compile_instance_slot(slot, nullptr, insts[0]);
              }),
              0);
}

TEST(InferenceEngine, RepeatedEvaluationsAreDeterministic) {
    VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(6);
    Sequential model = build_vgg(vc, rng);

    Dataset test;
    test.num_classes = 10;
    test.images = Tensor({12, 3, 32, 32});
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.resize(12);
    for (std::size_t i = 0; i < 12; ++i)
        test.labels[i] = static_cast<std::int64_t>(i % 10);

    core::EvalConfig config;
    config.xbar.size = 32;
    config.repeats = 3;
    const core::EvalResult a = core::evaluate_on_crossbars(model, test, config);
    const core::EvalResult b = core::evaluate_on_crossbars(model, test, config);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.nf_mean, b.nf_mean);
    EXPECT_EQ(a.total_tiles, b.total_tiles);
}

}  // namespace
}  // namespace xs::nn
