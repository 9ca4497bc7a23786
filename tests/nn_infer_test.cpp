// Inference-engine pins (DESIGN.md §6):
//  * steady-state forwards allocate nothing (counting operator new);
//  * the folded/fused path matches the reference layer-by-layer forward;
//  * MAC-matrix overrides match inject_matrix semantics;
//  * a lane of a batched forward is bit-identical to a one-lane pass;
//  * evaluate_on_crossbars stays deterministic under the overlapped
//    repeat pipeline.
#include "core/evaluator.h"
#include "map/matrix_view.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/infer.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

namespace {

// Per-thread allocation counter. Worker threads grow thread-local GEMM pack
// buffers on first contact with a layer, and the pool's part→thread claim
// order is nondeterministic — so a global count would be flaky by design.
// Every engine-owned allocation (arenas, shapes, scratch growth, dispatch)
// happens on the calling thread, which is exactly what this pins. With a
// single-core pool everything runs inline and the pin covers the whole path.
thread_local long t_alloc_count = 0;

}  // namespace

void* operator new(std::size_t size) {
    ++t_alloc_count;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

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

namespace xs::nn {
namespace {

using tensor::Tensor;

// Covers every fused/specialized step kind: conv+BN+ReLU (fused triple),
// conv with bias and no BN, max/avg pooling, dropout (skipped), flatten,
// and a fused linear classifier.
Sequential small_model(util::Rng& rng) {
    Sequential model;
    model.add(std::make_unique<Conv2d>(3, 8, 3, 1, 1, rng, /*bias=*/false),
              "conv1");
    model.add(std::make_unique<BatchNorm2d>(8), "bn1");
    model.add(std::make_unique<ReLU>(), "relu1");
    model.add(std::make_unique<MaxPool2d>(2), "pool1");
    model.add(std::make_unique<Conv2d>(8, 12, 3, 1, 1, rng, /*bias=*/true),
              "conv2");
    model.add(std::make_unique<ReLU>(), "relu2");
    model.add(std::make_unique<AvgPool2d>(2), "pool2");
    model.add(std::make_unique<Dropout>(0.5f, rng), "drop1");
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
    vc.classifier_dropout = 0.3f;  // exercises the dropout skip
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

// A layer type the engine has no specialized step for: must route through
// the generic Layer::forward fallback with identical results.
class ScaleLayer : public Layer {
public:
    Tensor forward(const Tensor& x, bool /*training*/) override {
        return tensor::scale(x, 2.0f);
    }
    Tensor backward(const Tensor& dy) override { return dy; }
    std::string type() const override { return "Scale"; }
};

TEST(InferenceEngine, GenericFallbackMatchesReference) {
    util::Rng rng(4);
    Sequential model;
    model.add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng), "conv1");
    model.add(std::make_unique<ScaleLayer>(), "scale1");
    model.add(std::make_unique<ReLU>(), "relu1");
    model.add(std::make_unique<Flatten>(), "flatten");
    model.add(std::make_unique<Linear>(4 * 8 * 8, 3, rng), "fc1");
    InferenceEngine engine(model);

    Tensor x({2, 2, 8, 8});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor reference = model.forward(x, /*training=*/false);
    const Tensor& fused = engine.forward(x);
    ASSERT_EQ(fused.shape(), reference.shape());
    EXPECT_TRUE(tensor::allclose(fused, reference, 1e-4f, 1e-3f));
}

// A batch-major input whose H·W (5×5) is not a multiple of the 16-column
// panel cannot be read in place: the engine copies it to channel-major
// first — once while the lanes share the input, per lane after a weightless
// prefix step (the leading ReLU) has given each lane its own block.
TEST(InferenceEngine, NchwInputOffThePanelGridMatchesReference) {
    for (const bool relu_first : {false, true}) {
        util::Rng rng(10);
        Sequential model;
        if (relu_first) model.add(std::make_unique<ReLU>(), "relu0");
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
            << "relu_first " << relu_first << " max diff "
            << tensor::max_abs_diff(fused, reference);

        CompiledInstance inst;
        engine.compile_instance({}, inst);
        const CompiledInstance* ptrs[2] = {&inst, &inst};
        const Tensor& got =
            engine.forward_batched(x.data(), x.shape(), ptrs, 2);
        ASSERT_EQ(got.numel(), 2 * fused.numel());
        for (std::int64_t i = 0; i < fused.numel(); ++i) {
            ASSERT_EQ(got[i], fused[i]) << "lane 0 element " << i;
            ASSERT_EQ(got[fused.numel() + i], fused[i])
                << "lane 1 element " << i;
        }
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

TEST(InferenceEngine, BatchedForwardGenericFallbackMatchesForward) {
    util::Rng rng(8);
    Sequential model;
    model.add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng), "conv1");
    model.add(std::make_unique<ScaleLayer>(), "scale1");
    model.add(std::make_unique<ReLU>(), "relu1");
    model.add(std::make_unique<Flatten>(), "flatten");
    model.add(std::make_unique<Linear>(4 * 8 * 8, 3, rng), "fc1");
    InferenceEngine engine(model);

    Tensor x({2, 2, 8, 8});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);

    CompiledInstance inst;
    engine.compile_instance({}, inst);
    const CompiledInstance* ptrs[2] = {&inst, &inst};
    const Tensor got = engine.forward_batched(x.data(), x.shape(), ptrs, 2);
    const Tensor& ref = engine.forward(x);
    ASSERT_EQ(got.numel(), 2 * ref.numel());
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "lane 0 element " << i;
        ASSERT_EQ(got[ref.numel() + i], ref[i]) << "lane 1 element " << i;
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
}

TEST(InferenceEngine, OverlappedRepeatsAreDeterministic) {
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
