#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "nn/model_io.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

namespace xs::nn {
namespace {

using tensor::Tensor;

// A linearly separable 2-class toy problem on 8-dim inputs.
Dataset toy_dataset(std::int64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    Dataset d;
    d.num_classes = 2;
    d.images = Tensor({n, 8});
    d.labels.resize(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t label = static_cast<std::int64_t>(rng.uniform_index(2));
        d.labels[static_cast<std::size_t>(i)] = label;
        for (std::int64_t j = 0; j < 8; ++j)
            d.images[i * 8 + j] = static_cast<float>(
                rng.normal(label == 0 ? -1.0 : 1.0, 0.6));
    }
    return d;
}

Sequential toy_model(std::uint64_t seed) {
    util::Rng rng(seed);
    Sequential m;
    m.add(std::make_unique<Linear>(8, 16, rng), "fc1");
    m.add(std::make_unique<ReLU>(), "relu1");
    m.add(std::make_unique<Linear>(16, 2, rng), "fc2");
    return m;
}

// Small helper so tests read naturally while using the library's train().
std::vector<EpochStats> train_(Sequential& model, const Dataset& tr,
                               const Dataset& te, const TrainConfig& config,
                               const StepHook& hook = {}) {
    return train(model, tr, &te, config, hook);
}

TEST(Trainer, AdamLearnsToySeparation) {
    Sequential model = toy_model(1);
    const Dataset train = toy_dataset(256, 2), test = toy_dataset(128, 3);
    TrainConfig config;
    config.epochs = 8;
    config.batch_size = 16;
    const auto history = train_(model, train, test, config);
    EXPECT_GT(history.back().test_acc, 90.0);
    EXPECT_LT(history.back().train_loss, history.front().train_loss);
}

TEST(Trainer, HookRunsEveryStepAndAtInit) {
    Sequential model = toy_model(7);
    const Dataset train_data = toy_dataset(64, 8);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 16;
    int calls = 0;
    train(model, train_data, nullptr, config, [&calls](Sequential&) { ++calls; });
    // 64/16 = 4 steps × 2 epochs + 1 initial application.
    EXPECT_EQ(calls, 9);
}

TEST(Trainer, DeterministicGivenSeed) {
    Sequential m1 = toy_model(10), m2 = toy_model(10);
    const Dataset train_data = toy_dataset(128, 11);
    TrainConfig config;
    config.epochs = 2;
    train(m1, train_data, nullptr, config);
    train(m2, train_data, nullptr, config);
    const auto p1 = m1.params(), p2 = m2.params();
    for (std::size_t i = 0; i < p1.size(); ++i)
        EXPECT_TRUE(tensor::allclose(p1[i]->value, p2[i]->value, 0.0f, 0.0f));
}

TEST(Trainer, EvaluateCountsTop1) {
    Sequential model = toy_model(12);
    const Dataset test = toy_dataset(64, 13);
    const double acc = evaluate(model, test);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 100.0);
}

TEST(Vgg, BuildsAndRunsForward) {
    VggConfig config;
    config.width = 0.0625;  // minimal channels
    util::Rng rng(14);
    Sequential model = build_vgg(config, rng);
    Tensor x({2, 3, 32, 32});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor y = model.forward(x, false);
    EXPECT_EQ(y.shape(), (tensor::Shape{2, 10}));
}

TEST(Vgg, Vgg16HasThirteenConvs) {
    VggConfig config;
    config.variant = "vgg16";
    config.width = 0.0625;
    EXPECT_EQ(vgg_conv_names(config).size(), 13u);
    EXPECT_EQ(vgg_channels(config).size(), 13u);
}

TEST(Vgg, Vgg11HasEightConvs) {
    VggConfig config;
    EXPECT_EQ(vgg_conv_names(config).size(), 8u);
}

TEST(Vgg, WidthScalesChannels) {
    VggConfig half;
    half.width = 0.5;
    half.min_channels = 1;
    const auto c = vgg_channels(half);
    EXPECT_EQ(c.front(), 32);  // 64 × 0.5
    EXPECT_EQ(c.back(), 256);  // 512 × 0.5
}

TEST(Vgg, MinChannelsFloor) {
    VggConfig tiny;
    tiny.width = 0.01;
    tiny.min_channels = 8;
    for (const auto c : vgg_channels(tiny)) EXPECT_GE(c, 8);
}

TEST(Vgg, UnknownVariantThrows) {
    VggConfig bad;
    bad.variant = "vgg19";
    util::Rng rng(15);
    EXPECT_THROW(build_vgg(bad, rng), std::invalid_argument);
}

TEST(ModelIo, SaveLoadRoundTrip) {
    VggConfig config;
    config.width = 0.0625;
    util::Rng rng(16);
    Sequential a = build_vgg(config, rng);

    const std::string path = testing::TempDir() + "/xs_model_test.bin";
    save_model(a, path);

    util::Rng rng2(17);  // different init
    Sequential b = build_vgg(config, rng2);
    ASSERT_TRUE(load_model(b, path));

    Tensor x({1, 3, 32, 32});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor ya = a.forward(x, false);
    const Tensor yb = b.forward(x, false);
    EXPECT_TRUE(tensor::allclose(ya, yb, 1e-6f, 1e-6f));
    std::remove(path.c_str());
}

TEST(ModelIo, MissingFileReturnsFalse) {
    VggConfig config;
    config.width = 0.0625;
    util::Rng rng(18);
    Sequential m = build_vgg(config, rng);
    EXPECT_FALSE(load_model(m, "/nonexistent/path/model.bin"));
}

TEST(Optimizer, AdamStepsTowardMinimum) {
    // Minimize (w-3)² with gradient 2(w-3).
    Param p("w", Tensor({1}, 0.0f));
    Adam adam({&p}, 0.1f);
    for (int i = 0; i < 200; ++i) {
        p.grad[0] = 2.0f * (p.value[0] - 3.0f);
        adam.step();
    }
    EXPECT_NEAR(p.value[0], 3.0f, 0.1f);
}

// Adam's weight decay is decoupled (AdamW): with a zero gradient the
// moment term vanishes and a step shrinks w by exactly lr·wd·w.
TEST(Optimizer, WeightDecayShrinksWeights) {
    Param p("w", Tensor({1}, 1.0f));
    p.grad[0] = 0.0f;
    Adam adam({&p}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.5f);
    adam.step();
    EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
    adam.step();
    EXPECT_FLOAT_EQ(p.value[0], (1.0f - 0.1f * 0.5f) * (1.0f - 0.1f * 0.5f));
}

}  // namespace
}  // namespace xs::nn
