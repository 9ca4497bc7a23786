#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xs::nn {
namespace {

using tensor::Tensor;

TEST(Conv2d, ForwardMatchesDirectConvolution) {
    util::Rng rng(1);
    Conv2d conv(2, 3, 3, 1, 1, rng, /*bias=*/true);
    Tensor x({1, 2, 5, 5});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor y = conv.forward(x, false);
    ASSERT_EQ(y.shape(), (tensor::Shape{1, 3, 5, 5}));

    // Direct reference at a few positions.
    const Tensor& w = conv.weight().value;
    for (const auto& [f, oi, oj] : {std::tuple{0L, 0L, 0L}, {1L, 2L, 3L}, {2L, 4L, 4L}}) {
        double acc = conv.bias().value[f];
        for (std::int64_t c = 0; c < 2; ++c)
            for (std::int64_t ki = 0; ki < 3; ++ki)
                for (std::int64_t kj = 0; kj < 3; ++kj) {
                    const std::int64_t ii = oi - 1 + ki, jj = oj - 1 + kj;
                    if (ii < 0 || ii >= 5 || jj < 0 || jj >= 5) continue;
                    acc += static_cast<double>(w.at(f, c, ki, kj)) *
                           x.at(0, c, ii, jj);
                }
        EXPECT_NEAR(y.at(0, f, oi, oj), acc, 1e-4);
    }
}

TEST(Conv2d, BatchIndependence) {
    // Each image in a batch must be processed independently.
    util::Rng rng(2);
    Conv2d conv(1, 2, 3, 1, 1, rng);
    Tensor x2({2, 1, 4, 4});
    tensor::fill_normal(x2, rng, 0.0f, 1.0f);
    const Tensor y2 = conv.forward(x2, false);

    Tensor x1({1, 1, 4, 4});
    for (std::int64_t i = 0; i < 16; ++i) x1[i] = x2[16 + i];
    const Tensor y1 = conv.forward(x1, false);
    for (std::int64_t i = 0; i < y1.numel(); ++i)
        EXPECT_FLOAT_EQ(y1[i], y2[y1.numel() + i]);
}

TEST(Linear, ForwardIsAffine) {
    util::Rng rng(3);
    Linear fc(4, 3, rng);
    Tensor x({2, 4});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor y = fc.forward(x, false);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t o = 0; o < 3; ++o) {
            double acc = fc.bias().value[o];
            for (std::int64_t j = 0; j < 4; ++j)
                acc += static_cast<double>(fc.weight().value.at(o, j)) * x.at(i, j);
            EXPECT_NEAR(y.at(i, o), acc, 1e-5);
        }
}

TEST(ReLU, ClampsNegatives) {
    ReLU relu;
    Tensor x({4});
    x[0] = -1.0f;
    x[1] = 0.0f;
    x[2] = 2.0f;
    x[3] = -0.5f;
    const Tensor y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(MaxPool2d, PicksMaxima) {
    MaxPool2d pool;
    Tensor x({1, 1, 4, 4});
    for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
    const Tensor y = pool.forward(x, false);
    ASSERT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
    EXPECT_FLOAT_EQ(y[2], 13.0f);
    EXPECT_FLOAT_EQ(y[3], 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
    MaxPool2d pool;
    Tensor x({1, 1, 2, 2});
    x[0] = 1.0f;
    x[1] = 4.0f;
    x[2] = 2.0f;
    x[3] = 3.0f;
    pool.forward(x, true);
    Tensor dy({1, 1, 1, 1}, 1.0f);
    const Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
    EXPECT_FLOAT_EQ(dx[1], 1.0f);
    EXPECT_FLOAT_EQ(dx[2], 0.0f);
    EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
    BatchNorm2d bn(2);
    util::Rng rng(5);
    Tensor x({8, 2, 4, 4});
    tensor::fill_normal(x, rng, 3.0f, 2.0f);
    const Tensor y = bn.forward(x, true);
    // Per-channel mean ≈ 0, var ≈ 1 after normalization (gamma=1, beta=0).
    for (std::int64_t c = 0; c < 2; ++c) {
        double sum = 0.0, sq = 0.0;
        std::int64_t count = 0;
        for (std::int64_t i = 0; i < 8; ++i)
            for (std::int64_t q = 0; q < 16; ++q) {
                const double v = y[(i * 2 + c) * 16 + q];
                sum += v;
                sq += v * v;
                ++count;
            }
        const double mean = sum / count;
        EXPECT_NEAR(mean, 0.0, 1e-3);
        EXPECT_NEAR(sq / count - mean * mean, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, InferenceUsesRunningStats) {
    BatchNorm2d bn(1);
    util::Rng rng(6);
    // Train forward a few times to populate running stats.
    for (int it = 0; it < 20; ++it) {
        Tensor x({4, 1, 2, 2});
        tensor::fill_normal(x, rng, 1.0f, 0.5f);
        bn.forward(x, true);
    }
    // In eval mode an input equal to the running mean maps near beta (0).
    Tensor probe({1, 1, 2, 2}, bn.running_mean()[0]);
    const Tensor y = bn.forward(probe, false);
    EXPECT_NEAR(y[0], 0.0f, 1e-2f);
}

TEST(Flatten, RoundTrip) {
    Flatten flat;
    Tensor x({2, 3, 4, 5});
    util::Rng rng(7);
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor y = flat.forward(x, false);
    ASSERT_EQ(y.shape(), (tensor::Shape{2, 60}));
    const Tensor back = flat.backward(y);
    EXPECT_TRUE(tensor::allclose(back, x, 0.0f, 0.0f));
}

TEST(Softmax, RowsSumToOne) {
    util::Rng rng(10);
    Tensor logits({4, 7});
    tensor::fill_normal(logits, rng, 0.0f, 3.0f);
    const Tensor p = softmax(logits);
    for (std::int64_t i = 0; i < 4; ++i) {
        double s = 0.0;
        for (std::int64_t j = 0; j < 7; ++j) {
            EXPECT_GE(p.at(i, j), 0.0f);
            s += p.at(i, j);
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Loss, CrossEntropyUniformBaseline) {
    Tensor logits({2, 10}, 0.0f);
    const LossResult r = softmax_cross_entropy(logits, {3, 7});
    EXPECT_NEAR(r.loss, std::log(10.0), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow) {
    util::Rng rng(11);
    Tensor logits({3, 5});
    tensor::fill_normal(logits, rng, 0.0f, 2.0f);
    const LossResult r = softmax_cross_entropy(logits, {0, 2, 4});
    for (std::int64_t i = 0; i < 3; ++i) {
        double s = 0.0;
        for (std::int64_t j = 0; j < 5; ++j) s += r.grad.at(i, j);
        EXPECT_NEAR(s, 0.0, 1e-6);
    }
}

TEST(Loss, CountsCorrect) {
    Tensor logits({2, 3}, 0.0f);
    logits.at(0, 1) = 5.0f;  // predicts 1
    logits.at(1, 0) = 5.0f;  // predicts 0
    const LossResult r = softmax_cross_entropy(logits, {1, 2});
    EXPECT_EQ(r.correct, 1);
}

TEST(Sequential, NamesAndLookup) {
    util::Rng rng(12);
    Sequential model;
    model.add(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng), "conv1");
    model.add(std::make_unique<ReLU>());
    EXPECT_NE(model.find("conv1"), nullptr);
    EXPECT_EQ(model.find("nope"), nullptr);
    EXPECT_EQ(model.layer(0).name(), "conv1");
    EXPECT_EQ(model.size(), 2u);
}

TEST(Sequential, DuplicateNameThrows) {
    util::Rng rng(13);
    Sequential model;
    model.add(std::make_unique<ReLU>(), "r");
    EXPECT_THROW(model.add(std::make_unique<ReLU>(), "r"), std::invalid_argument);
}

TEST(Sequential, NamedParamsQualified) {
    util::Rng rng(14);
    Sequential model;
    model.add(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng, false), "conv1");
    model.add(std::make_unique<Linear>(8, 4, rng), "fc1");
    const auto named = model.named_params();
    ASSERT_EQ(named.size(), 3u);
    EXPECT_EQ(named[0].qualified_name, "conv1.weight");
    EXPECT_EQ(named[1].qualified_name, "fc1.weight");
    EXPECT_EQ(named[2].qualified_name, "fc1.bias");
}

}  // namespace
}  // namespace xs::nn
