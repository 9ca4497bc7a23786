// Finite-difference gradient checks for every trainable layer. Each check
// builds a scalar loss L = Σ y·G (fixed random G), compares the analytic
// dL/dθ from backward() against central differences.
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xs::nn {
namespace {

using tensor::Tensor;

// Scalar loss: L(y) = Σ_i y_i · g_i.
double loss_of(const Tensor& y, const Tensor& g) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i)
        acc += static_cast<double>(y[i]) * g[i];
    return acc;
}

// Check dL/dx and dL/dparams of `layer` at input x under training mode.
void grad_check(Layer& layer, Tensor x, double tol = 2e-2) {
    util::Rng rng(99);
    Tensor y = layer.forward(x, true);
    Tensor g(y.shape());
    tensor::fill_normal(g, rng, 0.0f, 1.0f);

    for (Param* p : layer.params()) p->zero_grad();
    const Tensor dx = layer.backward(g);

    const float eps = 1e-3f;

    // Input gradient.
    for (std::int64_t i = 0; i < std::min<std::int64_t>(x.numel(), 40); ++i) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double lp = loss_of(layer.forward(xp, true), g);
        const double lm = loss_of(layer.forward(xm, true), g);
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(dx[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
            << "input grad mismatch at " << i;
    }

    // Parameter gradients. (Re-run forward at the original x so cached state
    // matches; perturb one parameter entry at a time.)
    for (Param* p : layer.params()) {
        for (std::int64_t i = 0; i < std::min<std::int64_t>(p->value.numel(), 30);
             ++i) {
            const float saved = p->value[i];
            p->value[i] = saved + eps;
            const double lp = loss_of(layer.forward(x, true), g);
            p->value[i] = saved - eps;
            const double lm = loss_of(layer.forward(x, true), g);
            p->value[i] = saved;
            const double numeric = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(p->grad[i], numeric,
                        tol * std::max(1.0, std::fabs(numeric)))
                << "param '" << p->name << "' grad mismatch at " << i;
        }
    }
}

TEST(GradCheck, Conv2dWithBias) {
    util::Rng rng(1);
    Conv2d conv(2, 3, 3, 1, 1, rng, true);
    Tensor x({2, 2, 4, 4});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    grad_check(conv, x);
}

TEST(GradCheck, Conv2dNoBiasStride2) {
    util::Rng rng(2);
    Conv2d conv(1, 2, 3, 2, 1, rng, false);
    Tensor x({1, 1, 6, 6});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    grad_check(conv, x);
}

TEST(GradCheck, Conv2d1x1) {
    util::Rng rng(3);
    Conv2d conv(3, 2, 1, 1, 0, rng, true);
    Tensor x({2, 3, 3, 3});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    grad_check(conv, x);
}

TEST(GradCheck, Linear) {
    util::Rng rng(4);
    Linear fc(6, 4, rng);
    Tensor x({3, 6});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    grad_check(fc, x);
}

TEST(GradCheck, LinearNoBias) {
    util::Rng rng(5);
    Linear fc(5, 2, rng, false);
    Tensor x({2, 5});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    grad_check(fc, x);
}

TEST(GradCheck, ReLU) {
    util::Rng rng(6);
    ReLU relu;
    Tensor x({3, 7});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    // Keep entries away from the kink where finite differences break.
    for (std::int64_t i = 0; i < x.numel(); ++i)
        if (std::fabs(x[i]) < 0.05f) x[i] = 0.2f;
    grad_check(relu, x);
}

TEST(GradCheck, MaxPool) {
    util::Rng rng(7);
    MaxPool2d pool;
    Tensor x({1, 2, 4, 4});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    grad_check(pool, x);
}

TEST(GradCheck, BatchNorm) {
    util::Rng rng(9);
    BatchNorm2d bn(2);
    // Non-trivial gamma/beta so their gradients are exercised meaningfully.
    bn.gamma().value[0] = 1.3f;
    bn.gamma().value[1] = 0.8f;
    bn.beta().value[0] = -0.2f;
    bn.beta().value[1] = 0.4f;
    Tensor x({4, 2, 3, 3});
    tensor::fill_normal(x, rng, 0.5f, 1.5f);
    grad_check(bn, x, 4e-2);
}

}  // namespace
}  // namespace xs::nn
