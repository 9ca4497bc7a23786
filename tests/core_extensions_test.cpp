// Tests for the evaluator extensions: write quantization, stuck-at faults,
// column compensation, and the unstructured pruning baseline.
#include "core/evaluator.h"
#include "nn/conv2d.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "prune/stats.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xs::core {
namespace {

using tensor::Tensor;

Tensor random_matrix(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
    util::Rng rng(seed);
    Tensor m({rows, cols});
    tensor::fill_normal(m, rng, 0.0f, 0.1f);
    return m;
}

TEST(Compensation, RestoresColumnSumsExactly) {
    // The digital per-column gain restores each column's calibration-point
    // current, so in weight space every column sum must match the original.
    const Tensor m = random_matrix(32, 32, 1);
    EvalConfig config;
    config.xbar.size = 32;
    config.xbar.device.sigma_variation = 0.0;
    config.compensate_columns = true;

    DegradeStats stats;
    util::Rng rng(2);
    const Tensor out = degrade_mac_matrix(m, config, 0.4, rng, stats);
    for (std::int64_t j = 0; j < 32; ++j) {
        double before = 0.0, after = 0.0;
        for (std::int64_t i = 0; i < 32; ++i) {
            before += m.at(i, j);
            after += out.at(i, j);
        }
        EXPECT_NEAR(after, before, std::fabs(before) * 1e-3 + 1e-5) << "col " << j;
    }
}

TEST(Compensation, ReducesWeightError) {
    const Tensor m = random_matrix(64, 64, 3);
    EvalConfig config;
    config.xbar.size = 64;
    config.xbar.device.sigma_variation = 0.0;

    DegradeStats s1, s2;
    util::Rng r1(4), r2(4);
    const Tensor plain = degrade_mac_matrix(m, config, 0.4, r1, s1);
    config.compensate_columns = true;
    const Tensor comp = degrade_mac_matrix(m, config, 0.4, r2, s2);

    double err_plain = 0.0, err_comp = 0.0;
    for (std::int64_t i = 0; i < m.numel(); ++i) {
        err_plain += std::fabs(plain[i] - m[i]);
        err_comp += std::fabs(comp[i] - m[i]);
    }
    EXPECT_LT(err_comp, err_plain);
}

TEST(Quantization, CoarseLevelsIncreaseWeightError) {
    const Tensor m = random_matrix(32, 32, 5);
    EvalConfig config;
    config.xbar.size = 32;
    config.backend = xbar::BackendKind::kIdeal;
    config.xbar.device.sigma_variation = 0.0;

    auto error_with_levels = [&](std::int64_t levels) {
        EvalConfig c = config;
        c.conductance_levels = levels;
        DegradeStats stats;
        util::Rng rng(6);
        const Tensor out = degrade_mac_matrix(m, c, 0.4, rng, stats);
        double err = 0.0;
        for (std::int64_t i = 0; i < m.numel(); ++i)
            err += std::fabs(out[i] - m[i]);
        return err;
    };
    const double err4 = error_with_levels(16);    // 4-bit
    const double err8 = error_with_levels(256);   // 8-bit
    EXPECT_GT(err4, err8);
    EXPECT_GT(err4, 0.0);
}

TEST(Quantization, ManyLevelsApproachContinuous) {
    const Tensor m = random_matrix(16, 16, 7);
    EvalConfig config;
    config.xbar.size = 16;
    config.backend = xbar::BackendKind::kIdeal;
    config.xbar.device.sigma_variation = 0.0;
    config.conductance_levels = 1 << 14;

    DegradeStats stats;
    util::Rng rng(8);
    const Tensor out = degrade_mac_matrix(m, config, 0.4, rng, stats);
    EXPECT_TRUE(tensor::allclose(out, m, 1e-3f, 1e-2f));
}

TEST(Faults, DegradeWithFaultsPerturbsWeights) {
    const Tensor m = random_matrix(32, 32, 9);
    EvalConfig config;
    config.xbar.size = 32;
    config.backend = xbar::BackendKind::kIdeal;
    config.xbar.device.sigma_variation = 0.0;
    config.faults.p_stuck_max = 0.05;

    DegradeStats stats;
    util::Rng rng(10);
    const Tensor out = degrade_mac_matrix(m, config, 0.4, rng, stats);
    // Stuck-at-G_MAX devices create large positive/negative weight errors.
    EXPECT_GT(tensor::max_abs_diff(out, m), 0.1f);
}

TEST(Unstructured, ElementSparsityMatches) {
    nn::VggConfig vc;
    vc.width = 0.125;
    util::Rng rng(11);
    nn::Sequential model = nn::build_vgg(vc, rng);
    prune::PruneConfig pc;
    pc.method = prune::Method::kUnstructured;
    pc.sparsity = 0.7;
    prune::prune_at_init(model, pc);

    const auto stats = prune::layer_sparsity(model);
    // Spared stem + untouched fc1 bracket the pruned conv layers.
    for (std::size_t i = 1; i + 1 < stats.size(); ++i)
        EXPECT_NEAR(stats[i].element_sparsity(), 0.7, 0.02) << stats[i].layer;
}

TEST(Unstructured, SavesNoCrossbars) {
    nn::VggConfig vc;
    vc.width = 0.125;
    util::Rng rng(12);
    nn::Sequential model = nn::build_vgg(vc, rng);
    prune::PruneConfig pc;
    pc.method = prune::Method::kUnstructured;
    pc.sparsity = 0.7;
    prune::prune_at_init(model, pc);

    EvalConfig mapping;
    mapping.xbar.size = 32;
    mapping.method = prune::Method::kUnstructured;
    const auto budget = MappingPlan(model, mapping).crossbars();
    EXPECT_EQ(budget.total, budget.dense_total);
    EXPECT_DOUBLE_EQ(budget.compression_rate(), 1.0);
}

TEST(Unstructured, MethodNameRoundTrip) {
    EXPECT_EQ(prune::method_from_name("unstructured"),
              prune::Method::kUnstructured);
    EXPECT_EQ(prune::method_name(prune::Method::kUnstructured), "unstructured");
}

TEST(Unstructured, KeepsHighestMagnitudes) {
    nn::VggConfig vc;
    vc.width = 0.125;
    util::Rng rng(13);
    nn::Sequential model = nn::build_vgg(vc, rng);
    // Record pre-prune weights of conv2.
    auto* conv2 = dynamic_cast<nn::Conv2d*>(model.find("conv2"));
    ASSERT_NE(conv2, nullptr);
    const Tensor before = conv2->weight().value;

    prune::PruneConfig pc;
    pc.method = prune::Method::kUnstructured;
    pc.sparsity = 0.5;
    prune::prune_at_init(model, pc);
    const Tensor& after = conv2->weight().value;

    // Every surviving weight must be at least as large in magnitude as every
    // pruned weight (global per-layer threshold semantics).
    float min_kept = 1e30f, max_pruned = 0.0f;
    for (std::int64_t i = 0; i < after.numel(); ++i) {
        if (after[i] != 0.0f)
            min_kept = std::min(min_kept, std::fabs(before[i]));
        else
            max_pruned = std::max(max_pruned, std::fabs(before[i]));
    }
    EXPECT_GE(min_kept, max_pruned);
}

}  // namespace
}  // namespace xs::core
