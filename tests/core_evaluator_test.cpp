#include "core/evaluator.h"
#include "core/wct.h"
#include "map/matrix_view.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xs::core {
namespace {

using tensor::Tensor;

EvalConfig ideal_config(std::int64_t size) {
    EvalConfig c;
    c.xbar.size = size;
    c.backend = xbar::BackendKind::kIdeal;
    c.xbar.device.sigma_variation = 0.0;
    return c;
}

TEST(Degrade, IdealPipelineIsNearIdentity) {
    util::Rng rng(1);
    Tensor m({40, 24});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);
    DegradeStats stats;
    util::Rng vr(2);
    const Tensor out = degrade_mac_matrix(m, ideal_config(16), 1.6, vr, stats);
    EXPECT_TRUE(tensor::allclose(out, m, 2e-3f, 1e-2f))
        << "max diff " << tensor::max_abs_diff(out, m);
    EXPECT_EQ(stats.tiles, 3 * 2 + 0);  // ceil(40/16)=3 by ceil(24/16)=2
    // No parasitic step: every tile reports NF exactly 0.
    EXPECT_EQ(stats.nf_sum, 0.0);
    EXPECT_EQ(stats.nf_tiles, stats.tiles);
}

TEST(Degrade, ParasiticsShrinkWeights) {
    util::Rng rng(3);
    Tensor m({32, 32});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);
    EvalConfig config;
    config.xbar.size = 32;
    config.xbar.device.sigma_variation = 0.0;
    DegradeStats stats;
    util::Rng vr(4);
    const Tensor out = degrade_mac_matrix(m, config, 1.6, vr, stats);
    // The aggregate weight magnitude must fall (IR drop only removes drive).
    double in_mag = 0.0, out_mag = 0.0;
    for (std::int64_t i = 0; i < m.numel(); ++i) {
        in_mag += std::fabs(m[i]);
        out_mag += std::fabs(out[i]);
    }
    EXPECT_LT(out_mag, in_mag);
    EXPECT_GT(out_mag, 0.3 * in_mag);  // but not annihilate them
    EXPECT_GT(stats.nf_mean(), 0.0);
    EXPECT_LT(stats.nf_mean(), 1.0);
}

TEST(Degrade, CompactionPreservesStructuralZeros) {
    // C/F semantics: pruned (all-zero) rows/columns are eliminated before
    // mapping, so they come back as exact zeros even with non-idealities.
    util::Rng rng(5);
    Tensor m({24, 16});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);
    for (std::int64_t j = 0; j < 16; ++j) m.at(5, j) = m.at(17, j) = 0.0f;
    for (std::int64_t i = 0; i < 24; ++i) m.at(i, 3) = m.at(i, 12) = 0.0f;

    EvalConfig config;
    config.xbar.size = 8;
    config.method = prune::Method::kChannelFilter;
    DegradeStats stats;
    util::Rng vr(6);
    const Tensor out = degrade_mac_matrix(m, config, 1.6, vr, stats);
    for (std::int64_t j = 0; j < 16; ++j) {
        EXPECT_EQ(out.at(5, j), 0.0f);
        EXPECT_EQ(out.at(17, j), 0.0f);
    }
    for (std::int64_t i = 0; i < 24; ++i) {
        EXPECT_EQ(out.at(i, 3), 0.0f);
        EXPECT_EQ(out.at(i, 12), 0.0f);
    }
}

TEST(Degrade, XcsZeroSegmentsStayZero) {
    util::Rng rng(7);
    Tensor m({16, 8});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);
    for (std::int64_t r = 0; r < 8; ++r) m.at(r, 2) = 0.0f;  // segment (block0, col2)

    EvalConfig config;
    config.xbar.size = 8;
    config.method = prune::Method::kXbarColumn;
    DegradeStats stats;
    util::Rng vr(8);
    const Tensor out = degrade_mac_matrix(m, config, 1.6, vr, stats);
    for (std::int64_t r = 0; r < 8; ++r) EXPECT_EQ(out.at(r, 2), 0.0f);
}

TEST(Degrade, VariationIsDeterministicPerSeed) {
    util::Rng rng(9);
    Tensor m({16, 16});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);
    EvalConfig config;
    config.xbar.size = 16;

    DegradeStats s1, s2;
    util::Rng r1(42), r2(42);
    const Tensor a = degrade_mac_matrix(m, config, 1.6, r1, s1);
    const Tensor b = degrade_mac_matrix(m, config, 1.6, r2, s2);
    EXPECT_TRUE(tensor::allclose(a, b, 0.0f, 0.0f));
}

TEST(Evaluator, ModelWeightsRestoredAfterEvaluation) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(10);
    nn::Sequential model = nn::build_vgg(vc, rng);

    // Snapshot weights.
    std::vector<Tensor> before;
    for (nn::Layer* l : map::mappable_layers(model))
        before.push_back(map::extract_matrix(*l));

    nn::Dataset test;
    test.num_classes = 10;
    test.images = Tensor({8, 3, 32, 32});
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.assign(8, 0);

    EvalConfig config;
    config.xbar.size = 32;
    evaluate_on_crossbars(model, test, config);

    const auto layers = map::mappable_layers(model);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Tensor after = map::extract_matrix(*layers[i]);
        EXPECT_TRUE(tensor::allclose(after, before[i], 0.0f, 0.0f))
            << layers[i]->name();
    }
}

TEST(Evaluator, IdealCrossbarsMatchSoftwareAccuracy) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    // The weight→conductance→weight roundtrip is float-lossy (~1e-3
    // relative), so equality needs argmax margins above that noise; this
    // seed's random logits keep every image's margin comfortable.
    util::Rng rng(12);
    nn::Sequential model = nn::build_vgg(vc, rng);

    nn::Dataset test;
    test.num_classes = 10;
    test.images = Tensor({16, 3, 32, 32});
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.resize(16);
    for (std::size_t i = 0; i < 16; ++i)
        test.labels[i] = static_cast<std::int64_t>(i % 10);

    const double software = nn::evaluate(model, test);
    const EvalResult r = evaluate_on_crossbars(model, test, ideal_config(32));
    EXPECT_NEAR(r.accuracy, software, 1e-9);
    EXPECT_NEAR(r.nf_mean, 0.0, 1e-12);
}

TEST(Evaluator, ReportsLayerStats) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(12);
    nn::Sequential model = nn::build_vgg(vc, rng);
    const EvalResult r = measure_nf(model, [&] {
        EvalConfig c;
        c.xbar.size = 16;
        return c;
    }());
    EXPECT_EQ(r.layers.size(), 9u);  // 8 convs + fc
    EXPECT_GT(r.total_tiles, 0);
    EXPECT_GT(r.nf_mean, 0.0);
    for (const auto& l : r.layers) {
        EXPECT_GT(l.tiles, 0);
        EXPECT_GT(l.w_ref, 0.0);
    }
}

// Solver-failure accounting contract (evaluator.h): total_tiles counts ONE
// repeat's mapping while unconverged_tiles sums solver failures over every
// Monte-Carlo repeat, so the invariant is
//   0 ≤ unconverged_tiles ≤ total_tiles × repeats
// — NOT unconverged_tiles ≤ total_tiles. A multi-repeat evaluation must
// report the single-repeat tile count and respect the bound; the evaluator
// itself aborts loudly (check_failure_accounting) when the bound breaks.
TEST(Evaluator, SolverFailuresCountAgainstTilesTimesRepeats) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(17);
    nn::Sequential model = nn::build_vgg(vc, rng);

    nn::Dataset test;
    test.num_classes = 10;
    test.images = Tensor({8, 3, 32, 32});
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.assign(8, 0);

    EvalConfig config;
    config.xbar.size = 32;
    config.repeats = 3;

    const std::int64_t single_repeat_tiles = [&] {
        EvalConfig one = config;
        one.repeats = 1;
        return evaluate_on_crossbars(model, test, one).total_tiles;
    }();
    ASSERT_GT(single_repeat_tiles, 0);

    const EvalResult r = evaluate_on_crossbars(model, test, config);
    // total_tiles stays the per-repeat mapping count...
    EXPECT_EQ(r.total_tiles, single_repeat_tiles);
    // ...while the failure budget scales with the repeat count.
    EXPECT_GE(r.unconverged_tiles, 0);
    EXPECT_LE(r.unconverged_tiles, r.total_tiles * config.repeats);
}

TEST(Evaluator, NfGrowsWithCrossbarSize) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(13);
    nn::Sequential model = nn::build_vgg(vc, rng);
    double prev = 0.0;
    for (const std::int64_t size : {16, 32, 64}) {
        EvalConfig c;
        c.xbar.size = size;
        c.xbar.device.sigma_variation = 0.0;
        const EvalResult r = measure_nf(model, c);
        EXPECT_GT(r.nf_mean, prev);
        prev = r.nf_mean;
    }
}

// A sweep's NF unit measures several cells on one MappingPlan. Every config
// with the plan's mapping inputs must get, layer by layer and bit for bit,
// what a plan of its own gives; one that maps the model differently must
// throw instead of measuring the wrong mapping.
TEST(Evaluator, MeasureNfOnASharedPlanMatchesAFreshPlan) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(14);
    nn::Sequential model = nn::build_vgg(vc, rng);
    prune::PruneConfig pc;
    pc.method = prune::Method::kChannelFilter;
    pc.sparsity = 0.5;
    prune::prune_at_init(model, pc);

    // C/F compaction and the R rearrangement both live in the plan.
    EvalConfig base;
    base.xbar.size = 16;
    base.method = prune::Method::kChannelFilter;
    base.rearrange = true;
    base.xbar.device.sigma_variation = 0.0;
    const MappingPlan plan(model, base);

    std::vector<EvalConfig> configs(5, base);
    for (double* r : {&configs[1].xbar.parasitics.r_driver,
                      &configs[1].xbar.parasitics.r_wire_row,
                      &configs[1].xbar.parasitics.r_wire_col,
                      &configs[1].xbar.parasitics.r_sense})
        *r *= 2.0;
    configs[2].backend = xbar::BackendKind::kFast;
    configs[3].faults.p_stuck_min = 0.02;
    configs[3].faults.p_stuck_max = 0.01;
    configs[4] = configs[3];
    configs[4].seed = 99;

    std::vector<double> nfs;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        const EvalResult shared = measure_nf(plan, configs[i]);
        const EvalResult fresh = measure_nf(model, configs[i]);
        EXPECT_EQ(shared.nf_mean, fresh.nf_mean);
        EXPECT_EQ(shared.total_tiles, fresh.total_tiles);
        EXPECT_EQ(shared.unconverged_tiles, fresh.unconverged_tiles);
        ASSERT_EQ(shared.layers.size(), fresh.layers.size());
        for (std::size_t li = 0; li < fresh.layers.size(); ++li) {
            const LayerEvalStats& a = shared.layers[li];
            const LayerEvalStats& b = fresh.layers[li];
            SCOPED_TRACE(b.layer);
            EXPECT_EQ(a.layer, b.layer);
            EXPECT_EQ(a.nf_mean, b.nf_mean);
            EXPECT_EQ(a.tiles, b.tiles);
            EXPECT_EQ(a.unconverged, b.unconverged);
            EXPECT_EQ(a.rows, b.rows);
            EXPECT_EQ(a.cols, b.cols);
            EXPECT_EQ(a.w_ref, b.w_ref);
        }
        nfs.push_back(shared.nf_mean);
    }
    // Each config measures something different, so no shared-plan leak of
    // one config's result into the next can pass unseen.
    for (std::size_t i = 0; i < nfs.size(); ++i)
        for (std::size_t j = i + 1; j < nfs.size(); ++j)
            EXPECT_NE(nfs[i], nfs[j]) << i << " vs " << j;

    EvalConfig other = base;
    other.xbar.size = 32;
    EXPECT_THROW(measure_nf(plan, other), std::exception);
    other = base;
    other.method = prune::Method::kNone;
    EXPECT_THROW(measure_nf(plan, other), std::exception);
    other = base;
    other.rearrange = false;
    EXPECT_THROW(measure_nf(plan, other), std::exception);
    other = base;
    other.w_ref["conv1"] = 0.5;
    EXPECT_THROW(measure_nf(plan, other), std::exception);
}

TEST(Wct, ClipBoundsWeights) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(14);
    nn::Sequential model = nn::build_vgg(vc, rng);

    std::map<std::string, double> cuts;
    for (nn::Layer* l : map::mappable_layers(model)) cuts[l->name()] = 0.05;
    clip_weights(model, cuts);
    for (nn::Layer* l : map::mappable_layers(model)) {
        const Tensor m = map::extract_matrix(*l);
        EXPECT_LE(tensor::max_abs(m), 0.05f + 1e-7f) << l->name();
    }
}

TEST(Wct, PercentileOfKnownDistribution) {
    Tensor w({100});
    for (std::int64_t i = 0; i < 100; ++i)
        w[i] = static_cast<float>(i + 1) * (i % 2 ? 1.0f : -1.0f);
    EXPECT_NEAR(tensor::abs_percentile_nonzero(w, 0.5), 51.0, 1.0);
    EXPECT_NEAR(tensor::abs_percentile_nonzero(w, 1.0), 100.0, 0.0);
}

TEST(Wct, PercentileIgnoresZeros) {
    Tensor w({6});
    w[0] = 0.0f;
    w[1] = 0.0f;
    w[2] = 1.0f;
    w[3] = 2.0f;
    w[4] = 3.0f;
    w[5] = 4.0f;
    EXPECT_NEAR(tensor::abs_percentile_nonzero(w, 0.5), 3.0, 1e-6);
}

TEST(Wct, ClipPreservesSign) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(15);
    nn::Sequential model = nn::build_vgg(vc, rng);
    auto* conv = dynamic_cast<nn::Conv2d*>(model.find("conv1"));
    conv->weight().value[0] = -10.0f;
    conv->weight().value[1] = 10.0f;
    std::map<std::string, double> cuts{{"conv1", 0.5}};
    clip_weights(model, cuts);
    EXPECT_FLOAT_EQ(conv->weight().value[0], -0.5f);
    EXPECT_FLOAT_EQ(conv->weight().value[1], 0.5f);
}

}  // namespace
}  // namespace xs::core
