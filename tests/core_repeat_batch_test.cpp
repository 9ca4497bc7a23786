// Equivalence pin for the lane-batched repeat evaluator (DESIGN.md §12):
// with cold-start solves, evaluate_on_crossbars must be bit-identical to a
// plain sequential per-repeat loop built from public pieces (below), for
// any repeat count and backend, and a repeat's result must not depend on
// which other repeats share its lane group. This is what keeps sweep CSVs
// byte-identical however their cells are grouped.
#include "core/evaluator.h"
#include "map/matrix_view.h"
#include "nn/infer.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

namespace xs::core {
namespace {

using tensor::Tensor;

::testing::AssertionResult bits_eq(double a, double b, const char* what) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof(a));
    std::memcpy(&bb, &b, sizeof(b));
    if (ba == bb) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": " << a << " vs " << b << " (bits differ)";
}

nn::Sequential tiny_vgg(std::uint64_t seed) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(seed);
    return nn::build_vgg(vc, rng);
}

nn::Dataset tiny_dataset(std::uint64_t seed) {
    nn::Dataset test;
    test.num_classes = 10;
    test.images = Tensor({16, 3, 32, 32});
    util::Rng rng(seed);
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.resize(16);
    for (std::size_t i = 0; i < 16; ++i)
        test.labels[i] = static_cast<std::int64_t>(i % 10);
    return test;
}

void expect_identical(const EvalResult& a, const EvalResult& b,
                      const std::string& tag) {
    SCOPED_TRACE(tag);
    EXPECT_TRUE(bits_eq(a.accuracy, b.accuracy, "accuracy"));
    EXPECT_TRUE(bits_eq(a.nf_mean, b.nf_mean, "nf_mean"));
    EXPECT_EQ(a.total_tiles, b.total_tiles);
    EXPECT_EQ(a.unconverged_tiles, b.unconverged_tiles);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        SCOPED_TRACE(a.layers[i].layer);
        EXPECT_EQ(a.layers[i].tiles, b.layers[i].tiles);
        EXPECT_EQ(a.layers[i].unconverged, b.layers[i].unconverged);
        EXPECT_TRUE(bits_eq(a.layers[i].nf_mean, b.layers[i].nf_mean,
                            "layer nf_mean"));
        EXPECT_TRUE(bits_eq(a.layers[i].w_ref, b.layers[i].w_ref, "w_ref"));
    }
}

EvalConfig base_config(xbar::BackendKind backend) {
    EvalConfig config;
    config.xbar.size = 32;
    config.backend = backend;
    config.seed = 21;
    return config;
}

// The sequential per-repeat loop, from public pieces only: repeat r
// degrades layer li with degrade_mac_matrix drawing from
// Rng(seed + r·7919).split(li + 1), compiles the W′ set into an engine
// instance, and scores it one lane at a time over batches of 64. The
// accumulation order of every average matches the evaluator's.
EvalResult sequential_reference(nn::Sequential& model, const nn::Dataset& test,
                                const EvalConfig& config) {
    const std::vector<nn::Layer*> layers = map::mappable_layers(model);
    nn::InferenceEngine engine(model);
    const std::int64_t total = test.size();
    const std::int64_t item = test.images.numel() / total;
    EvalResult aggregate;
    for (std::int64_t r = 0; r < config.repeats; ++r) {
        const std::uint64_t seed =
            config.seed + static_cast<std::uint64_t>(r) * 7919;
        EvalResult one;
        std::vector<Tensor> degraded;
        for (std::size_t li = 0; li < layers.size(); ++li) {
            const Tensor matrix = map::extract_matrix(*layers[li]);
            const double w_ref =
                tensor::abs_percentile_nonzero(matrix, 0.995);
            util::Rng rng =
                util::Rng(seed).split(static_cast<std::uint64_t>(li) + 1);
            DegradeStats stats;
            degraded.push_back(
                degrade_mac_matrix(matrix, config, w_ref, rng, stats));
            LayerEvalStats ls;
            ls.layer = layers[li]->name();
            ls.tiles = stats.tiles;
            ls.unconverged = stats.unconverged;
            ls.nf_mean = stats.nf_mean();
            ls.w_ref = w_ref;
            one.layers.push_back(ls);
        }
        std::vector<const Tensor*> overrides;
        for (const Tensor& d : degraded) overrides.push_back(&d);
        nn::CompiledInstance inst;
        engine.compile_instance(overrides, inst);
        const nn::CompiledInstance* lane = &inst;
        std::int64_t correct = 0;
        tensor::Shape shape = test.images.shape();
        for (std::int64_t start = 0; start < total; start += 64) {
            const std::int64_t count = std::min<std::int64_t>(64, total - start);
            shape[0] = count;
            const Tensor& logits = engine.forward_batched(
                test.images.data() + start * item, shape, &lane, 1);
            for (std::int64_t i = 0; i < count; ++i)
                if (tensor::argmax_row(logits, i) ==
                    test.labels[static_cast<std::size_t>(start + i)])
                    ++correct;
        }
        one.accuracy = 100.0 * static_cast<double>(correct) /
                       static_cast<double>(total);
        double nf_sum = 0.0;
        std::int64_t nf_tiles = 0;
        for (const LayerEvalStats& ls : one.layers) {
            nf_sum += ls.nf_mean * static_cast<double>(ls.tiles);
            nf_tiles += ls.tiles;
            one.total_tiles += ls.tiles;
            one.unconverged_tiles += ls.unconverged;
        }
        one.nf_mean = nf_sum / static_cast<double>(nf_tiles);
        if (r == 0) {
            aggregate = std::move(one);
        } else {
            aggregate.accuracy += one.accuracy;
            aggregate.nf_mean += one.nf_mean;
            aggregate.unconverged_tiles += one.unconverged_tiles;
        }
    }
    aggregate.accuracy /= static_cast<double>(config.repeats);
    aggregate.nf_mean /= static_cast<double>(config.repeats);
    return aggregate;
}

TEST(RepeatBatch, ColdMatchesSequentialBitExactAcrossRepeatCounts) {
    nn::Sequential model = tiny_vgg(12);
    const nn::Dataset test = tiny_dataset(15);
    // 1 = a lone lane, 3 = one partial group, 8 = two full groups of four
    // repeats, run in turn.
    for (const std::int64_t repeats : {1, 3, 8}) {
        EvalConfig config = base_config(xbar::BackendKind::kCircuit);
        config.repeats = repeats;
        const EvalResult batched = evaluate_on_crossbars(model, test, config);
        expect_identical(batched, sequential_reference(model, test, config),
                         "repeats=" + std::to_string(repeats));
        EXPECT_GT(batched.nf_mean, 0.0);
    }
}

TEST(RepeatBatch, ColdMatchesSequentialOnEveryBackend) {
    nn::Sequential model = tiny_vgg(12);
    const nn::Dataset test = tiny_dataset(15);
    for (const xbar::BackendKind backend :
         {xbar::BackendKind::kFast, xbar::BackendKind::kIdeal}) {
        EvalConfig config = base_config(backend);
        config.repeats = 3;
        expect_identical(evaluate_on_crossbars(model, test, config),
                         sequential_reference(model, test, config),
                         std::string("backend=") + xbar::backend_name(backend));
    }
}

TEST(RepeatBatch, PerRepeatResultsMatchSingleSeedRuns) {
    // evaluate_repeats_on_crossbars with N seeds must equal N independent
    // single-seed calls — the contract the sweep runner's group execution
    // relies on for byte-identical per-repeat CellResults.
    nn::Sequential model = tiny_vgg(12);
    const nn::Dataset test = tiny_dataset(15);
    EvalConfig config = base_config(xbar::BackendKind::kCircuit);
    const std::vector<std::uint64_t> seeds{21, 909, 4242};
    const std::vector<EvalResult> grouped =
        evaluate_repeats_on_crossbars(model, test, config, seeds);
    ASSERT_EQ(grouped.size(), seeds.size());
    for (std::size_t r = 0; r < seeds.size(); ++r) {
        const std::vector<EvalResult> one = evaluate_repeats_on_crossbars(
            model, test, config, {seeds[r]});
        ASSERT_EQ(one.size(), 1u);
        expect_identical(grouped[r], one[0],
                         "seed=" + std::to_string(seeds[r]));
    }
}

}  // namespace
}  // namespace xs::core
