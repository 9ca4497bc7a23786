// End-to-end integration: train → prune → map → evaluate on tiny
// configurations, exercising the full Fig. 2 pipeline the way the benchmark
// harness does (just smaller and faster).
#include "core/evaluator.h"
#include "core/wct.h"
#include "core/workspace.h"
#include "data/synthetic.h"
#include "map/compression.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "prune/stats.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

namespace xs::core {
namespace {

data::SyntheticSpec easy_data() {
    data::SyntheticSpec spec = data::cifar10_like(5);
    spec.class_jitter = 0.4f;  // easy so tiny models learn fast
    spec.pixel_noise = 0.4f;
    return spec;
}

nn::VggConfig tiny_vgg() {
    nn::VggConfig vc;
    vc.width = 0.0625;
    return vc;
}

struct Trained {
    nn::Sequential model;
    prune::MaskSet masks;
    double software = 0.0;  // nn::evaluate: the inference engine
    nn::Dataset test;
};

Trained train_tiny(prune::Method method, double sparsity) {
    auto tt = data::generate_split(easy_data(), 320, 160);
    util::Rng rng(7);
    Trained t{nn::build_vgg(tiny_vgg(), rng), {}, 0.0, std::move(tt.test)};
    if (method != prune::Method::kNone) {
        prune::PruneConfig pc;
        pc.method = method;
        pc.sparsity = sparsity;
        pc.segment_size = 16;
        t.masks = prune::prune_at_init(t.model, pc);
    }
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 32;
    nn::train(t.model, tt.train, nullptr, tc,
              t.masks.empty() ? nn::StepHook{} : t.masks.hook());
    t.software = nn::evaluate(t.model, t.test);
    return t;
}

// Top-1 accuracy (%) through the layers' own forward (Sequential::forward
// in inference mode: im2col convs, separate BN, ReLU and pool layers) — the
// reference for the engine's folded and fused steps on a model that learns.
double layerwise_accuracy(nn::Sequential& model, const nn::Dataset& data) {
    const std::int64_t n = data.size(), item = data.images.numel() / n;
    std::int64_t correct = 0;
    for (std::int64_t start = 0; start < n; start += 64) {
        tensor::Shape shape = data.images.shape();
        shape[0] = std::min<std::int64_t>(64, n - start);
        tensor::Tensor batch(shape);
        std::memcpy(batch.data(), data.images.data() + start * item,
                    static_cast<std::size_t>(batch.numel()) * sizeof(float));
        const tensor::Tensor logits = model.forward(batch, /*training=*/false);
        for (std::int64_t i = 0; i < shape[0]; ++i)
            correct += tensor::argmax_row(logits, i) ==
                       data.labels[static_cast<std::size_t>(start + i)];
    }
    return 100.0 * static_cast<double>(correct) / static_cast<double>(n);
}

// The engine's accuracy equals the layer-by-layer forward's within one test
// image (their sums round differently, which may flip a near tie).
void expect_engine_accuracy_matches_layers(Trained& t) {
    EXPECT_NEAR(t.software, layerwise_accuracy(t.model, t.test),
                100.0 / static_cast<double>(t.test.size()) + 1e-9);
}

TEST(Integration, TrainedTinyModelBeatsChance) {
    Trained t = train_tiny(prune::Method::kNone, 0.0);
    EXPECT_GT(t.software, 40.0);  // 10 classes, chance = 10 %
    expect_engine_accuracy_matches_layers(t);
}

TEST(Integration, PrunedTrainingKeepsStructuredSparsity) {
    Trained t = train_tiny(prune::Method::kChannelFilter, 0.5);
    EXPECT_GT(t.software, 35.0);
    expect_engine_accuracy_matches_layers(t);
    bool first = true;
    std::int64_t total_zero_cols = 0;
    for (const auto& s : prune::layer_sparsity(t.model)) {
        if (!first && s.layer != "fc1") total_zero_cols += s.zero_cols;
        first = false;
    }
    EXPECT_GT(total_zero_cols, 0);
}

TEST(Integration, NonIdealAccuracyBelowSoftware) {
    Trained t = train_tiny(prune::Method::kNone, 0.0);
    const auto tt = data::generate_split(easy_data(), 32, 160);
    EvalConfig config;
    config.xbar.size = 64;
    const EvalResult r = evaluate_on_crossbars(t.model, tt.test, config);
    EXPECT_LT(r.accuracy, t.software + 1e-9);
    EXPECT_GT(r.nf_mean, 0.0);
}

TEST(Integration, RearrangementDoesNotBreakInference) {
    Trained t = train_tiny(prune::Method::kChannelFilter, 0.5);
    const auto tt = data::generate_split(easy_data(), 32, 160);
    EvalConfig config;
    config.xbar.size = 32;
    config.method = prune::Method::kChannelFilter;
    const EvalResult plain = evaluate_on_crossbars(t.model, tt.test, config);
    config.rearrange = true;
    const EvalResult with_r = evaluate_on_crossbars(t.model, tt.test, config);
    // R must keep accuracy in a sane band (it is a mapping-time identity in
    // the ideal limit) — typically it helps; never collapse to chance.
    EXPECT_GT(with_r.accuracy, 0.5 * plain.accuracy - 5.0);
}

TEST(Integration, WctKeepsSoftwareAccuracyAndClipsWeights) {
    Trained t = train_tiny(prune::Method::kChannelFilter, 0.5);
    const auto tt = data::generate_split(easy_data(), 320, 160);

    WctConfig wc;
    wc.percentile = 0.85;
    wc.finetune.epochs = 2;
    const WctResult wr = apply_wct(t.model, tt.train, &tt.test, t.masks, wc);
    const double after = nn::evaluate(t.model, tt.test);
    EXPECT_GT(after, t.software - 15.0);  // near-iso on the easy task

    // Weights respect the cut and w_ref ≥ w_cut.
    for (const auto& [layer, cut] : wr.w_cut) {
        EXPECT_GT(cut, 0.0);
        EXPECT_GE(wr.w_ref.at(layer), cut);
    }
}

TEST(Integration, CompressionRateAboveOneForCf) {
    Trained t = train_tiny(prune::Method::kChannelFilter, 0.5);
    const auto budget =
        map::count_crossbars(t.model, prune::Method::kChannelFilter, 16);
    EXPECT_GT(budget.compression_rate(), 1.2);
}

TEST(Integration, WorkspaceCachesModels) {
    const std::string cache =
        (std::filesystem::temp_directory_path() / "xs_ws_cache").string();
    std::filesystem::remove_all(cache);

    ModelSpec spec;
    spec.vgg = tiny_vgg();
    spec.data = easy_data();
    spec.train_count = 160;
    spec.test_count = 80;
    spec.train.epochs = 1;
    spec.train.batch_size = 32;
    const auto tt = data::generate_split(spec.data, 160, 80);

    const PreparedModel first = prepare_model(spec, tt.train, tt.test, cache, false);
    EXPECT_FALSE(first.from_cache);
    const PreparedModel second = prepare_model(spec, tt.train, tt.test, cache, false);
    EXPECT_TRUE(second.from_cache);
    EXPECT_NEAR(first.software_accuracy, second.software_accuracy, 1e-9);
    std::filesystem::remove_all(cache);
}

TEST(Integration, SpecKeyDistinguishesVariants) {
    ModelSpec a;
    a.prune.method = prune::Method::kNone;
    ModelSpec b = a;
    b.prune.method = prune::Method::kChannelFilter;
    b.prune.sparsity = 0.8;
    ModelSpec c = b;
    c.wct = true;
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(b.key(), c.key());
}

// Cached model files are named by key(), so these strings are the names
// every existing model cache holds: a change here retrains every model.
TEST(Integration, SpecKeyNamesCachedModelsAsBefore) {
    const ModelSpec plain;
    EXPECT_EQ(plain.key(),
              "vgg11_c10_w1_n2560_e10_b32_lr0p002_adam_s1_i11_d42_j0p55_pn0p55_"
              "cf0p8_seg32");
    ModelSpec wct;
    wct.vgg.width = 0.125;
    wct.train_count = 1024;
    wct.train.epochs = 3;
    wct.prune.method = prune::Method::kChannelFilter;
    wct.prune.sparsity = 0.8;
    wct.wct = true;
    EXPECT_EQ(wct.key(),
              "vgg11_c10_w0p125_n1024_e3_b32_lr0p002_adam_s1_i11_d42_j0p55_"
              "pn0p55_cf0p8_seg32_wct0p8_we2");
}

}  // namespace
}  // namespace xs::core
