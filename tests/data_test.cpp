#include "data/synthetic.h"
#include "tensor/ops.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

namespace xs::data {
namespace {

bool same_bytes(const nn::Dataset& a, const nn::Dataset& b) {
    return a.images.numel() == b.images.numel() && a.labels == b.labels &&
           std::memcmp(a.images.data(), b.images.data(),
                       static_cast<std::size_t>(a.images.numel()) *
                           sizeof(float)) == 0;
}

// FNV-1a 64 over a dataset's image bytes, then its label bytes.
std::uint64_t fnv1a(const nn::Dataset& d, std::uint64_t h) {
    const auto mix = [&h](const void* p, std::size_t n) {
        const auto* bytes = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ULL;
        }
    };
    mix(d.images.data(),
        static_cast<std::size_t>(d.images.numel()) * sizeof(float));
    mix(d.labels.data(), d.labels.size() * sizeof(d.labels[0]));
    return h;
}

TEST(Synthetic, ShapesAndLabelRange) {
    const SyntheticSpec spec = cifar10_like(1);
    const nn::Dataset d = generate(spec, 100);
    EXPECT_EQ(d.images.shape(), (tensor::Shape{100, 3, 32, 32}));
    EXPECT_EQ(d.labels.size(), 100u);
    EXPECT_EQ(d.num_classes, 10);
    for (const auto label : d.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, 10);
    }
}

TEST(Synthetic, LabelsRoughlyBalanced) {
    const SyntheticSpec spec = cifar10_like(2);
    const nn::Dataset d = generate(spec, 500);
    std::map<std::int64_t, int> counts;
    for (const auto label : d.labels) counts[label]++;
    EXPECT_EQ(counts.size(), 10u);
    for (const auto& [label, count] : counts) EXPECT_EQ(count, 50);
}

TEST(Synthetic, DeterministicForSeed) {
    const SyntheticSpec spec = cifar10_like(3);
    const nn::Dataset a = generate(spec, 20);
    const nn::Dataset b = generate(spec, 20);
    EXPECT_TRUE(tensor::allclose(a.images, b.images, 0.0f, 0.0f));
    EXPECT_EQ(a.labels, b.labels);
}

TEST(Synthetic, DifferentSeedsDiffer) {
    const nn::Dataset a = generate(cifar10_like(4), 10);
    const nn::Dataset b = generate(cifar10_like(5), 10);
    EXPECT_GT(tensor::max_abs_diff(a.images, b.images), 0.1f);
}

TEST(Synthetic, Cifar100HasHundredClasses) {
    const SyntheticSpec spec = cifar100_like(6);
    const nn::Dataset d = generate(spec, 400);
    EXPECT_EQ(d.num_classes, 100);
    std::map<std::int64_t, int> counts;
    for (const auto label : d.labels) counts[label]++;
    EXPECT_EQ(counts.size(), 100u);
}

TEST(Synthetic, TrainTestSplitsDiffer) {
    const auto tt = generate_split(cifar10_like(7), 50, 50);
    EXPECT_EQ(tt.train.size(), 50);
    EXPECT_EQ(tt.test.size(), 50);
    EXPECT_GT(tensor::max_abs_diff(tt.train.images, tt.test.images), 0.1f);
}

// The pool renders samples in parallel at top level; from inside a pool
// region the nested dispatch runs inline, so the same call renders every
// sample on one thread. Each sample's stream is split from the parent
// without advancing it, so the bytes must not differ.
TEST(Synthetic, PooledRenderMatchesSerialRender) {
    const SyntheticSpec spec = cifar10_like(7);
    const TrainTest pooled = generate_split(spec, 50, 50);
    TrainTest serial;
    util::parallel_for(0, 2, [&](std::size_t i) {
        if (i == 0) serial = generate_split(spec, 50, 50);
    });
    EXPECT_TRUE(same_bytes(pooled.train, serial.train));
    EXPECT_TRUE(same_bytes(pooled.test, serial.test));
}

// The render's bytes, so a render that is wrong on every thread fails too.
// Its double math rounds differently when the compiler fuses multiply-adds
// (-march=native on an FMA host), so the fused and the unfused bytes are
// both pinned.
TEST(Synthetic, RenderBytesArePinned) {
    const TrainTest tt = generate_split(cifar10_like(7), 50, 50);
    const std::uint64_t h = fnv1a(tt.test, fnv1a(tt.train, 0xcbf29ce484222325ULL));
    EXPECT_TRUE(h == 0xd89081cf5c4b66b3ULL || h == 0x5b4333e8705b1540ULL)
        << std::hex << "0x" << h;
}

TEST(Synthetic, PixelStatisticsBounded) {
    const nn::Dataset d = generate(cifar10_like(8), 50);
    const double m = tensor::mean(d.images);
    EXPECT_NEAR(m, 0.0, 1.0);  // roughly centred
    EXPECT_LT(tensor::max_abs(d.images), 30.0f);  // no blow-ups
}

TEST(Synthetic, ClassesAreStatisticallyDistinct) {
    // Mean image of two different classes must differ measurably; this is a
    // weak learnability proxy that does not require training.
    const SyntheticSpec spec = cifar10_like(9);
    const nn::Dataset d = generate(spec, 600);
    const std::int64_t item = 3 * 32 * 32;
    std::map<std::int64_t, std::vector<double>> means;
    std::map<std::int64_t, int> counts;
    for (std::int64_t i = 0; i < d.images.dim(0); ++i) {
        auto& m = means[d.labels[static_cast<std::size_t>(i)]];
        m.resize(static_cast<std::size_t>(item), 0.0);
        for (std::int64_t j = 0; j < item; ++j) m[static_cast<std::size_t>(j)] += d.images[i * item + j];
        counts[d.labels[static_cast<std::size_t>(i)]]++;
    }
    double max_dist = 0.0;
    for (auto& [label, m] : means)
        for (auto& v : m) v /= counts[label];
    for (std::int64_t a = 0; a < 10; ++a)
        for (std::int64_t b = a + 1; b < 10; ++b) {
            double dist = 0.0;
            for (std::int64_t j = 0; j < item; ++j) {
                const double diff = means[a][static_cast<std::size_t>(j)] -
                                    means[b][static_cast<std::size_t>(j)];
                dist += diff * diff;
            }
            max_dist = std::max(max_dist, dist);
        }
    EXPECT_GT(max_dist, 1.0);
}

TEST(Synthetic, JitterIncreasesWithSpec) {
    // Same class, higher jitter -> higher within-class variance.
    SyntheticSpec lo = cifar10_like(10);
    lo.class_jitter = 0.2f;
    SyntheticSpec hi = cifar10_like(10);
    hi.class_jitter = 2.0f;
    hi.pixel_noise = lo.pixel_noise;  // isolate the jitter effect

    auto variance_of_class0 = [](const nn::Dataset& d) {
        const std::int64_t item = 3 * 32 * 32;
        std::vector<const float*> imgs;
        for (std::int64_t i = 0; i < d.images.dim(0); ++i)
            if (d.labels[static_cast<std::size_t>(i)] == 0)
                imgs.push_back(d.images.data() + i * item);
        double var = 0.0;
        for (std::int64_t j = 0; j < item; ++j) {
            double mu = 0.0;
            for (const float* img : imgs) mu += img[j];
            mu /= static_cast<double>(imgs.size());
            double v = 0.0;
            for (const float* img : imgs) v += (img[j] - mu) * (img[j] - mu);
            var += v / static_cast<double>(imgs.size());
        }
        return var;
    };
    const double v_lo = variance_of_class0(generate(lo, 300));
    const double v_hi = variance_of_class0(generate(hi, 300));
    EXPECT_GT(v_hi, v_lo);
}

}  // namespace
}  // namespace xs::data
