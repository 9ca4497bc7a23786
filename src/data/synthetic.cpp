#include "data/synthetic.h"

#include "tensor/tensor.h"
#include "util/parallel.h"

#include <cmath>

namespace xs::data {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Fixed colour palette; classes cycle through it with index-dependent mixes.
constexpr float kPalette[8][3] = {
    {1.0f, 0.2f, 0.2f}, {0.2f, 1.0f, 0.3f}, {0.25f, 0.4f, 1.0f},
    {1.0f, 0.9f, 0.2f}, {0.9f, 0.3f, 1.0f}, {0.2f, 0.95f, 0.95f},
    {1.0f, 0.6f, 0.25f}, {0.75f, 0.75f, 0.75f}};

struct ClassPrototype {
    double theta;       // grating orientation
    double freq;        // cycles across the image
    double harmonic;    // relative weight of the 2nd harmonic
    float color[3];     // channel mix
    double blob_x, blob_y;  // centre of a soft intensity blob
    double blob_gain;
};

// Deterministic prototype for class c: parameters are laid out on a grid so
// that neighbouring classes are genuinely confusable once jittered.
ClassPrototype prototype(std::int64_t c, std::int64_t num_classes) {
    ClassPrototype p{};
    if (num_classes <= 10) {
        // 2 frequency bands × 5 orientations.
        const std::int64_t band = c / 5, ori = c % 5;
        p.theta = kPi * static_cast<double>(ori) / 5.0;
        p.freq = band == 0 ? 3.0 : 6.0;
        p.harmonic = 0.25 * static_cast<double>(band);
        const auto& col = kPalette[c % 8];
        p.color[0] = col[0];
        p.color[1] = col[1];
        p.color[2] = col[2];
        p.blob_x = 0.25 + 0.5 * static_cast<double>(ori) / 4.0;
        p.blob_y = band == 0 ? 0.3 : 0.7;
        p.blob_gain = 0.8;
    } else {
        // Fine grid: 10 orientations × (frequency, colour) combinations.
        const std::int64_t a = c % 10;           // orientation index
        const std::int64_t b = (c / 10) % 10;    // freq/colour index
        p.theta = kPi * static_cast<double>(a) / 10.0;
        p.freq = 2.0 + 0.65 * static_cast<double>(b);
        p.harmonic = 0.15 * static_cast<double>(b % 3);
        const auto& col = kPalette[b % 8];
        const float shade = 0.55f + 0.45f * static_cast<float>(a % 2);
        p.color[0] = col[0] * shade;
        p.color[1] = col[1] * shade;
        p.color[2] = col[2] * shade;
        p.blob_x = 0.2 + 0.6 * static_cast<double>(a) / 9.0;
        p.blob_y = 0.2 + 0.6 * static_cast<double>(b) / 9.0;
        p.blob_gain = 0.5;
    }
    return p;
}

void render_sample(const SyntheticSpec& spec, const ClassPrototype& proto,
                   util::Rng& rng, float* out) {
    const std::int64_t s = spec.image_size;
    // Per-sample jitter of the prototype parameters. The angular spacing of
    // neighbouring classes is pi/5 (10-class) or pi/10 (100-class); jitter is
    // class_jitter × half that spacing, giving controlled confusability.
    const double theta_spacing = spec.num_classes <= 10 ? kPi / 5.0 : kPi / 10.0;
    const double theta =
        proto.theta + rng.normal(0.0, spec.class_jitter * theta_spacing * 0.5);
    const double freq = proto.freq * (1.0 + rng.normal(0.0, 0.08 * spec.class_jitter * 2));
    const double phase = rng.uniform(0.0, 2.0 * kPi);
    const double amp = 0.7 + 0.6 * rng.uniform();
    const double brightness = rng.normal(0.0, 0.2);
    const double bx = proto.blob_x + rng.normal(0.0, 0.04 * spec.class_jitter * 2);
    const double by = proto.blob_y + rng.normal(0.0, 0.04 * spec.class_jitter * 2);
    float color[3];
    for (int ch = 0; ch < 3; ++ch)
        color[ch] = proto.color[ch] *
                    (1.0f + static_cast<float>(rng.normal(0.0, 0.12 * spec.class_jitter * 2)));

    const double ct = std::cos(theta), st = std::sin(theta);
    const double inv_s = 1.0 / static_cast<double>(s);
    for (std::int64_t y = 0; y < s; ++y) {
        for (std::int64_t x = 0; x < s; ++x) {
            const double u = (static_cast<double>(x) + 0.5) * inv_s;
            const double v = (static_cast<double>(y) + 0.5) * inv_s;
            const double t = u * ct + v * st;
            double wave = std::sin(2.0 * kPi * freq * t + phase);
            if (proto.harmonic > 0.0)
                wave += proto.harmonic * std::sin(4.0 * kPi * freq * t + 2.0 * phase);
            const double dx = u - bx, dy = v - by;
            const double blob = proto.blob_gain * std::exp(-(dx * dx + dy * dy) / 0.02);
            const double base = amp * wave + blob + brightness;
            for (std::int64_t ch = 0; ch < spec.channels; ++ch) {
                const float noise = static_cast<float>(rng.normal(0.0, spec.pixel_noise));
                out[(ch * s + y) * s + x] =
                    static_cast<float>(base) * color[ch % 3] + noise;
            }
        }
    }
}

}  // namespace

SyntheticSpec cifar10_like(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.num_classes = 10;
    spec.pixel_noise = 1.2f;
    spec.class_jitter = 1.22f;
    spec.seed = seed;
    return spec;
}

SyntheticSpec cifar100_like(std::uint64_t seed) {
    SyntheticSpec spec;
    spec.num_classes = 100;
    spec.pixel_noise = 1.2f;
    spec.class_jitter = 1.25f;
    spec.seed = seed;
    return spec;
}

nn::Dataset generate(const SyntheticSpec& spec, std::int64_t count) {
    util::Rng rng(spec.seed);
    nn::Dataset data;
    data.num_classes = spec.num_classes;
    data.images = tensor::Tensor(
        {count, spec.channels, spec.image_size, spec.image_size});
    data.labels.resize(static_cast<std::size_t>(count));

    const std::int64_t item = spec.channels * spec.image_size * spec.image_size;
    // Balanced labels, then a deterministic shuffle.
    const std::vector<std::size_t> order = rng.permutation(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < order.size(); ++i)
        data.labels[i] = static_cast<std::int64_t>(order[i]) % spec.num_classes;
    // Sample i draws from its own child stream; split() reads the parent
    // state without advancing it, so the bytes do not depend on which thread
    // renders which sample.
    float* images = data.images.data();
    util::parallel_for_chunks(
        0, static_cast<std::size_t>(count), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                util::Rng sample_rng = rng.split(i * 2654435761u + 17);
                render_sample(spec, prototype(data.labels[i], spec.num_classes),
                              sample_rng, images + i * static_cast<std::size_t>(item));
            }
        });
    return data;
}

TrainTest generate_split(const SyntheticSpec& spec, std::int64_t train_count,
                         std::int64_t test_count) {
    TrainTest tt;
    SyntheticSpec train_spec = spec;
    train_spec.seed = spec.seed * 2 + 1;
    SyntheticSpec test_spec = spec;
    test_spec.seed = spec.seed * 2 + 9876543;
    tt.train = generate(train_spec, train_count);
    tt.test = generate(test_spec, test_count);
    return tt;
}

}  // namespace xs::data
