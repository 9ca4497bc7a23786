#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

namespace xs::tensor {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
    check(a.same_shape(b), std::string(op) + ": shape mismatch " +
                               shape_to_string(a.shape()) + " vs " +
                               shape_to_string(b.shape()));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b, "add");
    Tensor out = a;
    add_inplace(out, b);
    return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b, "sub");
    Tensor out = a;
    const float* pb = b.data();
    float* po = out.data();
    for (std::int64_t i = 0; i < out.numel(); ++i) po[i] -= pb[i];
    return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b, "mul");
    Tensor out = a;
    mul_inplace(out, b);
    return out;
}

Tensor scale(const Tensor& a, float s) {
    Tensor out = a;
    scale_inplace(out, s);
    return out;
}

Tensor apply(const Tensor& a, const std::function<float(float)>& fn) {
    Tensor out = a;
    float* p = out.data();
    for (std::int64_t i = 0; i < out.numel(); ++i) p[i] = fn(p[i]);
    return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
    check_same_shape(a, b, "add_inplace");
    const float* pb = b.data();
    float* pa = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += pb[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
    check_same_shape(a, b, "axpy_inplace");
    const float* pb = b.data();
    float* pa = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += alpha * pb[i];
}

void scale_inplace(Tensor& a, float s) {
    float* p = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) p[i] *= s;
}

void mul_inplace(Tensor& a, const Tensor& b) {
    check_same_shape(a, b, "mul_inplace");
    const float* pb = b.data();
    float* pa = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] *= pb[i];
}

double sum(const Tensor& a) {
    double acc = 0.0;
    const float* p = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) acc += p[i];
    return acc;
}

double mean(const Tensor& a) {
    return a.numel() == 0 ? 0.0 : sum(a) / static_cast<double>(a.numel());
}

float max_abs(const Tensor& a) {
    float m = 0.0f;
    const float* p = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(p[i]));
    return m;
}

double l2_norm(const Tensor& a) {
    double acc = 0.0;
    const float* p = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i)
        acc += static_cast<double>(p[i]) * p[i];
    return std::sqrt(acc);
}

// A radix select over |x|'s bit pattern, which orders non-negative floats
// as their values do: one pass counts the patterns' top bits, the bucket
// that holds rank k is found from the counts, and a second pass keeps only
// that bucket's patterns to select from. The k-th smallest pattern is the
// k-th smallest non-zero |x|, so the result is nth_element's over all of
// them, bit for bit.
double abs_percentile_nonzero(const Tensor& a, double percentile) {
    check(percentile > 0.0 && percentile <= 1.0,
          "abs_percentile_nonzero: percentile must be in (0, 1]");
    constexpr int kLowBits = 20;  // buckets by sign-free bits 30..20
    const auto abs_bits = [](float x) {
        std::uint32_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        return bits & 0x7fffffffu;
    };
    const float* p = a.data();
    const std::int64_t n = a.numel();
    std::array<std::size_t, std::size_t{1} << (31 - kLowBits)> hist{};
    std::size_t zeros = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        const std::uint32_t bits = abs_bits(p[i]);
        ++hist[bits >> kLowBits];
        zeros += bits == 0;
    }
    hist[0] -= zeros;
    const std::size_t count = static_cast<std::size_t>(n) - zeros;
    if (count == 0) return 0.0;
    auto k = static_cast<std::size_t>(percentile * static_cast<double>(count));
    if (k >= count) k = count - 1;
    std::uint32_t bucket = 0;
    while (k >= hist[bucket]) k -= hist[bucket++];

    std::vector<std::uint32_t> in_bucket;
    in_bucket.reserve(hist[bucket]);
    for (std::int64_t i = 0; i < n; ++i) {
        const std::uint32_t bits = abs_bits(p[i]);
        if (bits != 0 && (bits >> kLowBits) == bucket)
            in_bucket.push_back(bits);
    }
    std::nth_element(in_bucket.begin(),
                     in_bucket.begin() + static_cast<std::ptrdiff_t>(k),
                     in_bucket.end());
    float value;
    std::memcpy(&value, &in_bucket[k], sizeof value);
    return value;
}

std::int64_t argmax_row(const Tensor& a, std::int64_t r) {
    check(a.rank() == 2, "argmax_row expects a rank-2 tensor");
    const std::int64_t cols = a.dim(1);
    const float* p = a.data() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < cols; ++j)
        if (p[j] > p[best]) best = j;
    return best;
}

Tensor transpose(const Tensor& a) {
    check(a.rank() == 2, "transpose expects a rank-2 tensor");
    const std::int64_t rows = a.dim(0), cols = a.dim(1);
    Tensor out({cols, rows});
    const float* pa = a.data();
    float* po = out.data();
    for (std::int64_t i = 0; i < rows; ++i)
        for (std::int64_t j = 0; j < cols; ++j)
            po[j * rows + i] = pa[i * cols + j];
    return out;
}

void fill_normal(Tensor& a, util::Rng& rng, float mean, float stddev) {
    float* p = a.data();
    for (std::int64_t i = 0; i < a.numel(); ++i)
        p[i] = static_cast<float>(rng.normal(mean, stddev));
}

void fill_kaiming(Tensor& a, util::Rng& rng, std::int64_t fan_in) {
    check(fan_in > 0, "fill_kaiming: fan_in must be positive");
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    fill_normal(a, rng, 0.0f, stddev);
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
    if (!a.same_shape(b)) return false;
    const float* pa = a.data();
    const float* pb = b.data();
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const float diff = std::fabs(pa[i] - pb[i]);
        if (diff > atol + rtol * std::fabs(pb[i])) return false;
    }
    return true;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
    check(a.same_shape(b), "max_abs_diff: shape mismatch");
    float m = 0.0f;
    const float* pa = a.data();
    const float* pb = b.data();
    for (std::int64_t i = 0; i < a.numel(); ++i)
        m = std::max(m, std::fabs(pa[i] - pb[i]));
    return m;
}

}  // namespace xs::tensor
