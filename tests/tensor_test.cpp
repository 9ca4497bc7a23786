#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

namespace xs::tensor {
namespace {

TEST(Tensor, ConstructionAndFill) {
    Tensor t({2, 3}, 1.5f);
    EXPECT_EQ(t.numel(), 6);
    EXPECT_EQ(t.rank(), 2u);
    for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 1.5f);
    t.zero();
    for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, At2d) {
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_FLOAT_EQ(t[5], 7.0f);
    EXPECT_FLOAT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, At4d) {
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 9.0f;
    EXPECT_FLOAT_EQ(t[1 * 60 + 2 * 20 + 3 * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t({2, 6});
    for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
    const Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_EQ(r.dim(1), 4);
    for (std::int64_t i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
}

TEST(Tensor, ReshapeBadCountThrows) {
    Tensor t({2, 3});
    EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ShapeToString) {
    EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
    EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Ops, AddSubMul) {
    Tensor a({4}), b({4});
    for (int i = 0; i < 4; ++i) {
        a[i] = static_cast<float>(i);
        b[i] = 2.0f;
    }
    const Tensor s = add(a, b);
    const Tensor d = sub(a, b);
    const Tensor m = mul(a, b);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(s[i], i + 2.0f);
        EXPECT_FLOAT_EQ(d[i], i - 2.0f);
        EXPECT_FLOAT_EQ(m[i], i * 2.0f);
    }
}

TEST(Ops, ShapeMismatchThrows) {
    Tensor a({2}), b({3});
    EXPECT_THROW(add(a, b), std::invalid_argument);
    EXPECT_THROW(mul(a, b), std::invalid_argument);
}

TEST(Ops, AxpyInplace) {
    Tensor a({3}, 1.0f), b({3}, 2.0f);
    axpy_inplace(a, 0.5f, b);
    for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a[i], 2.0f);
}

TEST(Ops, Reductions) {
    Tensor a({4});
    a[0] = 1;
    a[1] = -2;
    a[2] = 3;
    a[3] = -4;
    EXPECT_DOUBLE_EQ(sum(a), -2.0);
    EXPECT_DOUBLE_EQ(mean(a), -0.5);
    EXPECT_FLOAT_EQ(max_abs(a), 4.0f);
    EXPECT_NEAR(l2_norm(a), std::sqrt(30.0), 1e-9);
}

TEST(Ops, AbsMoments) {
    const float v[4] = {1.0f, -1.0f, 3.0f, -3.0f};
    double mu, sigma;
    abs_moments(v, 4, mu, sigma);
    EXPECT_DOUBLE_EQ(mu, 2.0);
    EXPECT_DOUBLE_EQ(sigma, 1.0);
}

// The selection abs_percentile_nonzero must reproduce bit for bit: every
// non-zero |x| copied out, then std::nth_element at the same rank.
double percentile_reference(const Tensor& a, double percentile) {
    std::vector<float> mags;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (a[i] != 0.0f) mags.push_back(std::fabs(a[i]));
    if (mags.empty()) return 0.0;
    auto k = static_cast<std::size_t>(percentile *
                                      static_cast<double>(mags.size()));
    if (k >= mags.size()) k = mags.size() - 1;
    std::nth_element(mags.begin(),
                     mags.begin() + static_cast<std::ptrdiff_t>(k), mags.end());
    return mags[k];
}

void expect_same_percentiles(const Tensor& a) {
    for (const double q : {0.005, 0.5, 0.995, 1.0}) {
        SCOPED_TRACE("percentile " + std::to_string(q));
        const double got = abs_percentile_nonzero(a, q);
        const double want = percentile_reference(a, q);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << got << " vs " << want;
    }
}

TEST(Ops, AbsPercentileNonzeroMatchesNthElement) {
    // Sizes 1 to 40 000, each filled three ways: Gaussian weights with a
    // third of the entries ±0; a few repeated magnitudes, so the selected
    // value is tied; and denormals mixed with negative normals.
    util::Rng rng(31);
    const float tiny = std::numeric_limits<float>::denorm_min();
    for (const std::int64_t n : {1, 2, 3, 5, 17, 100, 1023, 4096, 40000}) {
        for (int fill = 0; fill < 3; ++fill) {
            SCOPED_TRACE("n " + std::to_string(n) + ", fill " +
                         std::to_string(fill));
            Tensor a({n});
            for (std::int64_t i = 0; i < n; ++i) {
                const double u = rng.uniform();
                if (fill == 0)
                    a[i] = u < 0.17 ? 0.0f
                           : u < 0.34
                               ? -0.0f
                               : static_cast<float>(rng.normal(0.0, 0.1));
                if (fill == 1)
                    a[i] = static_cast<float>((u < 0.5 ? -0.25 : 0.25) *
                                              static_cast<double>(i % 3));
                if (fill == 2)
                    a[i] = u < 0.5 ? tiny * static_cast<float>(i % 1000 + 1)
                                   : -static_cast<float>(rng.uniform(0.0, 2.0));
            }
            expect_same_percentiles(a);
        }
    }
}

TEST(Ops, AbsPercentileNonzeroOfOneOrNoNonZero) {
    for (const std::int64_t n : {1, 2, 9, 40000}) {
        SCOPED_TRACE("n " + std::to_string(n));
        Tensor a({n}, 0.0f);
        a[n - 1] = -0.0f;
        EXPECT_EQ(abs_percentile_nonzero(a, 0.5), 0.0);
        expect_same_percentiles(a);
        a[n / 2] = -3.5e-3f;
        for (const double q : {0.005, 0.5, 0.995, 1.0})
            EXPECT_EQ(abs_percentile_nonzero(a, q), 3.5e-3f);
        expect_same_percentiles(a);
    }
}

TEST(Ops, ArgmaxRow) {
    Tensor a({2, 3});
    a.at(0, 0) = 1;
    a.at(0, 1) = 5;
    a.at(0, 2) = 2;
    a.at(1, 0) = 9;
    a.at(1, 1) = 0;
    a.at(1, 2) = 3;
    EXPECT_EQ(argmax_row(a, 0), 1);
    EXPECT_EQ(argmax_row(a, 1), 0);
}

TEST(Ops, Transpose) {
    Tensor a({2, 3});
    for (std::int64_t i = 0; i < 6; ++i) a[i] = static_cast<float>(i);
    const Tensor t = transpose(a);
    EXPECT_EQ(t.dim(0), 3);
    EXPECT_EQ(t.dim(1), 2);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(t.at(j, i), a.at(i, j));
}

TEST(Ops, TransposeInvolution) {
    util::Rng rng(3);
    Tensor a({5, 7});
    fill_normal(a, rng, 0.0f, 1.0f);
    EXPECT_TRUE(allclose(transpose(transpose(a)), a, 0.0f, 0.0f));
}

TEST(Ops, FillKaimingVariance) {
    util::Rng rng(5);
    Tensor a({20000});
    fill_kaiming(a, rng, 50);
    double sq = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        sq += static_cast<double>(a[i]) * a[i];
    EXPECT_NEAR(sq / a.numel(), 2.0 / 50.0, 0.004);
}

TEST(Ops, Allclose) {
    Tensor a({3}, 1.0f), b({3}, 1.0f);
    EXPECT_TRUE(allclose(a, b));
    b[1] = 1.1f;
    EXPECT_FALSE(allclose(a, b, 1e-5f, 1e-5f));
    EXPECT_NEAR(max_abs_diff(a, b), 0.1f, 1e-6f);
}

TEST(Serialize, RoundTrip) {
    util::Rng rng(7);
    Tensor a({3, 4, 5});
    fill_normal(a, rng, 0.0f, 2.0f);
    std::stringstream ss;
    write_tensor(ss, a);
    const Tensor b = read_tensor(ss);
    EXPECT_TRUE(allclose(a, b, 0.0f, 0.0f));
    EXPECT_EQ(a.shape(), b.shape());
}

TEST(Serialize, CorruptMagicThrows) {
    std::stringstream ss;
    ss << "NOPE";
    EXPECT_THROW(read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedThrows) {
    util::Rng rng(9);
    Tensor a({4, 4});
    fill_normal(a, rng, 0.0f, 1.0f);
    std::stringstream ss;
    write_tensor(ss, a);
    std::string s = ss.str();
    s.resize(s.size() / 2);
    std::stringstream cut(s);
    EXPECT_THROW(read_tensor(cut), std::runtime_error);
}

}  // namespace
}  // namespace xs::tensor
