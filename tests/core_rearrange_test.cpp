#include "core/evaluator.h"
#include "core/rearrange.h"
#include "tensor/ops.h"
#include "xbar/degrade.h"
#include "xbar/mapper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace xs::core {
namespace {

using tensor::Tensor;

// The paper's column score √(µ·σ) of one column's absolute values, one
// strided pass for µ and one for σ: the reference compute_rearrangement's
// row-major passes must reproduce bit for bit.
double column_score(const Tensor& matrix, std::int64_t col) {
    const std::int64_t rows = matrix.dim(0);
    double mu = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) mu += std::fabs(matrix.at(r, col));
    mu /= static_cast<double>(rows);
    double var = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
        const double d = std::fabs(matrix.at(r, col)) - mu;
        var += d * d;
    }
    const double sigma = std::sqrt(var / static_cast<double>(rows));
    return std::sqrt(mu * sigma);
}

TEST(ColumnScore, SqrtMuSigma) {
    // Column 0: |values| = {1, 3} -> µ = 2, σ = 1 -> score √2.
    Tensor m({2, 2});
    m.at(0, 0) = 1.0f;
    m.at(1, 0) = -3.0f;
    m.at(0, 1) = 2.0f;
    m.at(1, 1) = 2.0f;
    EXPECT_NEAR(column_score(m, 0), std::sqrt(2.0), 1e-9);
    // Column 1: µ = 2, σ = 0 -> score 0.
    EXPECT_NEAR(column_score(m, 1), 0.0, 1e-12);
}

TEST(Rearrange, MatchesColumnByColumnReferenceBitForBit) {
    // compute_rearrangement scores every column in row-major passes and
    // apply_columns copies row by row; both must equal the column-by-column
    // reference exactly: column_score per column plus a stable sort, and a
    // strided copy. Some columns repeat, negate or reorder another column,
    // or are all zero: exact ties that must keep column order, and
    // same-multiset columns whose scores differ only in rounding, so a
    // change in any column's summation order reorders them.
    util::Rng rng(9);
    for (const auto& [rows, cols] : std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>{
             {1, 1}, {1, 9}, {7, 13}, {64, 64}, {75, 301}, {300, 37}}) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
        Tensor m({rows, cols});
        tensor::fill_normal(m, rng, 0.0f, 0.2f);
        for (std::int64_t c = 0; c < cols; ++c) {
            const std::int64_t kind = c % 6, from = c / 2;
            for (std::int64_t r = 0; r < rows; ++r) {
                if (kind == 1) m.at(r, c) = m.at(r, from);
                if (kind == 2) m.at(r, c) = -m.at(r, from);
                if (kind == 3) m.at(r, c) = m.at(rows - 1 - r, from);
                if (kind == 4) m.at(r, c) = 0.0f;
            }
        }
        std::vector<double> scores(static_cast<std::size_t>(cols));
        for (std::int64_t c = 0; c < cols; ++c)
            scores[static_cast<std::size_t>(c)] = column_score(m, c);
        std::vector<std::int64_t> expected(static_cast<std::size_t>(cols));
        std::iota(expected.begin(), expected.end(), 0);
        std::stable_sort(expected.begin(), expected.end(),
                         [&](std::int64_t a, std::int64_t b) {
                             return scores[static_cast<std::size_t>(a)] <
                                    scores[static_cast<std::size_t>(b)];
                         });

        const Rearrangement r =
            compute_rearrangement(m, RearrangeOrder::kAscending);
        EXPECT_EQ(r.perm, expected);

        Tensor copied({rows, cols});
        for (std::int64_t c = 0; c < cols; ++c)
            for (std::int64_t row = 0; row < rows; ++row)
                copied.at(row, c) =
                    m.at(row, r.perm[static_cast<std::size_t>(c)]);
        const Tensor applied = apply_columns(m, r);
        ASSERT_TRUE(applied.same_shape(copied));
        EXPECT_EQ(std::memcmp(applied.data(), copied.data(),
                              static_cast<std::size_t>(m.numel()) *
                                  sizeof(float)),
                  0);
    }
}

TEST(Rearrange, PermIsValidPermutation) {
    util::Rng rng(1);
    Tensor m({8, 13});
    tensor::fill_normal(m, rng, 0.0f, 1.0f);
    for (const auto order : {RearrangeOrder::kAscending, RearrangeOrder::kCenterOut}) {
        const Rearrangement r = compute_rearrangement(m, order);
        std::set<std::int64_t> seen(r.perm.begin(), r.perm.end());
        EXPECT_EQ(seen.size(), 13u);
        EXPECT_EQ(*seen.begin(), 0);
        EXPECT_EQ(*seen.rbegin(), 12);
    }
}

TEST(Rearrange, AscendingSortsScores) {
    util::Rng rng(2);
    Tensor m({10, 7});
    tensor::fill_normal(m, rng, 0.0f, 1.0f);
    const Rearrangement r = compute_rearrangement(m, RearrangeOrder::kAscending);
    const Tensor p = apply_columns(m, r);
    double prev = -1.0;
    for (std::int64_t c = 0; c < 7; ++c) {
        const double s = column_score(p, c);
        EXPECT_GE(s, prev - 1e-12);
        prev = s;
    }
}

TEST(Rearrange, ApplyInvertRoundTrip) {
    util::Rng rng(3);
    Tensor m({6, 9});
    tensor::fill_normal(m, rng, 0.0f, 1.0f);
    for (const auto order : {RearrangeOrder::kAscending, RearrangeOrder::kCenterOut}) {
        const Rearrangement r = compute_rearrangement(m, order);
        const Tensor round = invert_columns(apply_columns(m, r), r);
        EXPECT_TRUE(tensor::allclose(round, m, 0.0f, 0.0f));
    }
}

TEST(Rearrange, CenterOutPutsLowScoresInMiddle) {
    // Columns with strictly increasing scores: 0 lowest ... 9 highest.
    Tensor m({4, 10}, 0.0f);
    for (std::int64_t c = 0; c < 10; ++c) {
        m.at(0, c) = static_cast<float>(c + 1);        // µ grows with c
        m.at(1, c) = static_cast<float>(2 * (c + 1));  // σ > 0
    }
    const Rearrangement r = compute_rearrangement(m, RearrangeOrder::kCenterOut);
    const Tensor p = apply_columns(m, r);
    // Scores at the centre must be below scores at the edges.
    const double centre = column_score(p, 4) + column_score(p, 5);
    const double edges = column_score(p, 0) + column_score(p, 9);
    EXPECT_LT(centre, edges);
}

TEST(Rearrange, GroupingLowersMeanNf) {
    // The paper's core claim for R: grouping low-conductance columns lowers
    // the average NF across tiles. Build a matrix whose even columns are
    // high-magnitude and odd columns low-magnitude; interleaved they share
    // every tile, sorted they separate into hot and cold tiles.
    const std::int64_t n = 16, cols = 32;
    util::Rng rng(4);
    Tensor m({n, cols});
    for (std::int64_t r = 0; r < n; ++r)
        for (std::int64_t c = 0; c < cols; ++c) {
            const bool hot = (c % 2) == 0;
            const double mag = hot ? rng.uniform(0.6, 1.0) : rng.uniform(0.01, 0.1);
            m.at(r, c) = static_cast<float>(rng.uniform() < 0.5 ? -mag : mag);
        }

    xbar::CrossbarConfig config;
    config.size = n;
    config.device.sigma_variation = 0.0;

    auto mean_nf = [&](const Tensor& matrix) {
        const xbar::ConductanceMapper mapper(config.device, 1.0);
        double nf_sum = 0.0;
        int tiles = 0;
        for (std::int64_t c0 = 0; c0 < cols; c0 += n) {
            Tensor sub({n, n});
            for (std::int64_t r = 0; r < n; ++r)
                for (std::int64_t c = 0; c < n; ++c)
                    sub.at(r, c) = matrix.at(r, c0 + c);
            Tensor gp, gn;
            mapper.to_differential(sub, gp, gn);
            nf_sum += xbar::degrade_tile(gp, config).nf;
            nf_sum += xbar::degrade_tile(gn, config).nf;
            tiles += 2;
        }
        return nf_sum / tiles;
    };

    const double nf_interleaved = mean_nf(m);
    const Rearrangement r = compute_rearrangement(m, RearrangeOrder::kAscending);
    const double nf_sorted = mean_nf(apply_columns(m, r));
    EXPECT_LT(nf_sorted, nf_interleaved);
}

TEST(Rearrange, RearrangedEvaluationPreservesLogicalOrder) {
    // With ideal crossbars (no parasitics/variation) R∘degrade∘R⁻¹ must be
    // numerically identity on the weights.
    util::Rng rng(5);
    Tensor m({24, 24});
    tensor::fill_normal(m, rng, 0.0f, 0.5f);

    EvalConfig config;
    config.xbar.size = 8;
    config.backend = xbar::BackendKind::kIdeal;
    config.xbar.device.sigma_variation = 0.0;
    config.rearrange = true;

    DegradeStats stats;
    util::Rng rng2(6);
    // w_ref must cover the weight range or mapping clamps at G_MAX.
    const double w_ref = tensor::max_abs(m);
    const Tensor out = degrade_mac_matrix(m, config, w_ref, rng2, stats);
    EXPECT_TRUE(tensor::allclose(out, m, 2e-3f, 2e-2f))
        << "max diff " << tensor::max_abs_diff(out, m);
}

TEST(Rearrange, SingleColumnMatrix) {
    Tensor m({4, 1}, 1.0f);
    const Rearrangement r = compute_rearrangement(m, RearrangeOrder::kAscending);
    ASSERT_EQ(r.perm.size(), 1u);
    EXPECT_EQ(r.perm[0], 0);
    EXPECT_TRUE(tensor::allclose(apply_columns(m, r), m, 0.0f, 0.0f));
}

}  // namespace
}  // namespace xs::core
