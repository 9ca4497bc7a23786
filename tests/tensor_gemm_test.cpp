#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

namespace xs::tensor {
namespace {

// Naive triple-loop reference.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
            c.at(i, j) = static_cast<float>(acc);
        }
    return c;
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
    const auto [m, n, k] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
    Tensor a({m, k}), b({k, n});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    const Tensor c = matmul(a, b);
    const Tensor r = ref_matmul(a, b);
    EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
        << "max diff " << max_abs_diff(c, r);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(65, 33, 129),
                      std::make_tuple(128, 64, 256), std::make_tuple(1, 100, 50),
                      std::make_tuple(100, 1, 50), std::make_tuple(70, 70, 1)));

TEST(Gemm, SparseAMatchesReference) {
    // 90 %-sparse A above the size threshold exercises the row-sparse
    // zero-skip path; a dense B keeps the reference meaningful.
    util::Rng rng(99);
    Tensor a({64, 64}), b({64, 48});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (rng.uniform() < 0.9) a[i] = 0.0f;
    const Tensor c = matmul(a, b);
    const Tensor r = ref_matmul(a, b);
    EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
        << "max diff " << max_abs_diff(c, r);

    // alpha/beta semantics must match on the sparse path too.
    Tensor c2({64, 48}, 1.0f);
    gemm(64, 48, 64, 2.0f, a.data(), 64, b.data(), 48, 0.5f, c2.data(), 48);
    for (std::int64_t i = 0; i < c2.numel(); ++i)
        EXPECT_NEAR(c2[i], 2.0f * r[i] + 0.5f, 1e-2f);
}

TEST(Gemm, AlphaBeta) {
    util::Rng rng(3);
    Tensor a({4, 5}), b({5, 6}), c0({4, 6});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    fill_normal(c0, rng, 0.0f, 1.0f);

    Tensor c = c0;
    gemm(4, 6, 5, 2.0f, a.data(), 5, b.data(), 6, 0.5f, c.data(), 6);

    const Tensor ab = ref_matmul(a, b);
    for (std::int64_t i = 0; i < 24; ++i)
        EXPECT_NEAR(c[i], 2.0f * ab[i] + 0.5f * c0[i], 1e-4f);
}

TEST(Gemm, BetaOneAccumulates) {
    util::Rng rng(5);
    Tensor a({3, 3}), b({3, 3});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    Tensor c({3, 3}, 1.0f);
    gemm(3, 3, 3, 1.0f, a.data(), 3, b.data(), 3, 1.0f, c.data(), 3);
    const Tensor ab = ref_matmul(a, b);
    for (std::int64_t i = 0; i < 9; ++i) EXPECT_NEAR(c[i], ab[i] + 1.0f, 1e-4f);
}

TEST(Gemm, SerialMatchesParallel) {
    util::Rng rng(7);
    Tensor a({150, 90}), b({90, 110});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    Tensor c1({150, 110}), c2({150, 110});
    gemm(150, 110, 90, 1.0f, a.data(), 90, b.data(), 110, 0.0f, c1.data(), 110);
    gemm_serial(150, 110, 90, 1.0f, a.data(), 90, b.data(), 110, 0.0f, c2.data(),
                110);
    EXPECT_TRUE(allclose(c1, c2, 0.0f, 0.0f));
}

TEST(Gemm, InnerDimMismatchThrows) {
    Tensor a({2, 3}), b({4, 2});
    EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Gemm, ZeroInnerDimension) {
    // k = 0 with beta=0 must produce zeros, not read from B.
    Tensor c({2, 2}, 5.0f);
    gemm(2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f, c.data(), 2);
    for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
}

// Pack B by hand into the panel-block layout (same as im2col_pack_b's
// output) and run the tiled kernel with the fused bias+ReLU epilogue.
void pack_b_reference(const Tensor& b, std::int64_t k, std::int64_t n,
                      std::vector<float>& packed) {
    packed.assign(static_cast<std::size_t>(packed_b_size(k, n)), 0.0f);
    const std::int64_t block_panels = kPackNc / kPackNr;
    for (std::int64_t g = 0; g < packed_b_panels(n); ++g) {
        const std::int64_t nb = g / block_panels;
        const std::int64_t jp = g - nb * block_panels;
        const std::int64_t blk_panels =
            std::min(block_panels, packed_b_panels(n) - nb * block_panels);
        float* block = packed.data() + nb * block_panels * k * kPackNr;
        for (std::int64_t p = 0; p < k; ++p) {
            const std::int64_t pc = (p / kPackKc) * kPackKc;
            const std::int64_t kc = std::min(kPackKc, k - pc);
            float* dst = block + blk_panels * pc * kPackNr +
                         jp * kc * kPackNr + (p - pc) * kPackNr;
            for (std::int64_t l = 0; l < kPackNr; ++l) {
                const std::int64_t j = g * kPackNr + l;
                dst[l] = j < n ? b.at(p, j) : 0.0f;
            }
        }
    }
}

TEST(GemmPrepacked, TilesWithFusedEpilogueMatchReference) {
    for (const bool sparse : {false, true}) {
        const std::int64_t m = 24, n = 1100, k = 280;  // spans block tails
        util::Rng rng(sparse ? 31u : 32u);
        Tensor a({m, k}), b({k, n}), bias({m});
        fill_normal(a, rng, 0.0f, 1.0f);
        fill_normal(b, rng, 0.0f, 1.0f);
        fill_normal(bias, rng, 0.0f, 1.0f);
        if (sparse)
            for (std::int64_t i = 0; i < a.numel(); ++i)
                if (rng.uniform() < 0.9) a[i] = 0.0f;
        PackedGemmA pa;
        gemm_pack_a(m, k, a.data(), k, pa);
        EXPECT_EQ(pa.sparse, sparse);
        std::vector<float> packed;
        pack_b_reference(b, k, n, packed);
        Tensor c({m, n});
        gemm_prepacked_tiles(pa, a.data(), k, packed.data(), n, c.data(), n,
                             bias.data(), /*relu=*/true, 0,
                             gemm_tile_count(m, n));
        Tensor r = ref_matmul(a, b);
        for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < n; ++j)
                r.at(i, j) = std::max(r.at(i, j) + bias[i], 0.0f);
        EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
            << (sparse ? "sparse" : "dense") << " max diff "
            << max_abs_diff(c, r);
    }
}

// The scalar zero-skip tile loop that row-sparse A (pruned weights) used to
// run through in gemm_prepacked_tiles, over today's (row group × column
// slice) tiles. Pruned layers now share the packed register-tiled kernel,
// which must reproduce this loop's results bit for bit.
void zero_skip_tiles(const PackedGemmA& pa, const float* a_raw,
                     std::int64_t lda, const float* packed_b, std::int64_t n,
                     float* c, std::int64_t ldc, const float* bias, bool relu,
                     std::int64_t tile_lo, std::int64_t tile_hi) {
    constexpr std::int64_t kNr = kPackNr, kKc = kPackKc, kNc = kPackNc;
    const std::int64_t m = pa.m, k = pa.k;
    const std::int64_t groups = (m + kPackMc - 1) / kPackMc;
    const std::int64_t block_panels = kNc / kNr;  // panels per full n-block
    for (std::int64_t t = tile_lo; t < tile_hi; ++t) {
        const std::int64_t g = t % groups;  // row-group index
        const std::int64_t s0 = t / groups * gemm_tile_width(n);  // slice
        const std::int64_t s1 = std::min(n, s0 + gemm_tile_width(n));
        const std::int64_t nb = s0 / kNc;  // n-block index
        const std::int64_t jc = nb * kNc;
        const std::int64_t j1 = std::min(n, jc + kNc);
        const std::int64_t ib = g * kPackMc;
        const std::int64_t i_hi = std::min(m, ib + kPackMc);
        const std::int64_t blk_panels = (j1 - jc + kNr - 1) / kNr;
        // The n-block's packed region: full blocks before it hold
        // block_panels panels each, k rows, kNr lanes.
        const float* bblock = packed_b + nb * block_panels * k * kNr;

        // Zero-skip kernel over packed panels: pays only for non-zero
        // weights (pruned layers).
        for (std::int64_t i = ib; i < i_hi; ++i)
            std::fill(c + i * ldc + s0, c + i * ldc + s1, 0.0f);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            const std::int64_t kc = k1 - pc;
            const float* bsub = bblock + blk_panels * pc * kNr;
            for (std::int64_t i = ib; i < i_hi; ++i) {
                const float* ai = a_raw + i * lda;
                float* ci = c + i * ldc + jc;
                for (std::int64_t p = pc; p < k1; ++p) {
                    const float aip = ai[p];
                    if (aip == 0.0f) continue;
                    const float* brow = bsub + (p - pc) * kNr;
                    for (std::int64_t jp = (s0 - jc) / kNr;
                         jp < (s1 - jc + kNr - 1) / kNr; ++jp) {
                        const float* bp = brow + jp * kc * kNr;
                        float* cp = ci + jp * kNr;
                        const std::int64_t nr =
                            std::min(kNr, j1 - jc - jp * kNr);
                        for (std::int64_t l = 0; l < nr; ++l)
                            cp[l] += aip * bp[l];
                    }
                }
            }
        }
        if (bias != nullptr || relu) {
            for (std::int64_t i = ib; i < i_hi; ++i) {
                const float add = bias ? bias[i] : 0.0f;
                float* ci = c + i * ldc;
                if (relu) {
                    for (std::int64_t j = s0; j < s1; ++j)
                        ci[j] = std::max(ci[j] + add, 0.0f);
                } else {
                    for (std::int64_t j = s0; j < s1; ++j) ci[j] += add;
                }
            }
        }
    }
}

// Sparsity patterns of pruned conv weights (m output channels × k patch
// entries), each well under the 25 % density that makes A row-sparse.
enum class Pattern {
    kRandom,
    kChannelFilter,
    kXbarSegments,
    kXbarRuns,
    kXbarRows
};

// The `keep` largest of `scores` (ties to the lower index), as
// prune::prune_at_init ranks its structures.
std::vector<bool> keep_top(const std::vector<double>& scores,
                           std::int64_t keep) {
    std::vector<std::size_t> order(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         return scores[x] > scores[y];
                     });
    std::vector<bool> kept(scores.size(), false);
    for (std::size_t i = 0; i < static_cast<std::size_t>(keep); ++i)
        kept[order[i]] = true;
    return kept;
}

// Crossbar-segment pruning of a (m × k) weight matrix at 0.8 sparsity,
// mirroring prune::prune_segments: XCS zeroes 32-long runs of one row's k
// (a crossbar column's segment, kept per (block, output)); XRS zeroes
// 32-row runs of one k (kept per (k, block of outputs)). The lowest-norm
// 80 % of the segments go.
void prune_xbar_segments(Tensor& a, bool columns) {
    constexpr std::int64_t seg = 32;
    const std::int64_t m = a.dim(0), k = a.dim(1);
    const std::int64_t outer = columns ? m : k;
    const std::int64_t blocks = ((columns ? k : m) + seg - 1) / seg;
    const auto at = [&](std::int64_t o, std::int64_t b,
                        std::int64_t x) -> float* {
        const std::int64_t in = b * seg + x;
        if (in >= (columns ? k : m)) return nullptr;
        return columns ? &a.at(o, in) : &a.at(in, o);
    };
    std::vector<double> scores(static_cast<std::size_t>(outer * blocks));
    for (std::int64_t o = 0; o < outer; ++o)
        for (std::int64_t b = 0; b < blocks; ++b)
            for (std::int64_t x = 0; x < seg; ++x)
                if (const float* v = at(o, b, x))
                    scores[static_cast<std::size_t>(b * outer + o)] +=
                        static_cast<double>(*v) * *v;
    const std::vector<bool> kept = keep_top(
        scores, std::llround(0.2 * static_cast<double>(outer * blocks)));
    for (std::int64_t o = 0; o < outer; ++o)
        for (std::int64_t b = 0; b < blocks; ++b)
            if (!kept[static_cast<std::size_t>(b * outer + o)])
                for (std::int64_t x = 0; x < seg; ++x)
                    if (float* v = at(o, b, x)) *v = 0.0f;
}

void prune_pattern(Tensor& a, Pattern pattern, util::Rng& rng) {
    if (pattern == Pattern::kXbarSegments || pattern == Pattern::kXbarRows) {
        prune_xbar_segments(a, pattern == Pattern::kXbarSegments);
        return;
    }
    const std::int64_t m = a.dim(0), k = a.dim(1);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t p = 0; p < k; ++p) {
            bool keep = true;
            switch (pattern) {
                case Pattern::kRandom:
                    // Scattered weights, plus all-zero rows and columns, an
                    // all-zero row panel (rows 8..15), an all-zero 32-row
                    // group (rows 32..63: no gathered panel but the zero
                    // store), and row 2, live only in the last k-segment
                    // (its first panel is also its last).
                    if (i == 2) {
                        keep = p >= k - kPackKs / 2 && p % 7 != 2;
                        break;
                    }
                    keep = rng.uniform() < 0.15 && i % 5 != 3 &&
                           p % 7 != 2 && (i < 8 || i >= 16) &&
                           (i < 32 || i >= 64);
                    break;
                case Pattern::kChannelFilter:
                    // Whole filters (rows) and whole input channels (runs
                    // of 9 patch entries) pruned.
                    keep = i % 3 == 0 && (p / 9) % 5 < 2;
                    break;
                case Pattern::kXbarRuns:
                    // Each output keeps a few 16-long runs of its patch,
                    // chosen per output; half of them straddle a 32-k
                    // segment boundary.
                    keep = (p / 16 + 3 * i) % 7 == 0;
                    break;
                default:
                    break;
            }
            if (!keep) a.at(i, p) = 0.0f;
        }
}

TEST(GemmPrepacked, RepackingRowSparseReusesStorage) {
    // Compiling a degraded instance repacks its weights; the steady state
    // must not allocate, so a repack keeps every buffer it already has.
    util::Rng rng(41);
    Tensor a({37, 280});
    fill_normal(a, rng, 0.0f, 1.0f);
    prune_pattern(a, Pattern::kXbarSegments, rng);
    PackedGemmA pa;
    gemm_pack_a(37, 280, a.data(), 280, pa);
    ASSERT_TRUE(pa.sparse);
    const float* panels = pa.panels.data();
    const PackedGemmA::Panel* gathered = pa.gathered.data();
    const std::int32_t* live = pa.live.data();
    const std::int64_t* group_begin = pa.group_begin.data();
    gemm_pack_a(37, 280, a.data(), 280, pa);
    EXPECT_EQ(pa.panels.data(), panels);
    EXPECT_EQ(pa.gathered.data(), gathered);
    EXPECT_EQ(pa.live.data(), live);
    EXPECT_EQ(pa.group_begin.data(), group_begin);
}

// The packed floats are the kernel's multiply work: packed k-columns ×
// kPackMr rows, multiplied against every 16-column B panel. Gathering a
// segment's live rows must pay for those rows only.
TEST(GemmPrepacked, RowSparsePackingPaysForLiveRowsOnly) {
    const std::int64_t m = 64, k = 576;
    const auto dense_work = static_cast<double>(m * k);
    util::Rng rng(43);
    {
        // XCS at 0.8, shaped as prune_segments leaves a VGG11 conv layer:
        // about 20 % of the rows live in each 32-k segment. Fixed 8-row
        // panels, which skip a k only when all 8 rows are zero there, would
        // keep about 0.83 of the dense work.
        Tensor a({m, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        prune_pattern(a, Pattern::kXbarSegments, rng);
        PackedGemmA pa;
        gemm_pack_a(m, k, a.data(), k, pa);
        ASSERT_TRUE(pa.sparse);
        EXPECT_LE(static_cast<double>(pa.panels.size()), 0.45 * dense_work)
            << "xcs packs " << static_cast<double>(pa.panels.size()) / dense_work
            << " of dense";
    }
    {
        // C/F at 0.8: a fifth of the filters over a fifth of the input
        // channels. Each group packs its live rows, rounded up to whole
        // panels, over the live k only.
        Tensor a({m, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t p = 0; p < k; ++p)
                if (i % 5 != 0 || (p / 9) % 5 != 0) a.at(i, p) = 0.0f;
        PackedGemmA pa;
        gemm_pack_a(m, k, a.data(), k, pa);
        ASSERT_TRUE(pa.sparse);
        std::int64_t live_k = 0;
        for (std::int64_t p = 0; p < k; ++p) live_k += (p / 9) % 5 == 0;
        std::int64_t bound = 0;
        for (std::int64_t g0 = 0; g0 < m; g0 += kPackMc) {
            std::int64_t live_rows = 0;
            for (std::int64_t i = g0; i < std::min(m, g0 + kPackMc); ++i)
                live_rows += i % 5 == 0;
            bound += (live_rows + kPackMr - 1) / kPackMr * kPackMr * live_k;
        }
        EXPECT_LE(static_cast<std::int64_t>(pa.panels.size()), bound);
    }
    {
        // XRS at 0.8 (32-row runs of one k): every live row of a group is
        // live at the same k, so gathering packs exactly what fixed 8-row
        // panels holding each k where one of their rows is non-zero pack.
        Tensor a({m, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        prune_pattern(a, Pattern::kXbarRows, rng);
        PackedGemmA pa;
        gemm_pack_a(m, k, a.data(), k, pa);
        ASSERT_TRUE(pa.sparse);
        std::int64_t fixed_panels = 0;  // Σ live k of each 8-row panel
        for (std::int64_t ib = 0; ib < m; ib += kPackMr)
            for (std::int64_t p = 0; p < k; ++p) {
                bool live = false;
                for (std::int64_t i = ib; i < std::min(m, ib + kPackMr); ++i)
                    live |= a.at(i, p) != 0.0f;
                fixed_panels += live;
            }
        EXPECT_EQ(static_cast<std::int64_t>(pa.panels.size()),
                  fixed_panels * kPackMr);
    }
}

// The partial last column panel stores through a scalar tail. It must
// apply the epilogue in the vector path's order, (acc + C) + bias, or an
// output of a multi-k-block dense layer rounds differently there.
TEST(GemmPrepacked, PartialPanelStoresLikeAFullPanel) {
    for (const bool sparse : {false, true}) {
        const std::int64_t m = 32, n = 24, k = 600;  // three k-blocks
        util::Rng rng(sparse ? 51u : 52u);
        Tensor a({m, k}), b({k, n}), bias({m});
        fill_normal(a, rng, 0.0f, 1.0f);
        fill_normal(b, rng, 0.0f, 1.0f);
        fill_normal(bias, rng, 0.0f, 1.0f);
        if (sparse)
            for (std::int64_t i = 0; i < a.numel(); ++i)
                if (rng.uniform() < 0.9) a[i] = 0.0f;
        // Column 16, in the partial second panel, repeats column 0.
        for (std::int64_t p = 0; p < k; ++p) b.at(p, 16) = b.at(p, 0);
        PackedGemmA pa;
        gemm_pack_a(m, k, a.data(), k, pa);
        ASSERT_EQ(pa.sparse, sparse);
        std::vector<float> packed;
        pack_b_reference(b, k, n, packed);
        for (const bool relu : {false, true}) {
            Tensor c({m, n});
            gemm_prepacked_tiles(pa, a.data(), k, packed.data(), n, c.data(),
                                 n, bias.data(), relu, 0,
                                 gemm_tile_count(m, n));
            for (std::int64_t i = 0; i < m; ++i) {
                const float full = c.at(i, 0), partial = c.at(i, 16);
                EXPECT_EQ(std::memcmp(&full, &partial, sizeof(float)), 0)
                    << (sparse ? "sparse" : "dense") << " relu " << relu
                    << " row " << i << ": " << full << " vs " << partial;
            }
        }
    }
}

TEST(GemmPrepacked, RowSparseTilesAreBitIdenticalToZeroSkipLoop) {
    struct Case {
        std::int64_t m, n, k;
        Pattern pattern;
    };
    // k spans one to three k-blocks; m is not a multiple of kPackMr, and
    // from 33 rows on the tiles have a second row group (from 65, a third,
    // after kRandom's all-zero group); the n values end in a second
    // n-block whose last panel is partial, once as the partner of a full
    // panel (1048 = 1024 + 16 + 8) and once alone (1100 = 1024 + 4·16 + 12).
    const Case cases[] = {
        {45, 1100, 27, Pattern::kRandom},
        {37, 1048, 280, Pattern::kRandom},
        {13, 1100, 576, Pattern::kRandom},
        {70, 1048, 600, Pattern::kRandom},
        {41, 1048, 27, Pattern::kChannelFilter},
        {20, 1100, 280, Pattern::kChannelFilter},
        {44, 1048, 576, Pattern::kChannelFilter},
        {39, 1100, 27, Pattern::kXbarSegments},
        {37, 1100, 280, Pattern::kXbarSegments},
        {52, 1048, 576, Pattern::kXbarSegments},
        {64, 1100, 600, Pattern::kXbarSegments},
        {37, 1100, 280, Pattern::kXbarRuns},
        {52, 1048, 576, Pattern::kXbarRuns},
        {64, 1048, 576, Pattern::kXbarRows},
    };
    for (const Case& cs : cases) {
        util::Rng rng(static_cast<std::uint64_t>(cs.m * 131 + cs.k));
        Tensor a({cs.m, cs.k}), b({cs.k, cs.n}), bias({cs.m});
        fill_normal(a, rng, 0.0f, 1.0f);
        fill_normal(b, rng, 0.0f, 1.0f);
        fill_normal(bias, rng, 0.0f, 1.0f);
        prune_pattern(a, cs.pattern, rng);
        PackedGemmA pa;
        gemm_pack_a(cs.m, cs.k, a.data(), cs.k, pa);
        ASSERT_TRUE(pa.sparse) << cs.m << "x" << cs.k;
        std::vector<float> packed;
        pack_b_reference(b, cs.k, cs.n, packed);
        const std::int64_t tiles = gemm_tile_count(cs.m, cs.n);
        for (const bool with_bias : {false, true})
            for (const bool relu : {false, true}) {
                const float* bias_ptr = with_bias ? bias.data() : nullptr;
                // Sentinel-filled, so an element the kernel fails to write
                // shows up as a mismatch too.
                Tensor got({cs.m, cs.n}, 7.0f), want({cs.m, cs.n}, 7.0f);
                gemm_prepacked_tiles(pa, a.data(), cs.k, packed.data(), cs.n,
                                     got.data(), cs.n, bias_ptr, relu, 0,
                                     tiles);
                zero_skip_tiles(pa, a.data(), cs.k, packed.data(), cs.n,
                                want.data(), cs.n, bias_ptr, relu, 0, tiles);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      static_cast<std::size_t>(got.numel()) *
                                          sizeof(float)),
                          0)
                    << cs.m << "x" << cs.n << "x" << cs.k << " pattern "
                    << static_cast<int>(cs.pattern) << " bias " << with_bias
                    << " relu " << relu << " max diff "
                    << max_abs_diff(got, want);
            }
    }
}

// The inference engine's conv GEMM reads B in place from the activation
// (gemm_conv_tiles). The packed path it replaced — im2col_pack_b into
// panels, then gemm_prepacked_tiles — is its reference: same tiles, same
// FMA sequence per output, same B values, so the outputs must match bit for
// bit, padded positions and panel tails included. For pruned weights the
// packed path must in turn match the zero-skip loop bit for bit.
struct ConvCase {
    const char* name;
    std::int64_t n, c, h, w, cout, kernel;
    bool nchw;  // batch-major input read in place (else channel-major)
};

void expect_conv_matches_packed(const ConvCase& cs) {
    const std::int64_t pad = (cs.kernel - 1) / 2;
    const std::int64_t hw = cs.h * cs.w;
    const std::int64_t k = cs.c * cs.kernel * cs.kernel;
    const std::int64_t n_cols = cs.n * hw;
    const std::int64_t s_img = cs.nchw ? cs.c * hw : hw;
    const std::int64_t s_c = cs.nchw ? hw : cs.n * hw;
    util::Rng rng(static_cast<std::uint64_t>(cs.n * 1009 + cs.c * 31 + cs.h));
    Tensor x({cs.n * cs.c * hw}), bias({cs.cout});
    fill_normal(x, rng, 0.0f, 1.0f);
    fill_normal(bias, rng, 0.0f, 1.0f);

    std::vector<float> packed(static_cast<std::size_t>(packed_b_size(k, n_cols)));
    im2col_pack_b(x.data(), cs.n, cs.c, cs.h, cs.w, s_img, s_c, cs.kernel,
                  cs.kernel, 1, pad, packed.data(), 0, packed_b_panels(n_cols));
    ConvTables tables;
    conv_tables(cs.n, cs.c, cs.h, cs.w, s_img, s_c, cs.kernel, pad, tables);
    ASSERT_EQ(tables.n_cols, n_cols);

    const std::int64_t tiles = gemm_tile_count(cs.cout, n_cols);
    struct Weights {
        const char* name;
        bool pruned;
        Pattern pattern;
    };
    for (const Weights& wk :
         {Weights{"dense", false, Pattern::kRandom},
          Weights{"c/f", true, Pattern::kChannelFilter},
          Weights{"xcs", true, Pattern::kXbarSegments},
          Weights{"xcs runs", true, Pattern::kXbarRuns}}) {
        Tensor a({cs.cout, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        if (wk.pruned) prune_pattern(a, wk.pattern, rng);
        PackedGemmA pa;
        gemm_pack_a(cs.cout, k, a.data(), k, pa);
        // Weights under 25 % non-zero take the chain-accumulating row-sparse
        // kind unless the matrix is too small for gemm_pack_a to scan it
        // (XCS leaves conv1, whose 72-long rows end in a short segment,
        // just over the threshold).
        std::int64_t nnz = 0;
        for (std::int64_t i = 0; i < a.numel(); ++i) nnz += a[i] != 0.0f;
        EXPECT_EQ(pa.sparse,
                  cs.cout * k > (1 << 10) &&
                      nnz < static_cast<std::int64_t>(
                                0.25 * static_cast<double>(cs.cout * k)))
            << cs.name << " " << wk.name;
        for (const bool with_bias : {false, true})
            for (const bool relu : {false, true}) {
                const float* bias_ptr = with_bias ? bias.data() : nullptr;
                // Sentinel-filled, so an element the kernel fails to write
                // shows up as a mismatch too.
                Tensor got({cs.cout, n_cols}, 7.0f),
                    want({cs.cout, n_cols}, 7.0f);
                gemm_prepacked_tiles(pa, a.data(), k, packed.data(), n_cols,
                                     want.data(), n_cols, bias_ptr, relu, 0,
                                     tiles);
                gemm_conv_tiles(pa, tables, x.data(), got.data(), n_cols,
                                bias_ptr, relu, /*pool=*/false, 0, tiles);
                const auto bytes =
                    static_cast<std::size_t>(got.numel()) * sizeof(float);
                EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
                    << cs.name << " " << wk.name
                    << (pa.sparse ? " (row-sparse)" : " (dense kind)")
                    << " bias " << with_bias << " relu " << relu
                    << " max diff " << max_abs_diff(got, want);
                if (!pa.sparse) continue;
                Tensor loop({cs.cout, n_cols}, 7.0f);
                zero_skip_tiles(pa, a.data(), k, packed.data(), n_cols,
                                loop.data(), n_cols, bias_ptr, relu, 0,
                                tiles);
                EXPECT_EQ(std::memcmp(want.data(), loop.data(), bytes), 0)
                    << cs.name << " " << wk.name << " vs zero-skip loop, bias "
                    << with_bias << " relu " << relu << " max diff "
                    << max_abs_diff(want, loop);
            }
    }
}

TEST(GemmConv, InPlaceBIsBitIdenticalToPackedVggShapes) {
    // VGG11 at width 0.125 on 32×32 inputs, batch 64: every conv layer's
    // channel-major input, and the first layer's NCHW network input read in
    // place. W = 8, 4 and 2 put several rows or images in one panel; K >
    // kPackKc from conv3 on.
    const ConvCase cases[] = {
        {"conv0", 64, 3, 32, 32, 8, 3, false},
        {"conv0 nchw", 64, 3, 32, 32, 8, 3, true},
        {"conv1", 64, 8, 16, 16, 16, 3, false},
        {"conv2", 64, 16, 8, 8, 32, 3, false},
        {"conv3", 64, 32, 8, 8, 32, 3, false},
        {"conv4", 64, 32, 4, 4, 64, 3, false},
        {"conv5", 64, 64, 4, 4, 64, 3, false},
        {"conv6", 64, 64, 2, 2, 64, 3, false},
        {"conv7", 64, 64, 2, 2, 64, 3, false},
    };
    for (const ConvCase& cs : cases) expect_conv_matches_packed(cs);
}

TEST(GemmConv, InPlaceBIsBitIdenticalToPackedTails) {
    const ConvCase cases[] = {
        // n·H·W = 2205: a multiple of none of 16, 32, 1024 — a partial last
        // panel paired with a full one in the third n-block; K = 360
        // crosses the k-block; m = 20 is not a multiple of kPackMr.
        {"tail 7x7", 45, 40, 7, 7, 20, 3, false},
        // 75 columns of 5×5 images: panels straddle images at every phase,
        // and the last panel is a lone partial one.
        {"tail 5x5", 3, 6, 5, 5, 9, 3, false},
        // 1×1 kernel (pad 0), K = 300 across two k-blocks, 180 columns.
        {"1x1", 5, 300, 6, 6, 12, 1, false},
        // 5×5 kernel (pad 2) over 9×9 images.
        {"5x5 kernel", 3, 4, 9, 9, 10, 5, false},
        // NCHW in place at H·W = 16: one image per panel.
        {"nchw 4x4", 7, 5, 4, 4, 8, 3, true},
        // One image of 2×2: the whole GEMM is one partial panel.
        {"one panel", 1, 8, 2, 2, 8, 3, false},
    };
    for (const ConvCase& cs : cases) expect_conv_matches_packed(cs);
}

// A pooled gemm_conv_tiles call writes the 2×2 max-pool of its output and
// never the full-resolution map. Its reference is the unpooled call
// followed by max(max(r0[2j], r0[2j+1]), max(r1[2j], r1[2j+1])), std::max
// with its operands in that order: the two must match bit for bit.
struct PoolCase {
    const char* name;
    std::int64_t c, h, w, cout, kernel;
    bool nchw;  // batch-major input read in place (else channel-major)
};

// The reference pool of a channel-major (m × n·h·w) conv output.
std::vector<float> pool_reference(const Tensor& full, std::int64_t n,
                                  std::int64_t h, std::int64_t w) {
    const std::int64_t m = full.dim(0), oh = h / 2, ow = w / 2;
    std::vector<float> out(static_cast<std::size_t>(m * n * oh * ow));
    std::size_t o = 0;
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t img = 0; img < n; ++img)
            for (std::int64_t y = 0; y < oh; ++y) {
                const float* r0 = full.data() + i * full.dim(1) +
                                  img * h * w + 2 * y * w;
                const float* r1 = r0 + w;
                for (std::int64_t j = 0; j < ow; ++j)
                    out[o++] = std::max(std::max(r0[2 * j], r0[2 * j + 1]),
                                        std::max(r1[2 * j], r1[2 * j + 1]));
            }
    return out;
}

// One pooled conv shape at batch n: dense weights with bias + ReLU and with
// neither (up to batch 3 also with each alone), C/F-shaped ones with bias +
// ReLU and XCS-shaped ones with bias alone. The epilogue is shared; the
// weight kinds differ in how the tile carries partial sums. `poison` writes
// NaN, ±Inf and zero into the input first (1×1 kernels keep each NaN in its
// own window slot).
void expect_pooled_conv_matches(const PoolCase& cs, std::int64_t n,
                                bool poison = false) {
    const std::int64_t h = cs.h, w = cs.w, hw = h * w;
    const std::int64_t pad = (cs.kernel - 1) / 2;
    const std::int64_t k = cs.c * cs.kernel * cs.kernel;
    const std::int64_t s_img = cs.nchw ? cs.c * hw : hw;
    const std::int64_t s_c = cs.nchw ? hw : n * hw;
    util::Rng rng(static_cast<std::uint64_t>(n * 1013 + cs.c * 37 + hw));
    Tensor x({n * cs.c * hw}), bias({cs.cout});
    fill_normal(x, rng, 0.0f, 1.0f);
    fill_normal(bias, rng, 0.0f, 1.0f);
    if (poison) {
        const float odd[] = {std::nanf(""), -std::nanf(""), INFINITY,
                             -INFINITY, 0.0f, -0.0f};
        for (std::int64_t i = 0; i < x.numel(); i += 7)
            x[i] = odd[static_cast<std::size_t>(i / 7 % 6)];
    }
    ConvTables tables;
    conv_tables(n, cs.c, h, w, s_img, s_c, cs.kernel, pad, tables);
    const std::int64_t n_cols = tables.n_cols, pooled = n_cols / 4;
    const std::int64_t tiles = gemm_tile_count(cs.cout, n_cols);
    struct Weights {
        const char* name;
        bool pruned;
        Pattern pattern;
    };
    for (const Weights& wk :
         {Weights{"dense", false, Pattern::kRandom},
          Weights{"c/f", true, Pattern::kChannelFilter},
          Weights{"xcs", true, Pattern::kXbarSegments}}) {
        Tensor a({cs.cout, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        if (wk.pruned) prune_pattern(a, wk.pattern, rng);
        PackedGemmA pa;
        gemm_pack_a(cs.cout, k, a.data(), k, pa);
        for (const bool with_bias : {false, true})
            for (const bool relu : {false, true}) {
                const bool runs =
                    wk.pruned
                        ? with_bias &&
                              relu == (wk.pattern == Pattern::kChannelFilter)
                        : with_bias == relu || n <= 3;
                if (!runs) continue;
                const float* bias_ptr = with_bias ? bias.data() : nullptr;
                Tensor full({cs.cout, n_cols});
                gemm_conv_tiles(pa, tables, x.data(), full.data(), n_cols,
                                bias_ptr, relu, /*pool=*/false, 0, tiles);
                const std::vector<float> want =
                    pool_reference(full, n, h, w);
                // Sentinel-filled, so an element the kernel fails to write
                // shows up as a mismatch too.
                std::vector<float> got(want.size(), 7.0f);
                gemm_conv_tiles(pa, tables, x.data(), got.data(), pooled,
                                bias_ptr, relu, /*pool=*/true, 0, tiles);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << cs.name << " batch " << n << " " << wk.name
                    << (pa.sparse ? " (row-sparse)" : " (dense kind)")
                    << " bias " << with_bias << " relu " << relu;
            }
    }
}

TEST(GemmConv, PooledEpilogueIsBitIdenticalToConvThenPool) {
    // Every pooled conv of VGG11 and VGG16 at width 0.125 on 32×32 inputs
    // (W = 32, 16, 8, 4, 2), conv0 reading the NCHW network input in place.
    // VGG16's pooled convs 6, 9 and 12 have VGG11's conv3, 5 and 7 shapes.
    // Batches 1, 3 and 50 end in partial slices and partial 64-column pool
    // groups.
    const PoolCase cases[] = {
        {"vgg11 conv0 nchw", 3, 32, 32, 8, 3, true},
        {"vgg11 conv1", 8, 16, 16, 16, 3, false},
        {"vgg11 conv3", 32, 8, 8, 32, 3, false},
        {"vgg11 conv5", 64, 4, 4, 64, 3, false},
        {"vgg11 conv7", 64, 2, 2, 64, 3, false},
        {"vgg16 conv1", 8, 32, 32, 8, 3, false},
        {"vgg16 conv3", 16, 16, 16, 16, 3, false},
    };
    for (const PoolCase& cs : cases)
        for (const std::int64_t n : {1, 3, 50, 64})
            expect_pooled_conv_matches(cs, n);
}

TEST(GemmConv, PooledEpilogueKeepsMaxOperandOrderOnNaNAndInf) {
    // 1×1 kernels put each poisoned input in one window slot; maps of width
    // 128, 64, 32, 8 and 2 take each of the vector epilogue's paths, and
    // widths 6 and 12 (one slice each) the portable loop every build keeps.
    const PoolCase cases[] = {
        {"1x1 128x128", 2, 128, 128, 8, 1, false},
        {"1x1 64x64", 4, 64, 64, 8, 1, false},
        {"1x1 32x32", 4, 32, 32, 8, 1, false},
        {"1x1 8x8", 4, 8, 8, 8, 1, false},
        {"1x1 2x2", 4, 2, 2, 8, 1, false},
        {"1x1 2x6", 4, 2, 6, 8, 1, false},
        {"3x3 2x12", 5, 2, 12, 9, 3, false},
    };
    for (const PoolCase& cs : cases) expect_pooled_conv_matches(cs, 1, true);
    expect_pooled_conv_matches(cases[3], 3, true);
}

// A pooled tile must hold whole row pairs. gemm_tile_width gives them for
// every pooled shape of VGG11 and VGG16 at every batch the engine sees.
TEST(GemmConv, PooledTilesHoldWholeRowPairs) {
    for (const std::int64_t w : {32, 16, 8, 4, 2})
        for (std::int64_t n = 1; n <= 64; ++n) {
            const std::int64_t cols = n * w * w;
            EXPECT_TRUE(gemm_tiles_hold_row_pairs(cols, w))
                << "W " << w << " batch " << n;
            const std::int64_t width = gemm_tile_width(cols);
            for (std::int64_t j0 = 0; j0 < cols; j0 += width)
                EXPECT_EQ(std::min(cols, j0 + width) % (2 * w), 0)
                    << "W " << w << " batch " << n << " slice at " << j0;
        }
    // A 6-wide map's row pairs straddle 256-column slices, and a map wider
    // than 128 has row pairs wider than any slice.
    EXPECT_FALSE(gemm_tiles_hold_row_pairs(64 * 36, 6));
    EXPECT_FALSE(gemm_tiles_hold_row_pairs(256 * 256, 256));

    ConvTables t;
    PackedGemmA pa;
    Tensor a({8, 4 * 9}, 0.5f), x({64 * 4 * 36});
    gemm_pack_a(8, 4 * 9, a.data(), 4 * 9, pa);
    std::vector<float> y(static_cast<std::size_t>(8 * 64 * 9));
    conv_tables(64, 4, 6, 6, 36, 64 * 36, 3, 1, t);
    EXPECT_THROW(gemm_conv_tiles(pa, t, x.data(), y.data(), 64 * 9, nullptr,
                                 false, /*pool=*/true, 0,
                                 gemm_tile_count(8, t.n_cols)),
                 std::invalid_argument);
    conv_tables(1, 4, 5, 6, 30, 30, 3, 1, t);  // odd H
    EXPECT_THROW(gemm_conv_tiles(pa, t, x.data(), y.data(), 7, nullptr, false,
                                 /*pool=*/true, 0, 1),
                 std::invalid_argument);
}

TEST(GemmConv, TablesRejectGeometryTheKernelDoesNotCover) {
    ConvTables t;
    // Not a "same" convolution.
    EXPECT_THROW(conv_tables(2, 3, 8, 8, 64, 128, 3, 0, t),
                 std::invalid_argument);
    // NCHW whose panels would straddle images (H·W = 25).
    EXPECT_THROW(conv_tables(2, 3, 5, 5, 75, 25, 3, 1, t),
                 std::invalid_argument);
}

}  // namespace
}  // namespace xs::tensor
