#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(Gemm, MatmulTnNt) {
    util::Rng rng(9);
    Tensor a({6, 4}), b({6, 5});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    // Aᵀ·B == ref(transpose(A), B)
    EXPECT_TRUE(allclose(matmul_tn(a, b), ref_matmul(transpose(a), b), 1e-4f, 1e-4f));
    Tensor c({5, 4});  // A·Cᵀ: (6,4)·(4,5)
    fill_normal(c, rng, 0.0f, 1.0f);
    EXPECT_TRUE(allclose(matmul_nt(a, c), ref_matmul(a, transpose(c)), 1e-4f, 1e-4f));
}

TEST(Gemm, InnerDimMismatchThrows) {
    Tensor a({2, 3}), b({4, 2});
    EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Gemv, MatchesMatmul) {
    util::Rng rng(11);
    Tensor a({7, 9}), x({9, 1});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(x, rng, 0.0f, 1.0f);
    std::vector<float> y(7);
    gemv(7, 9, a.data(), x.data(), y.data());
    const Tensor r = matmul(a, x);
    for (int i = 0; i < 7; ++i) EXPECT_NEAR(y[static_cast<std::size_t>(i)], r[i], 1e-4f);
}

TEST(Gemm, ZeroInnerDimension) {
    // k = 0 with beta=0 must produce zeros, not read from B.
    Tensor c({2, 2}, 5.0f);
    gemm(2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f, c.data(), 2);
    for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
}

TEST(GemmPrepacked, SerialMatchesReference) {
    // Odd sizes exercise panel tails in both dimensions and multiple
    // k-blocks (k > kPackKc).
    for (const auto& [m, n, k] : {std::tuple{16, 64, 27}, {33, 100, 300},
                                 {8, 16, 512}, {128, 4, 1152}}) {
        util::Rng rng(static_cast<std::uint64_t>(m + n + k));
        Tensor a({m, k}), b({k, n});
        fill_normal(a, rng, 0.0f, 1.0f);
        fill_normal(b, rng, 0.0f, 1.0f);
        PackedGemmA pa;
        gemm_pack_a(m, k, a.data(), k, pa);
        EXPECT_FALSE(pa.sparse);
        Tensor c({m, n});
        gemm_prepacked_serial(pa, a.data(), k, n, 1.0f, b.data(), n, 0.0f,
                              c.data(), n);
        const Tensor r = ref_matmul(a, b);
        EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
            << m << "x" << n << "x" << k << " max diff " << max_abs_diff(c, r);
    }
}

TEST(GemmPrepacked, SparseAUsesZeroSkipAndMatches) {
    util::Rng rng(21);
    Tensor a({48, 96}), b({96, 40});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (rng.uniform() < 0.9) a[i] = 0.0f;
    PackedGemmA pa;
    gemm_pack_a(48, 96, a.data(), 96, pa);
    EXPECT_TRUE(pa.sparse);
    Tensor c({48, 40});
    gemm_prepacked_serial(pa, a.data(), 96, 40, 1.0f, b.data(), 40, 0.0f,
                          c.data(), 40);
    const Tensor r = ref_matmul(a, b);
    EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f));
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

// Verbatim copy of the scalar zero-skip tile loop that row-sparse A (pruned
// weights) used to run through in gemm_prepacked_tiles. Pruned layers now
// share the packed register-tiled kernel, which must reproduce this loop's
// results bit for bit.
void zero_skip_tiles(const PackedGemmA& pa, const float* a_raw,
                     std::int64_t lda, const float* packed_b, std::int64_t n,
                     float* c, std::int64_t ldc, const float* bias, bool relu,
                     std::int64_t tile_lo, std::int64_t tile_hi) {
    constexpr std::int64_t kMr = kPackMr, kNr = kPackNr, kKc = kPackKc,
                           kNc = kPackNc;
    const std::int64_t m = pa.m, k = pa.k;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    const std::int64_t block_panels = kNc / kNr;  // panels per full n-block
    for (std::int64_t t = tile_lo; t < tile_hi; ++t) {
        const std::int64_t nb = t / row_panels;  // n-block index
        const std::int64_t ip = t % row_panels;  // row-panel index
        const std::int64_t jc = nb * kNc;
        const std::int64_t j1 = std::min(n, jc + kNc);
        const std::int64_t ib = ip * kMr;
        const std::int64_t i_hi = std::min(m, ib + kMr);
        const std::int64_t blk_panels = (j1 - jc + kNr - 1) / kNr;
        // The n-block's packed region: full blocks before it hold
        // block_panels panels each, k rows, kNr lanes.
        const float* bblock = packed_b + nb * block_panels * k * kNr;

        // Zero-skip kernel over packed panels: pays only for non-zero
        // weights (pruned layers).
        for (std::int64_t i = ib; i < i_hi; ++i)
            std::fill(c + i * ldc + jc, c + i * ldc + j1, 0.0f);
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
                    for (std::int64_t jp = 0; jp < blk_panels; ++jp) {
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
                    for (std::int64_t j = jc; j < j1; ++j)
                        ci[j] = std::max(ci[j] + add, 0.0f);
                } else {
                    for (std::int64_t j = jc; j < j1; ++j) ci[j] += add;
                }
            }
        }
    }
}

// Sparsity patterns of pruned conv weights (m output channels × k patch
// entries), each well under the 25 % density that makes A row-sparse.
enum class Pattern { kRandom, kChannelFilter, kXbarColumns };

void prune_pattern(Tensor& a, Pattern pattern, util::Rng& rng) {
    const std::int64_t m = a.dim(0), k = a.dim(1);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t p = 0; p < k; ++p) {
            bool keep = true;
            switch (pattern) {
                case Pattern::kRandom:
                    // Scattered weights, plus all-zero rows and columns and
                    // an all-zero row panel (rows 8..15: empty live lists).
                    keep = rng.uniform() < 0.15 && i % 5 != 3 &&
                           p % 7 != 2 && (i < 8 || i >= 16);
                    break;
                case Pattern::kChannelFilter:
                    // Whole filters (rows) and whole input channels (runs
                    // of 9 patch entries) pruned.
                    keep = i % 3 == 0 && (p / 9) % 5 < 2;
                    break;
                case Pattern::kXbarColumns:
                    // Zeroed column segments: each output keeps a few
                    // 16-long runs of its patch (one crossbar column's
                    // segment per tile row), chosen per output.
                    keep = (p / 16 + 3 * i) % 7 == 0;
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
    prune_pattern(a, Pattern::kXbarColumns, rng);
    PackedGemmA pa;
    gemm_pack_a(37, 280, a.data(), 280, pa);
    ASSERT_TRUE(pa.sparse);
    const float* panels = pa.panels.data();
    const std::int32_t* live = pa.live.data();
    const std::int64_t* live_begin = pa.live_begin.data();
    gemm_pack_a(37, 280, a.data(), 280, pa);
    EXPECT_EQ(pa.panels.data(), panels);
    EXPECT_EQ(pa.live.data(), live);
    EXPECT_EQ(pa.live_begin.data(), live_begin);
}

TEST(GemmPrepacked, RowSparseTilesAreBitIdenticalToZeroSkipLoop) {
    struct Case {
        std::int64_t m, n, k;
        Pattern pattern;
    };
    // k spans one to three k-blocks; m is not a multiple of kPackMr; the n
    // values end in a second n-block whose last panel is partial, once as
    // the partner of a full panel (1048 = 1024 + 16 + 8) and once alone
    // (1100 = 1024 + 4·16 + 12).
    const Case cases[] = {
        {45, 1100, 27, Pattern::kRandom},
        {37, 1048, 280, Pattern::kRandom},
        {13, 1100, 576, Pattern::kRandom},
        {41, 1048, 27, Pattern::kChannelFilter},
        {20, 1100, 280, Pattern::kChannelFilter},
        {44, 1048, 576, Pattern::kChannelFilter},
        {39, 1100, 27, Pattern::kXbarColumns},
        {37, 1100, 280, Pattern::kXbarColumns},
        {52, 1048, 576, Pattern::kXbarColumns},
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
// bit, padded positions and panel tails included.
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
          Weights{"xcs", true, Pattern::kXbarColumns}}) {
        Tensor a({cs.cout, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        if (wk.pruned) prune_pattern(a, wk.pattern, rng);
        PackedGemmA pa;
        gemm_pack_a(cs.cout, k, a.data(), k, pa);
        // Pruned weights take the chain-accumulating row-sparse kind unless
        // the matrix is too small for gemm_pack_a to scan it.
        if (wk.pruned && cs.cout * k > (1 << 10)) {
            EXPECT_TRUE(pa.sparse) << cs.name << " " << wk.name;
        }
        // Sentinel-filled, so an element the kernel fails to write shows up
        // as a mismatch too.
        Tensor got({cs.cout, n_cols}, 7.0f), want({cs.cout, n_cols}, 7.0f);
        gemm_prepacked_tiles(pa, a.data(), k, packed.data(), n_cols,
                             want.data(), n_cols, bias.data(), /*relu=*/true,
                             0, tiles);
        gemm_conv_tiles(pa, tables, x.data(), got.data(), n_cols, bias.data(),
                        /*relu=*/true, 0, tiles);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<std::size_t>(got.numel()) *
                                  sizeof(float)),
                  0)
            << cs.name << " " << wk.name
            << (pa.sparse ? " (row-sparse)" : " (dense kind)") << " max diff "
            << max_abs_diff(got, want);
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
