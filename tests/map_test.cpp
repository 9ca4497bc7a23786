#include "map/compaction.h"
#include "map/compression.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <set>

namespace xs::map {
namespace {

using tensor::Tensor;

TEST(MatrixView, ConvExtractInjectRoundTrip) {
    util::Rng rng(1);
    nn::Conv2d conv(3, 5, 3, 1, 1, rng);
    const Tensor original = conv.weight().value;
    const Tensor m = extract_matrix(conv);
    EXPECT_EQ(m.dim(0), 27);  // Cin·k·k
    EXPECT_EQ(m.dim(1), 5);   // Cout
    inject_matrix(conv, m);
    EXPECT_TRUE(tensor::allclose(conv.weight().value, original, 0.0f, 0.0f));
}

TEST(MatrixView, ConvMatrixOrientation) {
    util::Rng rng(2);
    nn::Conv2d conv(2, 3, 3, 1, 1, rng);
    const Tensor m = extract_matrix(conv);
    // matrix(r, c) == weight[c, r] in flattened (Cout, Cin·k·k) layout.
    for (std::int64_t c = 0; c < 3; ++c)
        for (std::int64_t r = 0; r < 18; ++r)
            EXPECT_FLOAT_EQ(m.at(r, c), conv.weight().value[c * 18 + r]);
}

TEST(MatrixView, LinearExtractInjectRoundTrip) {
    util::Rng rng(3);
    nn::Linear fc(7, 4, rng);
    const Tensor original = fc.weight().value;
    const Tensor m = extract_matrix(fc);
    EXPECT_EQ(m.dim(0), 7);
    EXPECT_EQ(m.dim(1), 4);
    inject_matrix(fc, m);
    EXPECT_TRUE(tensor::allclose(fc.weight().value, original, 0.0f, 0.0f));
}

TEST(MatrixView, MappableLayersOfVgg) {
    nn::VggConfig config;
    config.width = 0.0625;
    util::Rng rng(4);
    nn::Sequential model = nn::build_vgg(config, rng);
    const auto layers = mappable_layers(model);
    EXPECT_EQ(layers.size(), 9u);  // 8 convs + fc1
    EXPECT_EQ(layers.front()->name(), "conv1");
    EXPECT_EQ(layers.back()->name(), "fc1");
}

TEST(Compaction, DropsZeroRowsAndCols) {
    Tensor m({4, 5}, 0.0f);
    m.at(0, 1) = 1.0f;
    m.at(2, 1) = 2.0f;
    m.at(2, 3) = 3.0f;
    const Compaction c = compact_dense(m);
    EXPECT_EQ(c.rows, (std::vector<std::int64_t>{0, 2}));
    EXPECT_EQ(c.cols, (std::vector<std::int64_t>{1, 3}));
    EXPECT_EQ(c.matrix.dim(0), 2);
    EXPECT_EQ(c.matrix.dim(1), 2);
    EXPECT_FLOAT_EQ(c.matrix.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(c.matrix.at(1, 1), 3.0f);
}

TEST(Compaction, RoundTripRestoresMatrix) {
    util::Rng rng(5);
    Tensor m({10, 8});
    tensor::fill_normal(m, rng, 0.0f, 1.0f);
    // Zero two rows and three columns.
    for (std::int64_t j = 0; j < 8; ++j) m.at(3, j) = m.at(7, j) = 0.0f;
    for (std::int64_t i = 0; i < 10; ++i) m.at(i, 0) = m.at(i, 4) = m.at(i, 5) = 0.0f;

    const Compaction c = compact_dense(m);
    const Tensor restored = uncompact(c, c.matrix);
    EXPECT_TRUE(tensor::allclose(restored, m, 0.0f, 0.0f));
}

TEST(Compaction, AllZeroMatrixStaysWellFormed) {
    Tensor m({3, 3}, 0.0f);
    const Compaction c = compact_dense(m);
    EXPECT_EQ(c.matrix.dim(0), 1);
    EXPECT_EQ(c.matrix.dim(1), 1);
    const Tensor restored = uncompact(c, c.matrix);
    EXPECT_TRUE(tensor::allclose(restored, m, 0.0f, 0.0f));
}

TEST(TileDense, CountsAndCoverage) {
    const Tiling t = tile_dense(70, 33, 32);
    EXPECT_EQ(t.count(), 3 * 2);
    // Every matrix entry covered exactly once.
    std::set<std::pair<std::int64_t, std::int64_t>> covered;
    for (const Tile& tile : t.tiles)
        for (const auto r : tile.rows)
            for (const auto c : tile.cols) {
                EXPECT_TRUE(covered.emplace(r, c).second);
            }
    EXPECT_EQ(covered.size(), 70u * 33u);
}

TEST(TileDense, ExactFit) {
    EXPECT_EQ(tile_dense(64, 64, 32).count(), 4);
    EXPECT_EQ(tile_dense(32, 32, 32).count(), 1);
    EXPECT_EQ(tile_dense(1, 1, 32).count(), 1);
}

class TilingScheme : public ::testing::TestWithParam<int> {};

TEST_P(TilingScheme, ExtractScatterRoundTrip) {
    const std::int64_t xbar = GetParam();
    util::Rng rng(6);
    Tensor m({40, 24});
    tensor::fill_normal(m, rng, 0.0f, 1.0f);
    const Tiling t = tile_dense(40, 24, xbar);
    Tensor out({40, 24}, 0.0f);
    for (const Tile& tile : t.tiles) {
        const Tensor sub = extract_tile(m, tile, xbar);
        scatter_tile(out, tile, sub);
    }
    EXPECT_TRUE(tensor::allclose(out, m, 0.0f, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TilingScheme, ::testing::Values(8, 16, 32, 64));

TEST(TileXcs, SkipsZeroSegmentsAndPacks) {
    // 8×6 matrix, crossbar 4: row blocks {0-3}, {4-7}. Zero out the segment
    // (block 0, col 2) and the whole column 5.
    util::Rng rng(7);
    Tensor m({8, 6});
    tensor::fill_normal(m, rng, 1.0f, 0.1f);
    for (std::int64_t r = 0; r < 4; ++r) m.at(r, 2) = 0.0f;
    for (std::int64_t r = 0; r < 8; ++r) m.at(r, 5) = 0.0f;

    const Tiling t = tile_xcs(m, 4);
    // Block 0: survivors {0,1,3,4} -> 1 tile; block 1: {0,1,2,3,4} -> 2 tiles.
    EXPECT_EQ(t.count(), 3);

    // Round-trip of nonzero entries.
    Tensor out({8, 6}, 0.0f);
    for (const Tile& tile : t.tiles)
        scatter_tile(out, tile, extract_tile(m, tile, 4));
    EXPECT_TRUE(tensor::allclose(out, m, 0.0f, 0.0f));
}

TEST(TileXrs, SkipsZeroRowSegments) {
    util::Rng rng(8);
    Tensor m({6, 8});
    tensor::fill_normal(m, rng, 1.0f, 0.1f);
    for (std::int64_t c = 0; c < 4; ++c) m.at(2, c) = 0.0f;  // (row 2, block 0)
    for (std::int64_t c = 0; c < 8; ++c) m.at(5, c) = 0.0f;  // whole row 5

    const Tiling t = tile_xrs(m, 4);
    // Col block 0: surviving rows {0,1,3,4} -> 1 tile; block 1: {0..4} -> 2.
    EXPECT_EQ(t.count(), 3);

    Tensor out({6, 8}, 0.0f);
    for (const Tile& tile : t.tiles)
        scatter_tile(out, tile, extract_tile(m, tile, 4));
    EXPECT_TRUE(tensor::allclose(out, m, 0.0f, 0.0f));
}

TEST(TileXcs, RejectsNonPositiveCrossbarSize) {
    const Tensor m({8, 6}, 1.0f);
    for (const std::int64_t size : {0, -4}) {
        EXPECT_THROW(tile_xcs(m, size), std::invalid_argument) << size;
        EXPECT_THROW(tile_xrs(m, size), std::invalid_argument) << size;
        EXPECT_THROW(tile_dense(8, 6, size), std::invalid_argument) << size;
    }
}

TEST(TileXcs, DenseMatrixMatchesDenseTiling) {
    util::Rng rng(9);
    Tensor m({64, 48});
    tensor::fill_normal(m, rng, 1.0f, 0.1f);  // no zeros
    EXPECT_EQ(tile_xcs(m, 16).count(), tile_dense(64, 48, 16).count());
    EXPECT_EQ(tile_xrs(m, 16).count(), tile_dense(64, 48, 16).count());
}

TEST(ExtractTile, ZeroPadsPartialTiles) {
    Tensor m({3, 3}, 5.0f);
    Tile tile;
    tile.rows = {0, 1, 2};
    tile.cols = {0, 1, 2};
    const Tensor sub = extract_tile(m, tile, 4);
    EXPECT_EQ(sub.dim(0), 4);
    EXPECT_FLOAT_EQ(sub.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(sub.at(3, 3), 0.0f);
    EXPECT_FLOAT_EQ(sub.at(0, 3), 0.0f);
}

TEST(Compression, UnprunedIsUnity) {
    nn::VggConfig config;
    config.width = 0.0625;
    util::Rng rng(10);
    nn::Sequential model = nn::build_vgg(config, rng);
    const CrossbarBudget b = count_crossbars(model, prune::Method::kNone, 32);
    EXPECT_EQ(b.total, b.dense_total);
    EXPECT_DOUBLE_EQ(b.compression_rate(), 1.0);
    EXPECT_GT(b.total, 0);
}

TEST(Compression, ChannelFilterCompresses) {
    nn::VggConfig config;
    config.width = 0.25;
    util::Rng rng(11);
    nn::Sequential model = nn::build_vgg(config, rng);
    prune::PruneConfig pc;
    pc.method = prune::Method::kChannelFilter;
    pc.sparsity = 0.8;
    prune::prune_at_init(model, pc);
    const CrossbarBudget b =
        count_crossbars(model, prune::Method::kChannelFilter, 32);
    EXPECT_GT(b.compression_rate(), 2.0);
    EXPECT_LT(b.total, b.dense_total);
}

TEST(Compression, XcsCompressionNearInverseKeepRate) {
    // At paper-like widths, XCS compression ≈ 1/(1−s) (paper Table I shows
    // 4.26–5.57× at s=0.8 → ideal 5×).
    nn::VggConfig config;
    config.width = 1.0;
    util::Rng rng(12);
    nn::Sequential model = nn::build_vgg(config, rng);
    prune::PruneConfig pc;
    pc.method = prune::Method::kXbarColumn;
    pc.sparsity = 0.8;
    pc.segment_size = 32;
    prune::prune_at_init(model, pc);
    const CrossbarBudget b = count_crossbars(model, prune::Method::kXbarColumn, 32);
    EXPECT_GT(b.compression_rate(), 3.0);
    EXPECT_LT(b.compression_rate(), 6.0);
}

TEST(Compression, LayerEntriesSumToTotals) {
    nn::VggConfig config;
    config.width = 0.0625;
    util::Rng rng(13);
    nn::Sequential model = nn::build_vgg(config, rng);
    const CrossbarBudget b = count_crossbars(model, prune::Method::kNone, 16);
    std::int64_t dense = 0, total = 0;
    for (const auto& l : b.layers) {
        dense += l.dense_tiles;
        total += l.tiles;
    }
    EXPECT_EQ(dense, b.dense_total);
    EXPECT_EQ(total, b.total);
}

}  // namespace
}  // namespace xs::map
