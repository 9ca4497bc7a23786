// Blocked single-precision GEMM, C = alpha·A·B + beta·C, and the tiled
// conv GEMMs of the inference engine. The workhorse behind Conv2d (via
// im2col in training, in place in the inference engine) and Linear layers.
#pragma once

#include "tensor/tensor.h"

namespace xs::tensor {

// C(m×n) = alpha * A(m×k) * B(k×n) + beta * C. Raw-pointer core so that the
// nn layers can call it on tensor slices without copies. May parallelize
// across row blocks for large problems.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc);

// Strictly single-threaded variant for callers already running inside a
// parallel_for region (nested pool dispatch is not supported).
void gemm_serial(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c, std::int64_t ldc);

// ---- tiled GEMM geometry ----
//
// gemm_conv_tiles (the engine) and gemm_prepacked_tiles (its reference)
// run one register-tiled 8×32 kernel over the same (row group × column
// slice) tiles; they differ only in where the kernel reads B. The panel
// geometry:
constexpr std::int64_t kPackMr = 8;     // row-panel height (micro-kernel)
constexpr std::int64_t kPackMc = 32;    // tile height: a group of row panels
constexpr std::int64_t kPackNr = 16;    // column-panel width
constexpr std::int64_t kPackKc = 256;   // k-block depth
constexpr std::int64_t kPackKs = 32;    // row-sparse k-segment granularity
constexpr std::int64_t kPackNc = 1024;  // n-block width
constexpr std::int64_t kPackNt = 256;   // tile width: a quarter n-block

// Reusable packed-A operand for repeated GEMMs against one left-hand matrix.
// The inference engine packs each conv layer's folded weights once per
// compiled instance and runs the whole batch through them as one tiled GEMM
// (gemm_conv_tiles, DESIGN.md §6) — the per-call sparsity scan and
// A-packing of gemm() disappear from the batch loop.
//
// A dense matrix is packed into kPackMr-row panels over every k, k-block by
// k-block. A row-sparse one (pruned weights, < 25 % non-zero) is packed
// into *gathered* panels: per kPackMc-row group, its k is cut into
// segments at each kPackKs boundary where the group's set of non-zero rows
// changes (never across a k-block), and each segment packs only its live
// rows, kPackMr per panel, each panel with its rows' indices in the group
// and the union of their live k. Dead filters and pruned column segments
// therefore cost no multiplies. The two kinds also accumulate differently, and each
// order is pinned by results that must not move:
//  * dense: each k-block's products start from zero and are added to C
//    (restart per k-block). A running sum rounds differently, so switching
//    would change every unpruned result;
//  * row-sparse: chain accumulation. A row starts from +0 in its first
//    live panel, from the partial sum C holds in later ones, and gets the
//    bias/ReLU epilogue in its last; rows live nowhere get the store of a
//    zero accumulator. So every output element gets exactly the c += a·b
//    sequence of a zero-skip loop over its row. The zeros a live k carries
//    for the panel's other rows add an exact +0 to a chain that starts at
//    +0, so the results are bit-identical to that loop
//    (tests/tensor_gemm_test.cpp compares them with memcmp).
struct PackedGemmA {
    std::int64_t m = 0, k = 0;
    bool sparse = false;  // row-sparse: gathered panels, chain accumulation
    // One gathered panel (row-sparse only): kPackMr rows × `steps` live k.
    struct Panel {
        std::int64_t k0 = 0;     // first k of its k-block
        std::int64_t begin = 0;  // its first entry of `live`; its A starts
                                 // at float begin · kPackMr of `panels`
        std::int64_t steps = 0;  // live k: 0 for rows live nowhere
        std::int32_t row[kPackMr] = {};  // each packed row's row in its
                                         // group (C row group·kPackMc + row)
        std::int32_t rows = 0;           // packed rows, the rest zero
        // Bit r: row[r] continues a chain whose partial sum C holds (else
        // it starts from +0) / row[r]'s chain ends here (bias/ReLU).
        std::uint8_t carry = 0, finish = 0;
    };
    // Dense: (k-block × row panel) panels over every k. Row-sparse: each
    // gathered panel's live k columns, kPackMr floats per k, in the order
    // of `gathered`.
    std::vector<float> panels;
    // Row-sparse only, all reusing their capacity on repack: the gathered
    // panels, group by group, each group's in k order; the live k offsets
    // (from the panel's k0) of every panel; and where each group's panels
    // begin (groups + 1 entries).
    std::vector<Panel> gathered;
    std::vector<std::int32_t> live;
    std::vector<std::int64_t> group_begin;
};

// Analyze and pack A (m × k, leading dimension lda); reuses storage.
void gemm_pack_a(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, PackedGemmA& out);

// ---- tiled GEMM: the inference engine's conv path ----

// Packed B as im2col_pack_b emits it: for each kNc-wide n-block, for each
// kKc-deep k-block, kNr-wide column panels, k-major inside a panel,
// zero-padded to kNr.
// Number of kNr-wide column panels of an n-column packed B.
inline std::int64_t packed_b_panels(std::int64_t n) {
    return (n + kPackNr - 1) / kPackNr;
}
// Total floats of a packed (k × n) B.
inline std::int64_t packed_b_size(std::int64_t k, std::int64_t n) {
    return packed_b_panels(n) * k * kPackNr;
}
// Columns per tile of an n-column tiled GEMM: kPackNt, or, below 4·kPackNt
// columns, a quarter of n rounded up to whole column-panel pairs. Either
// way a slice lies inside one n-block, and a one-lane forward keeps about
// as many tiles to share among the pool's workers as 8-row tiles gave it.
inline std::int64_t gemm_tile_width(std::int64_t n) {
    const std::int64_t pair = 2 * kPackNr;
    const std::int64_t quarter = (n + 4 * pair - 1) / (4 * pair) * pair;
    return quarter < pair ? pair : quarter > kPackNt ? kPackNt : quarter;
}

// Tiles of the grid both tiled GEMMs walk: a tile is kPackMc rows (a dense
// matrix's row panels there, or a row-sparse one's gathered panels of that
// group) by gemm_tile_width(n) columns; tile t is column slice t / groups,
// group t mod groups. Tiles write disjoint C regions.
inline std::int64_t gemm_tile_count(std::int64_t m, std::int64_t n) {
    const std::int64_t width = gemm_tile_width(n);
    return ((m + kPackMc - 1) / kPackMc) * ((n + width - 1) / width);
}

// Whether every column slice of an n-column tiled GEMM over channel-major
// maps of width w (n a multiple of 2w) holds whole row pairs, image rows 2i
// and 2i + 1, as a pooled conv's tiles must (gemm_conv_tiles). Holds for
// square maps whose width is a power of two up to 128, at any batch: VGG's
// pooled shapes.
inline bool gemm_tiles_hold_row_pairs(std::int64_t n, std::int64_t w) {
    const std::int64_t width = gemm_tile_width(n);
    return w > 0 && (width >= n || width % (2 * w) == 0);
}

// C (m×n) = A·B over packed B for the tile range [tile_lo, tile_hi), with an
// optional fused per-row bias (+ ReLU) epilogue applied while the tile is
// cache-hot. Tiles write disjoint C regions, so callers parallelize by
// splitting the tile range across workers. beta = 0 semantics (C is
// overwritten). Dense and row-sparse A share the kernel (see PackedGemmA for
// their accumulation order). The packed panels hold all of A, so
// `a_raw`/`lda` are not read; they keep the prepacked family's signature.
// With im2col_pack_b this is the conv reference the tests pin
// gemm_conv_tiles against, and perfbench's per-layer probe.
void gemm_prepacked_tiles(const PackedGemmA& pa, const float* a_raw,
                          std::int64_t lda, const float* packed_b,
                          std::int64_t n, float* c, std::int64_t ldc,
                          const float* bias, bool relu, std::int64_t tile_lo,
                          std::int64_t tile_hi);

// Implicit-GEMM B of a stride-1 "same" convolution (2·pad = kernel − 1),
// read in place from the activation instead of packed (indirect
// convolution, Dukhan, arXiv 1907.02129). B is the virtual im2col matrix:
// row k = (c, kh, kw), column j = img·H·W + pos. In the channel-major layout
// (channels × n·H·W) row k of the 16-column panel starting at column j is
// the 16 consecutive floats starting at j + c·n·H·W + (kh − pad)·W +
// (kw − pad), with the lanes whose input row or column falls outside the
// image, or that lie past n·H·W, zeroed — at any W, also where one panel
// spans several rows or images. So the kernel reads each B row of a panel
// with one masked load. A batch-major (NCHW) input works the same way when
// every panel lies inside one image (H·W a multiple of kPackNr).
//
// conv_tables fills the tables that drive those loads; they depend on the
// geometry only, so one set serves every lane of a batched forward.
// Rebuilding reuses the vectors' capacity.
struct ConvTables {
    std::int64_t n_cols = 0;  // n·H·W: the GEMM's column count
    std::int64_t hw = 0;      // H·W
    std::int64_t width = 0;   // W
    std::int64_t s_img = 0;   // image stride of the activation
    std::int64_t taps = 0;    // kernel²
    // Panel phases: the panel starting at column j has the lane masks of the
    // panel starting at j mod H·W, so they repeat every `phases` panels.
    // Mask row `phases` belongs to the last panel, whose lanes past n·H·W are
    // masked too.
    std::int64_t phases = 0;
    std::vector<std::int64_t> offset;  // per k: c·s_c + (kh−pad)·W + (kw−pad)
    std::vector<std::int32_t> tap;     // per k: kh·kernel + kw
    std::vector<std::uint16_t> mask;   // (phases + 1) × taps lane masks
};

// Tables for an input of n_imgs images with the given strides: channel-major
// (stride_img = H·W, stride_c = n_imgs·H·W) or NCHW (stride_img = C·H·W,
// stride_c = H·W, H·W a multiple of kPackNr). Throws on other geometry.
void conv_tables(std::int64_t n_imgs, std::int64_t channels,
                 std::int64_t height, std::int64_t width,
                 std::int64_t stride_img, std::int64_t stride_c,
                 std::int64_t kernel, std::int64_t pad, ConvTables& out);

// C (m × n_cols, leading dimension ldc) = A·B for the tile range
// [tile_lo, tile_hi), B read through `tables` from the activation x. Every
// output element gets the FMA sequence gemm_prepacked_tiles gives it over
// im2col_pack_b's panels, on the same B values, so the results are
// bit-identical (tests/tensor_gemm_test.cpp). Same tiles, epilogue and
// parallelization contract as gemm_prepacked_tiles.
//
// With `pool`, the conv output is 2×2 max-pooled on the way out and C is
// the pooled map, m × n_cols/4 in the same channel-major layout. Each tile
// accumulates into a tile-local buffer (kPackMc × kPackNt floats), applies
// the bias/ReLU epilogue there, and writes only the pooled values of its
// rows: max(max(r0[2j], r0[2j+1]), max(r1[2j], r1[2j+1])) over each row
// pair (r0, r1), std::max with its operands in that order. So the result
// is bit-identical to the unpooled call followed by that expression, NaN
// and signed zeros included; without NaN it is each window's first maximal
// element in scan order, as MaxPool2d::forward picks. Needs even H and W
// and tiles that hold whole row pairs (gemm_tiles_hold_row_pairs); throws
// otherwise.
void gemm_conv_tiles(const PackedGemmA& pa, const ConvTables& tables,
                     const float* x, float* c, std::int64_t ldc,
                     const float* bias, bool relu, bool pool,
                     std::int64_t tile_lo, std::int64_t tile_hi);

// Convenience wrapper on rank-2 tensors: A·B.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace xs::tensor
