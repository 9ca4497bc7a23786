// Blocked single-precision GEMM: C = alpha * op(A) * op(B) + beta * C.
// This is the workhorse behind Conv2d (via im2col in training, in place in
// the inference engine) and Linear layers.
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

// Reusable packed-A operand for repeated GEMMs against one left-hand matrix.
// The inference engine packs each conv layer's folded weights once per
// compiled instance and runs the whole batch through them as one tiled GEMM
// (gemm_conv_tiles, DESIGN.md §6) — the per-call sparsity scan and
// A-packing of gemm() disappear from the batch loop.
//
// Every matrix is packed into kPackMr-row panels, k-block by k-block. A
// row-sparse matrix (pruned weights, < 25 % non-zero) keeps only its *live*
// k indices per (k-block, row panel) — those where at least one row of the
// panel is non-zero — and the tiled kernel walks just those. The two kinds
// also accumulate differently, and each order is pinned by results that
// must not move:
//  * dense: each k-block's products start from zero and are added to C
//    (restart per k-block). A running sum rounds differently, so switching
//    would change every unpruned result;
//  * row-sparse: the accumulators start from C after the first k-block
//    (chain accumulation), so every output element gets exactly the
//    c += a·b sequence of a zero-skip loop over its row. The zeros a live
//    index carries for the panel's other rows add an exact +0 to a chain
//    that starts at +0, so the results are bit-identical to that loop
//    (tests/tensor_gemm_test.cpp compares them with memcmp).
struct PackedGemmA {
    std::int64_t m = 0, k = 0;
    bool sparse = false;  // row-sparse: live k lists, chain accumulation
    // Dense: (k-block × row panel) panels over every k. Row-sparse: the
    // same order, each panel holding only its live k rows.
    std::vector<float> panels;
    // Row-sparse only: live k offsets (relative to the k-block start) of
    // every (k-block, row panel) in panel order, delimited by live_begin
    // (k-blocks × row panels + 1 entries). Panel s starts at float
    // live_begin[s] · kPackMr of `panels`. Repacking reuses the capacity.
    std::vector<std::int32_t> live;
    std::vector<std::int64_t> live_begin;
};

// Analyze and pack A (m × k, leading dimension lda); reuses storage.
void gemm_pack_a(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, PackedGemmA& out);

// C (m×n) = alpha·A·B + beta·C with A prepacked by gemm_pack_a: the
// single-shot form of the prepacked family (the tests pin it against
// gemm_prepacked_tiles below).
// Serial — safe inside pool workers. `a_raw`/`lda` must describe the matrix
// that was packed (a row-sparse one runs gemm()'s zero-skip loop on it).
void gemm_prepacked_serial(const PackedGemmA& pa, const float* a_raw,
                           std::int64_t lda, std::int64_t n, float alpha,
                           const float* b, std::int64_t ldb, float beta,
                           float* c, std::int64_t ldc);

// ---- tiled GEMM: the inference engine's conv path ----
//
// gemm_conv_tiles (the engine) and gemm_prepacked_tiles (its reference)
// run one register-tiled 8×32 kernel over the same (row-panel × n-block)
// tiles; they differ only in where the kernel reads B. The panel geometry:
constexpr std::int64_t kPackMr = 8;     // row-panel height (micro-kernel)
constexpr std::int64_t kPackNr = 16;    // column-panel width
constexpr std::int64_t kPackKc = 256;   // k-block depth
constexpr std::int64_t kPackNc = 1024;  // n-block width

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
// Tiles of the (row-panel × n-block) grid both tiled GEMMs walk.
inline std::int64_t gemm_tile_count(std::int64_t m, std::int64_t n) {
    return ((m + kPackMr - 1) / kPackMr) * ((n + kPackNc - 1) / kPackNc);
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
void gemm_conv_tiles(const PackedGemmA& pa, const ConvTables& tables,
                     const float* x, float* c, std::int64_t ldc,
                     const float* bias, bool relu, std::int64_t tile_lo,
                     std::int64_t tile_hi);

// Convenience wrappers on rank-2 tensors.
Tensor matmul(const Tensor& a, const Tensor& b);            // A·B
Tensor matmul_tn(const Tensor& a, const Tensor& b);         // Aᵀ·B
Tensor matmul_nt(const Tensor& a, const Tensor& b);         // A·Bᵀ

// y(m) = A(m×n) · x(n)
void gemv(std::int64_t m, std::int64_t n, const float* a, const float* x, float* y);

}  // namespace xs::tensor
