#include "tensor/gemm.h"

#include "tensor/ops.h"
#include "util/metrics.h"
#include "util/parallel.h"

#include <algorithm>
#include <numeric>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace xs::tensor {
namespace {

// GotoBLAS-style blocking: B is packed into NR-wide column panels per
// (k-block × n-block), A into MR-tall row panels, and an MR×NR register-
// blocked micro-kernel runs over the packed panels. Packing buffers are
// thread-local and only grow, so the steady state allocates nothing.
// The block geometry is public (gemm.h) because im2col_pack_b emits the
// packed-B layout directly and conv_tables addresses B panels in place.
constexpr std::int64_t kMr = kPackMr;  // micro-kernel rows
constexpr std::int64_t kNr = kPackNr;  // micro-kernel cols (one AVX-512 vector)
constexpr std::int64_t kKc = kPackKc;  // k-block depth
constexpr std::int64_t kNc = kPackNc;  // n-block width

struct PackBuffers {
    std::vector<float> a, b;
};

PackBuffers& tls_buffers() {
    static thread_local PackBuffers p;
    return p;
}

// B(k0:k1, j0:j1) → NR-wide panels, k-major inside each panel, zero-padded.
void pack_b(const float* b, std::int64_t ldb, std::int64_t k0, std::int64_t k1,
            std::int64_t j0, std::int64_t j1, std::vector<float>& buf) {
    const std::int64_t kc = k1 - k0, nc = j1 - j0;
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    buf.resize(static_cast<std::size_t>(panels * kc * kNr));
    float* dst = buf.data();
    for (std::int64_t jp = 0; jp < panels; ++jp) {
        const std::int64_t jb = j0 + jp * kNr;
        const std::int64_t w = std::min(kNr, j1 - jb);
        for (std::int64_t p = k0; p < k1; ++p) {
            const float* src = b + p * ldb + jb;
            for (std::int64_t c = 0; c < w; ++c) dst[c] = src[c];
            for (std::int64_t c = w; c < kNr; ++c) dst[c] = 0.0f;
            dst += kNr;
        }
    }
}

// A(i0:i1, k0:k1) → MR-tall panels, k-major inside each panel, zero-padded.
// Writes panels * (k1-k0) * kMr floats at dst.
void pack_a_into(const float* a, std::int64_t lda, std::int64_t i0,
                 std::int64_t i1, std::int64_t k0, std::int64_t k1, float* dst) {
    const std::int64_t panels = (i1 - i0 + kMr - 1) / kMr;
    for (std::int64_t ip = 0; ip < panels; ++ip) {
        const std::int64_t ib = i0 + ip * kMr;
        const std::int64_t h = std::min(kMr, i1 - ib);
        for (std::int64_t p = k0; p < k1; ++p) {
            for (std::int64_t r = 0; r < h; ++r) dst[r] = a[(ib + r) * lda + p];
            for (std::int64_t r = h; r < kMr; ++r) dst[r] = 0.0f;
            dst += kMr;
        }
    }
}

void pack_a(const float* a, std::int64_t lda, std::int64_t i0, std::int64_t i1,
            std::int64_t k0, std::int64_t k1, std::vector<float>& buf) {
    const std::int64_t kc = k1 - k0, mc = i1 - i0;
    const std::int64_t panels = (mc + kMr - 1) / kMr;
    buf.resize(static_cast<std::size_t>(panels * kc * kMr));
    pack_a_into(a, lda, i0, i1, k0, k1, buf.data());
}

// C(mr×nr) += alpha · Apanel · Bpanel. The accumulator tile lives in
// registers (8 × 16-float vectors); the packed operands make every load
// contiguous. GNU vector extensions pin the accumulators to vector
// registers — a plain float[8][16] spills under gcc.
// The vector kernels spell out their kMr accumulators and arow lanes by
// hand; retuning kMr requires rewriting them.
static_assert(kMr == 8, "micro_kernel is hand-unrolled for kMr == 8");
static_assert(kNr == 16, "lane masks are 16 bits wide");
using Vf = float __attribute__((vector_size(kNr * sizeof(float))));

// Vectors pass through out-parameters, never by value: without AVX-512 a
// 64-byte vector argument or return changes the ABI (GCC -Wpsabi).
inline void load_vf(const float* p, Vf& out) {
    __builtin_memcpy(&out, p, sizeof(Vf));
}

// out = x[off + l] for the lanes l set in `mask`, 0 elsewhere. Masked-off
// lanes are never read, so they may lie outside the activation.
inline void load_masked(const float* x, std::int64_t off, unsigned mask,
                        Vf& out) {
#if defined(__AVX512F__)
    // Fault-suppressing masked load.
    const __m512 v =
        _mm512_maskz_loadu_ps(static_cast<__mmask16>(mask), x + off);
    __builtin_memcpy(&out, &v, sizeof(Vf));
#else
    if (mask == 0xFFFFu) {
        load_vf(x + off, out);
        return;
    }
    out = Vf{};
    for (; mask != 0; mask &= mask - 1) {
        const int l = __builtin_ctz(mask);
        out[l] = x[off + l];
    }
#endif
}

void micro_kernel(std::int64_t kc, float alpha, const float* ap,
                  const float* bp, float* c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr) {
    Vf a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* arow = ap + p * kMr;
        Vf bv;
        load_vf(bp + p * kNr, bv);
        a0 += arow[0] * bv;
        a1 += arow[1] * bv;
        a2 += arow[2] * bv;
        a3 += arow[3] * bv;
        a4 += arow[4] * bv;
        a5 += arow[5] * bv;
        a6 += arow[6] * bv;
        a7 += arow[7] * bv;
    }
    const Vf acc[kMr] = {a0, a1, a2, a3, a4, a5, a6, a7};
    if (nr == kNr) {
        for (std::int64_t r = 0; r < mr; ++r) {
            float* cr = c + r * ldc;
            Vf cv;
            load_vf(cr, cv);
            cv += alpha * acc[r];
            __builtin_memcpy(cr, &cv, sizeof(Vf));
        }
    } else {
        for (std::int64_t r = 0; r < mr; ++r) {
            float* cr = c + r * ldc;
            for (std::int64_t j = 0; j < nr; ++j) cr[j] += alpha * acc[r][j];
        }
    }
}
// Writeback of one accumulator panel with the tile path's fused semantics:
// the first k-block stores (beta = 0, no C read or pre-zeroing pass), later
// k-blocks accumulate, and the last k-block applies the per-row bias and/or
// ReLU — so C is touched exactly once per k-block and the separate zeroing
// and epilogue passes over the conv output disappear.
inline void store_panel(const Vf* acc, float* c, std::int64_t ldc,
                        std::int64_t mr, std::int64_t nr, bool load_c,
                        const float* bias, bool relu) {
    const Vf zero{};
    for (std::int64_t r = 0; r < mr; ++r) {
        float* cr = c + r * ldc;
        if (nr == kNr) {
            Vf cv = acc[r];
            if (load_c) {
                Vf cold;
                load_vf(cr, cold);
                cv += cold;
            }
            if (bias) cv += bias[r];
            if (relu) cv = cv > zero ? cv : zero;
            __builtin_memcpy(cr, &cv, sizeof(Vf));
            continue;
        }
        // Partial panel: scalar tail — a vector C load would read past the
        // row end.
        const float add = bias ? bias[r] : 0.0f;
        for (std::int64_t j = 0; j < nr; ++j) {
            float v = acc[r][j] + add + (load_c ? cr[j] : 0.0f);
            if (relu && v < 0.0f) v = 0.0f;
            cr[j] = v;
        }
    }
}

// Where the tiled kernel reads B. A source hands out, per (n-block,
// k-block, panel pair), a pair reader whose load(p, b0, b1) fills b0 and b1
// with row p (relative to the k-block) of the two column panels.

// Packed panels in the layout im2col_pack_b emits (gemm.h).
struct PackedPair {
    const float* bp0;
    const float* bp1;
    void load(std::int64_t p, Vf& b0, Vf& b1) const {
        load_vf(bp0 + p * kNr, b0);
        load_vf(bp1 + p * kNr, b1);
    }
};

struct PackedSource {
    const float* packed_b;
    std::int64_t k;
    // Panels jp and (when `two`) jp + 1 of n-block nb, k-block [pc, pc+kc);
    // blk_panels is the n-block's panel count.
    PackedPair pair(std::int64_t nb, std::int64_t blk_panels, std::int64_t pc,
                    std::int64_t kc, std::int64_t jp, bool two) const {
        // Full n-blocks before nb hold kNc/kNr panels of k rows each; earlier
        // k-blocks of this one hold blk_panels · kc' · kNr floats, Σ kc' = pc.
        const float* bp0 = packed_b + nb * (kNc / kNr) * k * kNr +
                           blk_panels * pc * kNr + jp * kc * kNr;
        return {bp0, two ? bp0 + kc * kNr : bp0};
    }
};

// The activation, read in place through ConvTables.
struct ConvPair {
    const float* x0;  // the activation at each panel's first column
    const float* x1;
    const std::int64_t* offset;  // the k-block's rows of ConvTables
    const std::int32_t* tap;
    const std::uint16_t* mask0;  // each panel's mask row
    const std::uint16_t* mask1;
    void load(std::int64_t p, Vf& b0, Vf& b1) const {
        const std::int64_t off = offset[p];
        const std::int32_t t = tap[p];
        load_masked(x0, off, mask0[t], b0);
        load_masked(x1, off, mask1[t], b1);
    }
};

struct ConvSource {
    const ConvTables& t;
    const float* x;
    ConvPair pair(std::int64_t nb, std::int64_t /*blk_panels*/,
                  std::int64_t pc, std::int64_t /*kc*/, std::int64_t jp,
                  bool two) const {
        const std::int64_t g0 = nb * (kNc / kNr) + jp;  // global panel
        const std::int64_t g1 = two ? g0 + 1 : g0;
        return {x + base(g0),          x + base(g1),
                t.offset.data() + pc,  t.tap.data() + pc,
                mask_row(g0),          mask_row(g1)};
    }
    // Panel g's first column in x: image j / H·W, position j mod H·W.
    std::int64_t base(std::int64_t g) const {
        const std::int64_t j = g * kNr;
        return j / t.hw * t.s_img + j % t.hw;
    }
    const std::uint16_t* mask_row(std::int64_t g) const {
        const bool last = (g + 1) * kNr >= t.n_cols;
        return t.mask.data() + (last ? t.phases : g % t.phases) * t.taps;
    }
};

// The tiled kernel: one pass over a packed A panel feeds TWO adjacent B
// panels (an 8×32 register tile — 16 accumulators + 2 B vectors fit the 32
// zmm registers). A single-panel kernel is load-bound (9 loads per 8 FMAs);
// amortizing the A broadcasts over two panels restores FMA-bound
// throughput. Only the last panel of a block may be partial, so either
// nr0 = kNr, or the panel is a lone tail and nr1 = 0 (its second panel's
// products are never stored).
//
// kChain picks the accumulation (PackedGemmA): false walks all `steps` k of
// the block from zero and lets store_panel add C; true walks the block's
// live list — A packed compactly, B addressed through `live` — starting
// from C once an earlier block has stored it. `b` is the B source's pair
// reader; the FMA sequence is the same for every source.
template <bool kChain, class Pair>
void micro_kernel_x2(std::int64_t steps, const std::int32_t* live,
                     const float* ap, const Pair b, float* c,
                     std::int64_t ldc, std::int64_t mr, std::int64_t nr0,
                     std::int64_t nr1, bool load_c, const float* bias,
                     bool relu) {
    // Accumulator start of row r: zero, or (chain, after the first k-block)
    // the partial sums C holds. Rows past mr and lanes past nr are never
    // stored, so they start at zero.
    // (Filled through a temporary: an accumulator whose address is taken
    // can end up spilled on every k step.)
    const auto start = [&](std::int64_t r, std::int64_t nr, const float* cp,
                           Vf& acc) {
        Vf v{};
        if (kChain && load_c && r < mr)
            __builtin_memcpy(&v, cp + r * ldc,
                             static_cast<std::size_t>(nr) * sizeof(float));
        acc = v;
    };
    float* c1 = c + kNr;
    Vf x0, x1, x2, x3, x4, x5, x6, x7, y0, y1, y2, y3, y4, y5, y6, y7;
    start(0, nr0, c, x0);
    start(1, nr0, c, x1);
    start(2, nr0, c, x2);
    start(3, nr0, c, x3);
    start(4, nr0, c, x4);
    start(5, nr0, c, x5);
    start(6, nr0, c, x6);
    start(7, nr0, c, x7);
    start(0, nr1, c1, y0);
    start(1, nr1, c1, y1);
    start(2, nr1, c1, y2);
    start(3, nr1, c1, y3);
    start(4, nr1, c1, y4);
    start(5, nr1, c1, y5);
    start(6, nr1, c1, y6);
    start(7, nr1, c1, y7);
    for (std::int64_t t = 0; t < steps; ++t) {
        const std::int64_t p = kChain ? live[t] : t;
        const float* arow = ap + t * kMr;
        Vf b0, b1;
        b.load(p, b0, b1);
        x0 += arow[0] * b0;
        y0 += arow[0] * b1;
        x1 += arow[1] * b0;
        y1 += arow[1] * b1;
        x2 += arow[2] * b0;
        y2 += arow[2] * b1;
        x3 += arow[3] * b0;
        y3 += arow[3] * b1;
        x4 += arow[4] * b0;
        y4 += arow[4] * b1;
        x5 += arow[5] * b0;
        y5 += arow[5] * b1;
        x6 += arow[6] * b0;
        y6 += arow[6] * b1;
        x7 += arow[7] * b0;
        y7 += arow[7] * b1;
    }
    const Vf acc0[kMr] = {x0, x1, x2, x3, x4, x5, x6, x7};
    const Vf acc1[kMr] = {y0, y1, y2, y3, y4, y5, y6, y7};
    store_panel(acc0, c, ldc, mr, nr0, !kChain && load_c, bias, relu);
    store_panel(acc1, c1, ldc, mr, nr1, !kChain && load_c, bias, relu);
}

// Tiles [tile_lo, tile_hi) of an m × n tiled GEMM with one accumulation
// kind — kChain for a row-sparse PackedGemmA, restart for a dense one —
// and B from `src`.
template <bool kChain, class Source>
void run_tiles(const PackedGemmA& pa, const Source& src, std::int64_t n,
               float* c, std::int64_t ldc, const float* bias, bool relu,
               std::int64_t tile_lo, std::int64_t tile_hi) {
    const std::int64_t m = pa.m, k = pa.k;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    for (std::int64_t t = tile_lo; t < tile_hi; ++t) {
        const std::int64_t nb = t / row_panels;  // n-block index
        const std::int64_t ip = t % row_panels;  // row-panel index
        const std::int64_t jc = nb * kNc;
        const std::int64_t j1 = std::min(n, jc + kNc);
        const std::int64_t ib = ip * kMr;
        const std::int64_t mr = std::min(kMr, m - ib);
        const std::int64_t blk_panels = (j1 - jc + kNr - 1) / kNr;
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kc = std::min(kKc, k - pc);
            // Fused store semantics: the first k-block stores (no C read or
            // zeroing pass), later blocks accumulate, and the last applies
            // bias/ReLU — C is touched exactly once per k-block.
            const bool load_c = pc != 0;
            const bool last = pc + kc == k;
            const float* bias_row = (last && bias) ? bias + ib : nullptr;
            const bool relu_here = last && relu;
            // The row panel's A for this k-block and the k indices it walks.
            std::int64_t steps = kc;
            const std::int32_t* live = nullptr;
            std::int64_t a_off = row_panels * kMr * pc + ip * kc * kMr;
            if (kChain) {
                const auto s = static_cast<std::size_t>(
                    (pc / kKc) * row_panels + ip);
                a_off = pa.live_begin[s];
                steps = pa.live_begin[s + 1] - a_off;
                live = pa.live.data() + a_off;
                a_off *= kMr;
            }
            const float* ap = pa.panels.data() + a_off;
            for (std::int64_t jp = 0; jp < blk_panels; jp += 2) {
                const std::int64_t jb = jc + jp * kNr;
                const std::int64_t nr0 = std::min(kNr, j1 - jb);
                const std::int64_t nr1 =
                    std::clamp(j1 - jb - kNr, std::int64_t{0}, kNr);
                micro_kernel_x2<kChain>(
                    steps, live, ap,
                    src.pair(nb, blk_panels, pc, kc, jp, nr1 > 0),
                    c + ib * ldc + jb, ldc, mr, nr0, nr1, load_c, bias_row,
                    relu_here);
            }
        }
    }
}

// Row-sparse path: for heavily pruned A (this project's core workload) the
// packed kernel's dense FLOPs lose to simply skipping zero weights. The ikj
// loop pays only for non-zero A entries; below kSparseThreshold density it
// beats the ~3× dense win of the packed kernel.
constexpr double kSparseThreshold = 0.25;
constexpr std::int64_t kSparseBlockK = 256;

void gemm_rows_sparse(std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                      std::int64_t k, float alpha, const float* a,
                      std::int64_t lda, const float* b, std::int64_t ldb,
                      float* c, std::int64_t ldc) {
    for (std::int64_t k0 = 0; k0 < k; k0 += kSparseBlockK) {
        const std::int64_t k1 = std::min(k, k0 + kSparseBlockK);
        for (std::int64_t i = m_lo; i < m_hi; ++i) {
            const float* ai = a + i * lda;
            float* ci = c + i * ldc;
            for (std::int64_t p = k0; p < k1; ++p) {
                const float aip = alpha * ai[p];
                if (aip == 0.0f) continue;
                const float* bp = b + p * ldb;
                for (std::int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
            }
        }
    }
}

// Whether A is sparse enough for the zero-skip path. The scan is O(m·k)
// against an O(m·n·k) multiply and bails out as soon as the non-zero count
// proves the matrix dense, so fully-dense callers pay ~kSparseThreshold of
// a full scan.
bool a_is_sparse(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda) {
    const std::int64_t limit = static_cast<std::int64_t>(
        kSparseThreshold * static_cast<double>(m * k));
    std::int64_t nnz = 0;
    for (std::int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * lda;
        for (std::int64_t p = 0; p < k; ++p) nnz += ai[p] != 0.0f;
        if (nnz >= limit) return false;
    }
    return nnz < limit;
}

void scale_c_rows(std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                  float beta, float* c, std::int64_t ldc) {
    for (std::int64_t i = m_lo; i < m_hi; ++i) {
        float* ci = c + i * ldc;
        if (beta == 0.0f) {
            std::fill(ci, ci + n, 0.0f);
        } else if (beta != 1.0f) {
            for (std::int64_t j = 0; j < n; ++j) ci[j] *= beta;
        }
    }
}

// Multiply the row panels [panel_lo, panel_hi) of the current (pc, jc) block
// against the shared packed B. Each executor packs its own A slice into its
// thread-local buffer.
void run_row_panels(std::int64_t panel_lo, std::int64_t panel_hi,
                    std::int64_t m, std::int64_t jc, std::int64_t j1,
                    std::int64_t pc, std::int64_t k1, float alpha,
                    const float* a, std::int64_t lda, const float* packed_b,
                    float* c, std::int64_t ldc) {
    const std::int64_t i_lo = panel_lo * kMr;
    const std::int64_t i_hi = std::min(m, panel_hi * kMr);
    if (i_lo >= i_hi) return;
    const std::int64_t kc = k1 - pc;
    std::vector<float>& abuf = tls_buffers().a;
    pack_a(a, lda, i_lo, i_hi, pc, k1, abuf);
    const std::int64_t n_panels = (j1 - jc + kNr - 1) / kNr;
    const std::int64_t m_panels = (i_hi - i_lo + kMr - 1) / kMr;
    for (std::int64_t ip = 0; ip < m_panels; ++ip) {
        const std::int64_t ib = i_lo + ip * kMr;
        const std::int64_t mr = std::min(kMr, i_hi - ib);
        const float* ap = abuf.data() + ip * kc * kMr;
        for (std::int64_t jp = 0; jp < n_panels; ++jp) {
            const std::int64_t jb = jc + jp * kNr;
            const std::int64_t nr = std::min(kNr, j1 - jb);
            micro_kernel(kc, alpha, ap, packed_b + jp * kc * kNr,
                         c + ib * ldc + jb, ldc, mr, nr);
        }
    }
}

void gemm_impl(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float beta, float* c, std::int64_t ldc,
               bool allow_parallel) {
    if (m <= 0 || n <= 0) return;
    scale_c_rows(0, m, n, beta, c, ldc);
    if (k <= 0 || alpha == 0.0f) return;

    if (m * n * k > (1 << 14) && a_is_sparse(m, k, a, lda)) {
        XS_COUNT("gemm.sparse_takes", 1);
        const bool parallel = allow_parallel && util::worker_count() > 1 &&
                              m > 1 && m * n * k > (1 << 18);
        if (parallel) {
            util::parallel_for_chunks(
                0, static_cast<std::size_t>(m),
                [&](std::size_t lo, std::size_t hi) {
                    gemm_rows_sparse(static_cast<std::int64_t>(lo),
                                     static_cast<std::int64_t>(hi), n, k, alpha,
                                     a, lda, b, ldb, c, ldc);
                });
        } else {
            gemm_rows_sparse(0, m, n, k, alpha, a, lda, b, ldb, c, ldc);
        }
        return;
    }

    std::vector<float>& bbuf = tls_buffers().b;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t j1 = std::min(n, jc + kNc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            pack_b(b, ldb, pc, k1, jc, j1, bbuf);
            const float* packed_b = bbuf.data();
            const bool parallel =
                allow_parallel && row_panels > 1 && util::worker_count() > 1 &&
                m * (j1 - jc) * (k1 - pc) > (1 << 18);
            if (parallel) {
                util::parallel_for_chunks(
                    0, static_cast<std::size_t>(row_panels),
                    [&](std::size_t lo, std::size_t hi) {
                        run_row_panels(static_cast<std::int64_t>(lo),
                                       static_cast<std::int64_t>(hi), m, jc, j1,
                                       pc, k1, alpha, a, lda, packed_b, c, ldc);
                    });
            } else {
                run_row_panels(0, row_panels, m, jc, j1, pc, k1, alpha, a, lda,
                               packed_b, c, ldc);
            }
        }
    }
}

}  // namespace

void gemm_serial(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
    gemm_impl(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, false);
}

void gemm_pack_a(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, PackedGemmA& out) {
    out.m = m;
    out.k = k;
    // Density decided once per pack instead of once per multiply. It also
    // fixes the accumulation order (PackedGemmA), so it must not change:
    // pruned layers' results are those of the zero-skip loop.
    out.sparse = m * k > (1 << 10) && a_is_sparse(m, k, a, lda);
    out.live.clear();
    out.live_begin.clear();
    if (out.sparse) {
        XS_COUNT("gemm.pack_a.sparse", 1);
        // Per (k-block, row panel): the live k indices, each with its
        // kMr-tall column of the panel.
        out.panels.clear();
        out.live_begin.push_back(0);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            for (std::int64_t ib = 0; ib < m; ib += kMr) {
                const std::int64_t h = std::min(kMr, m - ib);
                for (std::int64_t p = pc; p < k1; ++p) {
                    float col[kMr] = {};
                    bool live = false;
                    for (std::int64_t r = 0; r < h; ++r) {
                        col[r] = a[(ib + r) * lda + p];
                        live |= col[r] != 0.0f;
                    }
                    if (!live) continue;
                    out.live.push_back(static_cast<std::int32_t>(p - pc));
                    out.panels.insert(out.panels.end(), col, col + kMr);
                }
                out.live_begin.push_back(
                    static_cast<std::int64_t>(out.live.size()));
            }
        }
        return;
    }
    XS_COUNT("gemm.pack_a.dense", 1);
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    out.panels.resize(static_cast<std::size_t>(row_panels * kMr * k));
    // Block layout matches the multiply loop: consecutive k-blocks, each
    // holding every row panel for that k range.
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t k1 = std::min(k, pc + kKc);
        pack_a_into(a, lda, 0, m, pc, k1,
                    out.panels.data() + row_panels * kMr * pc);
    }
}

void gemm_prepacked_serial(const PackedGemmA& pa, const float* a_raw,
                           std::int64_t lda, std::int64_t n, float alpha,
                           const float* b, std::int64_t ldb, float beta,
                           float* c, std::int64_t ldc) {
    const std::int64_t m = pa.m, k = pa.k;
    if (m <= 0 || n <= 0) return;
    scale_c_rows(0, m, n, beta, c, ldc);
    if (k <= 0 || alpha == 0.0f) return;
    if (pa.sparse) {
        gemm_rows_sparse(0, m, n, k, alpha, a_raw, lda, b, ldb, c, ldc);
        return;
    }
    std::vector<float>& bbuf = tls_buffers().b;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t j1 = std::min(n, jc + kNc);
        const std::int64_t n_panels = (j1 - jc + kNr - 1) / kNr;
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            const std::int64_t kc = k1 - pc;
            pack_b(b, ldb, pc, k1, jc, j1, bbuf);
            const float* apacked = pa.panels.data() + row_panels * kMr * pc;
            for (std::int64_t ip = 0; ip < row_panels; ++ip) {
                const std::int64_t ib = ip * kMr;
                const std::int64_t mr = std::min(kMr, m - ib);
                const float* ap = apacked + ip * kc * kMr;
                for (std::int64_t jp = 0; jp < n_panels; ++jp) {
                    const std::int64_t jb = jc + jp * kNr;
                    const std::int64_t nr = std::min(kNr, j1 - jb);
                    micro_kernel(kc, alpha, ap, bbuf.data() + jp * kc * kNr,
                                 c + ib * ldc + jb, ldc, mr, nr);
                }
            }
        }
    }
}

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc) {
    gemm_impl(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, true);
}

void gemm_prepacked_tiles(const PackedGemmA& pa, const float* /*a_raw*/,
                          std::int64_t /*lda*/, const float* packed_b,
                          std::int64_t n, float* c, std::int64_t ldc,
                          const float* bias, bool relu, std::int64_t tile_lo,
                          std::int64_t tile_hi) {
    const PackedSource src{packed_b, pa.k};
    if (pa.sparse)
        run_tiles<true>(pa, src, n, c, ldc, bias, relu, tile_lo, tile_hi);
    else
        run_tiles<false>(pa, src, n, c, ldc, bias, relu, tile_lo, tile_hi);
}

void conv_tables(std::int64_t n_imgs, std::int64_t channels,
                 std::int64_t height, std::int64_t width,
                 std::int64_t stride_img, std::int64_t stride_c,
                 std::int64_t kernel, std::int64_t pad, ConvTables& out) {
    const std::int64_t hw = height * width;
    check(kernel >= 1 && 2 * pad == kernel - 1,
          "conv_tables: needs a stride-1 'same' convolution "
          "(2·pad = kernel − 1)");
    check(stride_img == hw || hw % kNr == 0,
          "conv_tables: panels may span images only in channel-major layout");
    out.n_cols = n_imgs * hw;
    out.hw = hw;
    out.s_img = stride_img;
    out.taps = kernel * kernel;
    out.phases = hw / std::gcd(hw, kNr);
    const std::int64_t k = channels * out.taps;
    out.offset.resize(static_cast<std::size_t>(k));
    out.tap.resize(static_cast<std::size_t>(k));
    std::size_t p = 0;
    for (std::int64_t ch = 0; ch < channels; ++ch)
        for (std::int64_t kh = 0; kh < kernel; ++kh)
            for (std::int64_t kw = 0; kw < kernel; ++kw, ++p) {
                out.offset[p] =
                    ch * stride_c + (kh - pad) * width + (kw - pad);
                out.tap[p] = static_cast<std::int32_t>(kh * kernel + kw);
            }
    out.mask.assign(static_cast<std::size_t>((out.phases + 1) * out.taps), 0);
    if (out.n_cols == 0) return;
    // Row `phase` describes the panel starting at column phase·kNr (every
    // panel whose start is congruent to it mod H·W); the last row, the last
    // panel, which also masks its lanes past n·H·W.
    const std::int64_t last_panel = packed_b_panels(out.n_cols) - 1;
    for (std::int64_t row = 0; row <= out.phases; ++row) {
        const std::int64_t j = (row < out.phases ? row : last_panel) * kNr;
        const std::int64_t end = row < out.phases ? j + kNr : out.n_cols;
        for (std::int64_t kh = 0; kh < kernel; ++kh)
            for (std::int64_t kw = 0; kw < kernel; ++kw) {
                unsigned m = 0;
                for (std::int64_t l = 0; l < kNr && j + l < end; ++l) {
                    const std::int64_t pos = (j + l) % hw;
                    const std::int64_t iy = pos / width + kh - pad;
                    const std::int64_t ix = pos % width + kw - pad;
                    if (iy >= 0 && iy < height && ix >= 0 && ix < width)
                        m |= 1u << l;
                }
                out.mask[static_cast<std::size_t>(
                    row * out.taps + kh * kernel + kw)] =
                    static_cast<std::uint16_t>(m);
            }
    }
}

void gemm_conv_tiles(const PackedGemmA& pa, const ConvTables& tables,
                     const float* x, float* c, std::int64_t ldc,
                     const float* bias, bool relu, std::int64_t tile_lo,
                     std::int64_t tile_hi) {
    check(static_cast<std::size_t>(pa.k) == tables.offset.size(),
          "gemm_conv_tiles: weight patch size differs from the conv tables");
    const ConvSource src{tables, x};
    if (pa.sparse)
        run_tiles<true>(pa, src, tables.n_cols, c, ldc, bias, relu, tile_lo,
                        tile_hi);
    else
        run_tiles<false>(pa, src, tables.n_cols, c, ldc, bias, relu, tile_lo,
                         tile_hi);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
    check(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
    check(a.dim(1) == b.dim(0), "matmul: inner dimensions differ: " +
                                    shape_to_string(a.shape()) + " x " +
                                    shape_to_string(b.shape()));
    Tensor c({a.dim(0), b.dim(1)});
    gemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), a.dim(1), b.data(),
         b.dim(1), 0.0f, c.data(), c.dim(1));
    return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
    // Aᵀ·B without materializing Aᵀ would need a column-major kernel; the
    // transpose copy is cheap relative to the multiply at our sizes.
    return matmul(transpose(a), b);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
    return matmul(a, transpose(b));
}

void gemv(std::int64_t m, std::int64_t n, const float* a, const float* x, float* y) {
    const auto rows = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const float* ai = a + static_cast<std::int64_t>(i) * n;
            // Four independent double accumulators keep the FMA pipeline
            // busy without giving up double-precision reduction.
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            std::int64_t j = 0;
            for (; j + 4 <= n; j += 4) {
                a0 += static_cast<double>(ai[j]) * x[j];
                a1 += static_cast<double>(ai[j + 1]) * x[j + 1];
                a2 += static_cast<double>(ai[j + 2]) * x[j + 2];
                a3 += static_cast<double>(ai[j + 3]) * x[j + 3];
            }
            double acc = (a0 + a1) + (a2 + a3);
            for (; j < n; ++j) acc += static_cast<double>(ai[j]) * x[j];
            y[i] = static_cast<float>(acc);
        }
    };
    if (m * n >= (1 << 15) && util::worker_count() > 1) {
        util::parallel_for_chunks(0, static_cast<std::size_t>(m), rows);
    } else {
        rows(0, static_cast<std::size_t>(m));
    }
}

}  // namespace xs::tensor
