#include "tensor/gemm.h"

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

// The kernel reads where a panel's accumulator rows go from a
// PackedGemmA::Panel: accumulator row r < `rows` is row row[r] of the
// tile's C (which starts at the group's first row), `carry` marks the rows
// whose C holds a partial sum to continue, and `finish` the rows whose sum
// is complete after this panel (bias/ReLU). A dense panel's rows are its
// own consecutive rows, all carrying after the first k-block and all
// finishing in the last; a gathered panel's come from the pack.
using Panel = PackedGemmA::Panel;

// Writeback of one accumulator panel with the tile path's fused semantics:
// C is written once per panel, never zeroed first, and a finishing row gets
// the per-row bias and/or ReLU on the way out — so the separate zeroing and
// epilogue passes over the conv output disappear. With `add_c` the
// carrying rows add the partial sum C holds (dense restart accumulation).
inline void store_panel(const Vf* acc, float* c, std::int64_t ldc,
                        const Panel& rows, std::int64_t nr, bool add_c,
                        const float* bias, bool relu) {
    const Vf zero{};
    for (std::int64_t r = 0; r < rows.rows; ++r) {
        const std::int32_t i = rows.row[r];
        float* cr = c + i * ldc;
        const bool load = add_c && ((rows.carry >> r) & 1u);
        const bool fin = (rows.finish >> r) & 1u;
        const float* add = fin ? bias : nullptr;
        const bool clamp = fin && relu;
        if (nr == kNr) {
            Vf cv = acc[r];
            if (load) {
                Vf cold;
                load_vf(cr, cold);
                cv += cold;
            }
            if (add) cv += add[i];
            if (clamp) cv = cv > zero ? cv : zero;
            __builtin_memcpy(cr, &cv, sizeof(Vf));
            continue;
        }
        // Partial panel: scalar tail — a vector C load would read past the
        // row end. Same operations in the same order as the vector path.
        for (std::int64_t j = 0; j < nr; ++j) {
            float v = acc[r][j];
            if (load) v += cr[j];
            if (add) v += add[i];
            if (clamp) v = v > 0.0f ? v : 0.0f;
            cr[j] = v;
        }
    }
}

// Where the tiled kernel reads B. A source hands out, per (n-block, panel
// pair), a column reader whose at(pc, kc) is the pair reader of k-block
// [pc, pc + kc): its load(p, b0, b1) fills b0 and b1 with row p (relative
// to the k-block) of the two column panels.

// Packed panels in the layout im2col_pack_b emits (gemm.h).
struct PackedPair {
    const float* bp0;
    const float* bp1;
    void load(std::int64_t p, Vf& b0, Vf& b1) const {
        load_vf(bp0 + p * kNr, b0);
        load_vf(bp1 + p * kNr, b1);
    }
};

struct PackedColumns {
    const float* block;  // the n-block's panels
    std::int64_t blk_panels, jp;
    bool two;
    PackedPair at(std::int64_t pc, std::int64_t kc) const {
        // Earlier k-blocks of the n-block hold blk_panels · kc' · kNr
        // floats, Σ kc' = pc.
        const float* bp0 = block + blk_panels * pc * kNr + jp * kc * kNr;
        return {bp0, two ? bp0 + kc * kNr : bp0};
    }
};

struct PackedSource {
    const float* packed_b;
    std::int64_t k;
    // Panels jp and (when `two`) jp + 1 of n-block nb; blk_panels is the
    // n-block's panel count. Full n-blocks before nb hold kNc/kNr panels of
    // k rows each.
    PackedColumns columns(std::int64_t nb, std::int64_t blk_panels,
                          std::int64_t jp, bool two) const {
        return {packed_b + nb * (kNc / kNr) * k * kNr, blk_panels, jp, two};
    }
};

// The activation, read in place through ConvTables.
struct ConvPair {
    const float* x0;  // the activation at each panel's first column
    const float* x1;
    const std::int64_t* offset;  // ConvTables rows from the k-block's first
    const std::int32_t* tap;
    const std::uint16_t* mask0;  // each panel's mask row
    const std::uint16_t* mask1;
    void load(std::int64_t p, Vf& b0, Vf& b1) const {
        const std::int64_t off = offset[p];
        const std::int32_t t = tap[p];
        load_masked(x0, off, mask0[t], b0);
        load_masked(x1, off, mask1[t], b1);
    }
    ConvPair at(std::int64_t pc, std::int64_t /*kc*/) const {
        ConvPair r = *this;
        r.offset += pc;
        r.tap += pc;
        return r;
    }
};

struct ConvSource {
    const ConvTables& t;
    const float* x;
    ConvPair columns(std::int64_t nb, std::int64_t /*blk_panels*/,
                     std::int64_t jp, bool two) const {
        const std::int64_t g0 = nb * (kNc / kNr) + jp;  // global panel
        const std::int64_t g1 = two ? g0 + 1 : g0;
        return {x + base(g0),     x + base(g1), t.offset.data(),
                t.tap.data(),     mask_row(g0), mask_row(g1)};
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
// products are never stored). `c` is C at the first panel's first column;
// `rows` places the accumulator rows in it.
//
// kChain picks the accumulation (PackedGemmA): false walks all `steps` k of
// the block from zero and lets store_panel add C; true walks the panel's
// live k — A packed compactly, B addressed through `live` — starting each
// carrying row from C. `b` is the B source's pair reader; the FMA sequence
// is the same for every source.
template <bool kChain, class Pair>
void micro_kernel_x2(std::int64_t steps, const std::int32_t* live,
                     const float* ap, const Pair b, float* c,
                     std::int64_t ldc, const Panel& rows,
                     std::int64_t nr0, std::int64_t nr1, const float* bias,
                     bool relu) {
    // Accumulator start of row r: zero, or (chain, carrying row) the
    // partial sum C holds. Rows past `rows.rows` and lanes past nr are never
    // stored, so they start at zero.
    // (Filled through a temporary: an accumulator whose address is taken
    // can end up spilled on every k step.)
    const auto start = [&](std::int64_t r, std::int64_t nr, const float* cp,
                           Vf& acc) {
        Vf v{};
        if (kChain && ((rows.carry >> r) & 1u)) {
            const float* src = cp + rows.row[r] * ldc;
            if (nr == kNr)
                load_vf(src, v);
            else
                __builtin_memcpy(&v, src,
                                 static_cast<std::size_t>(nr) * sizeof(float));
        }
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
    store_panel(acc0, c, ldc, rows, nr0, !kChain, bias, relu);
    store_panel(acc1, c1, ldc, rows, nr1, !kChain, bias, relu);
}

#if defined(__AVX512F__)
// std::max(a, b) is a < b ? b : a. vmaxps(x, y) is x > y ? x : y, and y
// when either is NaN or both are zero, so std::max(a, b) is vmaxps(b, a)
// bit for bit. (All lanes through the zero-masking form: GCC 12 reports
// the unmasked intrinsic's own undefined operand under -Wall.)
inline __m512 std_max(__m512 a, __m512 b) {
    return _mm512_maskz_max_ps(static_cast<__mmask16>(0xFFFFu), b, a);
}

// Lane u: std::max(column 2u, column 2u + 1) of the 32 columns v0:v1.
inline __m512 pair_max(__m512 v0, __m512 v1) {
    const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30);
    const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
    return std_max(_mm512_permutex2var_ps(v0, even, v1),
                   _mm512_permutex2var_ps(v0, odd, v1));
}

// Lanes [0, n) of a 16-lane mask.
inline __mmask16 first_lanes(std::int64_t n) {
    return static_cast<__mmask16>(n >= kNr ? 0xFFFFu
                                  : n <= 0 ? 0u
                                           : (1u << n) - 1u);
}

// pool_tile for w a multiple of 32 or a divisor of 32, in two stages per
// 16 outputs: pair_max along 64 columns, then the max of each output's
// upper-row and lower-row values.
void pool_tile_avx512(const float* buf, std::int64_t ld, std::int64_t rows,
                      std::int64_t cols, std::int64_t w, float* out,
                      std::int64_t ldo) {
    if (w % 32 == 0) {
        // Upper-row columns [s, s + 32) of a row pair lie w before their
        // lower-row ones.
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t p = 0; p < cols; p += 2 * w)
                for (std::int64_t s = 0; s < w; s += 32) {
                    const float* a = buf + r * ld + p + s;
                    const __m512 up = pair_max(_mm512_loadu_ps(a),
                                               _mm512_loadu_ps(a + kNr));
                    const __m512 dn = pair_max(_mm512_loadu_ps(a + w),
                                               _mm512_loadu_ps(a + w + kNr));
                    _mm512_storeu_ps(out + r * ldo + p / 4 + s / 2,
                                     std_max(up, dn));
                }
        return;
    }
    // w ≤ 16: 64 columns hold whole row pairs, and lane u of their 32 pair
    // maxima h belongs to row pair u / w, to its upper row when u mod w <
    // w / 2. Output o takes h[(o / (w/2))·w + o mod (w/2)] and the lower
    // value w / 2 lanes on.
    alignas(64) std::int32_t up_lane[kNr], dn_lane[kNr];
    for (std::int64_t o = 0; o < kNr; ++o) {
        up_lane[o] = static_cast<std::int32_t>(o / (w / 2) * w + o % (w / 2));
        dn_lane[o] = up_lane[o] + static_cast<std::int32_t>(w / 2);
    }
    const __m512i up_idx = _mm512_load_si512(up_lane);
    const __m512i dn_idx = _mm512_load_si512(dn_lane);
    for (std::int64_t r = 0; r < rows; ++r) {
        const float* a = buf + r * ld;
        float* o = out + r * ldo;
        for (std::int64_t q = 0; q < cols; q += 4 * kNr) {
            // The last group may hold fewer whole row pairs: masked.
            const std::int64_t rem = cols - q;
            const __m512 h0 = pair_max(
                _mm512_maskz_loadu_ps(first_lanes(rem), a + q),
                _mm512_maskz_loadu_ps(first_lanes(rem - kNr), a + q + kNr));
            const __m512 h1 = pair_max(
                _mm512_maskz_loadu_ps(first_lanes(rem - 2 * kNr),
                                      a + q + 2 * kNr),
                _mm512_maskz_loadu_ps(first_lanes(rem - 3 * kNr),
                                      a + q + 3 * kNr));
            _mm512_mask_storeu_ps(
                o + q / 4, first_lanes(rem / 4),
                std_max(_mm512_permutex2var_ps(h0, up_idx, h1),
                        _mm512_permutex2var_ps(h0, dn_idx, h1)));
        }
    }
}
#endif

// The pool epilogue of one tile (gemm_conv_tiles): `buf` holds `rows` rows
// of `cols` conv outputs at stride ld, whole row pairs of maps of width w
// (2w columns: an image row, then the row below it). Row r's cols / 4
// pooled values go to out + r·ldo, each max(max(r0[2j], r0[2j + 1]),
// max(r1[2j], r1[2j + 1])), std::max with its operands in that order. The
// AVX-512 path covers every w VGG pools at; other widths take the portable
// loop.
void pool_tile(const float* buf, std::int64_t ld, std::int64_t rows,
               std::int64_t cols, std::int64_t w, float* out,
               std::int64_t ldo) {
#if defined(__AVX512F__)
    if (w % 32 == 0 || 32 % w == 0) {
        pool_tile_avx512(buf, ld, rows, cols, w, out, ldo);
        return;
    }
#endif
    for (std::int64_t r = 0; r < rows; ++r) {
        float* o = out + r * ldo;
        for (std::int64_t p = 0; p < cols; p += 2 * w) {
            const float* r0 = buf + r * ld + p;
            const float* r1 = r0 + w;
            for (std::int64_t j = 0; j < w / 2; ++j)
                *o++ = std::max(std::max(r0[2 * j], r0[2 * j + 1]),
                                std::max(r1[2 * j], r1[2 * j + 1]));
        }
    }
}

// Tiles [tile_lo, tile_hi) of an m × n tiled GEMM with one accumulation
// kind — kChain for a row-sparse PackedGemmA, restart for a dense one —
// and B from `src`. A tile is a kPackMc-row group × a column slice of an
// n-block (gemm_tile_count). Each of the group's panels, in k order,
// runs over the slice's column panels two at a time; consecutive kernel
// calls thus write different columns, so a row-sparse chain that continues
// in the next panel does not stall the next call. With pool_w > 0 the
// columns are maps of that width, and a tile accumulates in a local buffer
// that pool_tile reduces into C, the pooled map.
template <bool kChain, class Source>
void run_tiles(const PackedGemmA& pa, const Source& src, std::int64_t n,
               float* c, std::int64_t ldc, const float* bias, bool relu,
               std::int64_t pool_w, std::int64_t tile_lo,
               std::int64_t tile_hi) {
    static_assert(kNc % kPackNt == 0 && kPackNt % (2 * kNr) == 0,
                  "a slice holds whole panel pairs of one n-block");
    constexpr std::int64_t kPairs = kPackNt / (2 * kNr);
    const std::int64_t m = pa.m, k = pa.k;
    const std::int64_t groups = (m + kPackMc - 1) / kPackMc;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    const std::int64_t width = gemm_tile_width(n);
    // A pooled tile's full-resolution C (32 KB), at stride `width`. It also
    // holds the partial sums the tile carries across k-blocks.
    alignas(64) float tile_c[kPackMc * kPackNt];
    for (std::int64_t t = tile_lo; t < tile_hi; ++t) {
        const std::int64_t j0 = t / groups * width;  // the slice's columns
        const std::int64_t j1 = std::min(n, j0 + width);
        const std::int64_t g = t % groups;  // row-group index
        const std::int64_t g0 = g * kPackMc;
        const std::int64_t nb = j0 / kNc;   // n-block index
        const std::int64_t blk_panels =
            (std::min(n, (nb + 1) * kNc) - nb * kNc + kNr - 1) / kNr;
        // The slice's column-panel pairs, set up once per tile.
        decltype(src.columns(0, 0, 0, false)) cols[kPairs];
        std::int64_t nr0[kPairs], nr1[kPairs];
        const std::int64_t pairs = (j1 - j0 + 2 * kNr - 1) / (2 * kNr);
        for (std::int64_t q = 0; q < pairs; ++q) {
            const std::int64_t jb = j0 + 2 * q * kNr;
            nr0[q] = std::min(kNr, j1 - jb);
            nr1[q] = std::clamp(j1 - jb - kNr, std::int64_t{0}, kNr);
            cols[q] = src.columns(nb, blk_panels, (jb - nb * kNc) / kNr,
                                  nr1[q] > 0);
        }
        // The tile's C: the group's rows of the slice, in C or, pooled, in
        // tile_c.
        float* const ct = pool_w > 0 ? tile_c : c + g0 * ldc + j0;
        const std::int64_t ldt = pool_w > 0 ? width : ldc;
        const float* const bt = bias ? bias + g0 : nullptr;
        // One packed panel of k-block [pc, pc + kc) against the slice.
        const auto run_panel = [&](std::int64_t pc, std::int64_t steps,
                                   const std::int32_t* live, const float* ap,
                                   const Panel& rows) {
            const std::int64_t kc = std::min(kKc, k - pc);
            for (std::int64_t q = 0; q < pairs; ++q)
                micro_kernel_x2<kChain>(steps, live, ap, cols[q].at(pc, kc),
                                        ct + 2 * q * kNr, ldt, rows, nr0[q],
                                        nr1[q], bt, relu);
        };
        if constexpr (kChain) {
            const auto end = static_cast<std::size_t>(
                pa.group_begin[static_cast<std::size_t>(g + 1)]);
            for (auto s = static_cast<std::size_t>(
                     pa.group_begin[static_cast<std::size_t>(g)]);
                 s < end; ++s) {
                const Panel& gp = pa.gathered[s];
                run_panel(gp.k0, gp.steps, pa.live.data() + gp.begin,
                          pa.panels.data() + gp.begin * kMr, gp);
            }
        } else {
            const std::int64_t i1 = std::min(m, g0 + kPackMc);
            for (std::int64_t ib = g0; ib < i1; ib += kMr) {
                Panel rows;
                rows.rows = static_cast<std::int32_t>(std::min(kMr, m - ib));
                for (std::int32_t r = 0; r < rows.rows; ++r)
                    rows.row[r] = static_cast<std::int32_t>(ib - g0) + r;
                // Restart accumulation: the first k-block stores, later
                // blocks add C, and the last applies bias/ReLU — C is
                // touched exactly once per k-block.
                for (std::int64_t pc = 0; pc < k; pc += kKc) {
                    const std::int64_t kc = std::min(kKc, k - pc);
                    rows.carry = pc != 0 ? 0xFFu : 0u;
                    rows.finish = pc + kc == k ? 0xFFu : 0u;
                    run_panel(
                        pc, kc, nullptr,
                        pa.panels.data() + row_panels * kMr * pc + ib * kc,
                        rows);
                }
            }
        }
        if (pool_w > 0)
            pool_tile(tile_c, width, std::min(kPackMc, m - g0), j1 - j0,
                      pool_w, c + g0 * ldc + j0 / 4, ldc);
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

// Row-sparse packing (PackedGemmA). Bit i of the result: row g0 + i of A
// has a non-zero in k range [p, q).
std::uint32_t nonzero_rows(const float* a, std::int64_t lda, std::int64_t g0,
                           std::int64_t rows, std::int64_t p, std::int64_t q) {
    std::uint32_t set = 0;
    for (std::int64_t i = 0; i < rows; ++i) {
        const float* ai = a + (g0 + i) * lda;
        for (std::int64_t kk = p; kk < q; ++kk)
            if (ai[kk] != 0.0f) {
                set |= 1u << i;
                break;
            }
    }
    return set;
}

// Gathered panels of the rows `set` (bit i: row i of the group at row g0)
// over k range [p, q) of the k-block starting at pc: kMr rows per panel in
// row order, each panel holding the k where one of its rows is non-zero.
// An empty range gives zero-step panels. `seen` holds the group's rows
// packed so far: a row already in it carries its chain on.
void pack_segment(const float* a, std::int64_t lda, std::int64_t g0,
                  std::uint32_t set, std::int64_t pc, std::int64_t p,
                  std::int64_t q, std::uint32_t& seen, PackedGemmA& out) {
    while (set != 0) {
        Panel pn;
        pn.k0 = pc;
        pn.begin = static_cast<std::int64_t>(out.live.size());
        for (; pn.rows < kMr && set != 0; ++pn.rows, set &= set - 1) {
            const int i = __builtin_ctz(set);
            pn.row[pn.rows] = i;
            if ((seen >> i) & 1u)
                pn.carry |= static_cast<std::uint8_t>(1u << pn.rows);
            seen |= 1u << i;
        }
        for (std::int64_t kk = p; kk < q; ++kk) {
            float col[kMr] = {};
            bool live = false;
            for (std::int32_t r = 0; r < pn.rows; ++r) {
                col[r] = a[(g0 + pn.row[r]) * lda + kk];
                live |= col[r] != 0.0f;
            }
            if (!live) continue;
            out.live.push_back(static_cast<std::int32_t>(kk - pc));
            out.panels.insert(out.panels.end(), col, col + kMr);
        }
        pn.steps = static_cast<std::int64_t>(out.live.size()) - pn.begin;
        out.gathered.push_back(pn);
    }
}

void pack_gathered(std::int64_t m, std::int64_t k, const float* a,
                   std::int64_t lda, PackedGemmA& out) {
    static_assert(kPackMc <= 32, "a group's row set is a 32-bit mask");
    static_assert(kKc % kPackKs == 0, "segments never cross a k-block");
    out.panels.clear();
    out.gathered.clear();
    out.live.clear();
    out.group_begin.assign(1, 0);
    for (std::int64_t g0 = 0; g0 < m; g0 += kPackMc) {
        const std::int64_t rows = std::min(kPackMc, m - g0);
        const std::size_t first = out.gathered.size();
        std::uint32_t seen = 0;
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            // The k-block's kPackKs-deep chunks and their non-zero rows; a
            // segment runs over consecutive chunks with the same set.
            std::uint32_t sets[kKc / kPackKs];
            const std::int64_t chunks = (k1 - pc + kPackKs - 1) / kPackKs;
            for (std::int64_t ch = 0; ch < chunks; ++ch)
                sets[ch] = nonzero_rows(a, lda, g0, rows, pc + ch * kPackKs,
                                        std::min(k1, pc + (ch + 1) * kPackKs));
            for (std::int64_t ch = 0; ch < chunks;) {
                std::int64_t end = ch + 1;
                while (end < chunks && sets[end] == sets[ch]) ++end;
                pack_segment(a, lda, g0, sets[ch], pc, pc + ch * kPackKs,
                             std::min(k1, pc + end * kPackKs), seen, out);
                ch = end;
            }
        }
        // Rows live nowhere still need their (bias/ReLU of zero) store.
        const std::uint32_t all = rows == 32 ? ~0u : (1u << rows) - 1u;
        pack_segment(a, lda, g0, all & ~seen, 0, 0, 0, seen, out);
        // A row's chain ends in its last panel.
        std::uint32_t later = 0;
        for (std::size_t s = out.gathered.size(); s-- > first;) {
            Panel& pn = out.gathered[s];
            for (std::int32_t r = 0; r < pn.rows; ++r) {
                const std::uint32_t bit = 1u << pn.row[r];
                if (!(later & bit))
                    pn.finish |= static_cast<std::uint8_t>(1u << r);
                later |= bit;
            }
        }
        out.group_begin.push_back(static_cast<std::int64_t>(out.gathered.size()));
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
    if (out.sparse) {
        XS_COUNT("gemm.pack_a.sparse", 1);
        pack_gathered(m, k, a, lda, out);
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
        run_tiles<true>(pa, src, n, c, ldc, bias, relu, 0, tile_lo, tile_hi);
    else
        run_tiles<false>(pa, src, n, c, ldc, bias, relu, 0, tile_lo, tile_hi);
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
    out.width = width;
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
                     const float* bias, bool relu, bool pool,
                     std::int64_t tile_lo, std::int64_t tile_hi) {
    check(static_cast<std::size_t>(pa.k) == tables.offset.size(),
          "gemm_conv_tiles: weight patch size differs from the conv tables");
    check(!pool || (tables.width > 0 && tables.width % 2 == 0 &&
                    tables.hw / tables.width % 2 == 0 &&
                    gemm_tiles_hold_row_pairs(tables.n_cols, tables.width)),
          "gemm_conv_tiles: a pooled conv needs even H and W and tiles that "
          "hold whole row pairs");
    const ConvSource src{tables, x};
    const std::int64_t pool_w = pool ? tables.width : 0;
    if (pa.sparse)
        run_tiles<true>(pa, src, tables.n_cols, c, ldc, bias, relu, pool_w,
                        tile_lo, tile_hi);
    else
        run_tiles<false>(pa, src, tables.n_cols, c, ldc, bias, relu, pool_w,
                         tile_lo, tile_hi);
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

}  // namespace xs::tensor
