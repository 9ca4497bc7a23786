#include "xbar/solver.h"

#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace xs::xbar {

using tensor::check;
using tensor::Tensor;

namespace {

constexpr int kB = kSolveBlock;
constexpr std::int64_t kTile = kB * kB;

// A resistance of exactly zero means "ideal conductor"; represent it with a
// huge-but-finite conductance to keep the linear algebra well posed.
double safe_conductance(double resistance) {
    return resistance <= 0.0 ? 1e9 : 1.0 / resistance;
}

// A block of kB chains is kH vectors of kV doubles (one AVX-512 register
// each). GNU vector types, as in tensor/gemm.cpp, keep a block's chains in
// registers across a chain recurrence, which the auto-vectorizer would
// scalarize; without AVX-512 the compiler splits each into narrower
// vectors. Every operation is element-wise IEEE arithmetic in source order
// (this file is compiled without FP contraction), so each lane computes
// exactly what the scalar expression computes. Vectors move through memcpy
// (no alignment assumed) and references: a 64-byte vector passed by value
// changes the ABI on targets without AVX-512 (GCC -Wpsabi).
constexpr int kV = 8;
constexpr int kH = kB / kV;
static_assert(kB % kV == 0, "a block is a whole number of vectors");
using Vd = double __attribute__((vector_size(kV * sizeof(double))));
using Vf = float __attribute__((vector_size(kV * sizeof(float))));
using Vu = std::uint64_t __attribute__((vector_size(kV * sizeof(double))));

inline void load(const double* p, Vd& v) { __builtin_memcpy(&v, p, sizeof v); }
inline void store(double* p, const Vd& v) { __builtin_memcpy(p, &v, sizeof v); }
// Conductances are stored as float and promoted at use, which is exact.
inline void load_g(const float* p, Vd& v) {
#if defined(__AVX512F__)
    // One conversion, not two halves; the all-lanes mask form avoids the
    // unmasked intrinsic's undefined-source warning under GCC 12.
    v = _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(p));
#else
    Vf f;
    __builtin_memcpy(&f, p, sizeof f);
    v = __builtin_convertvector(f, Vd);
#endif
}

// Lane k of out[e] = src[k·stride + e]: the columns of one kV×kV block.
inline void transpose8(const double* src, std::int64_t stride,
                       Vd (&out)[kV]) {
#if defined(__AVX512F__)
    // Three rounds of two-source permutes: interleave the even / odd
    // elements of row pairs, then 128-bit pairs, then 256-bit halves.
    const __m512i even = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i odd = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
    const __m512i even2 = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i odd2 = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    const __m512i lo4 = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i hi4 = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    __m512d r[kV], t[kV], u[kV];
    for (int k = 0; k < kV; ++k) r[k] = _mm512_loadu_pd(src + k * stride);
    for (int k = 0; k < kV; k += 2) {
        t[k] = _mm512_permutex2var_pd(r[k], even, r[k + 1]);
        t[k + 1] = _mm512_permutex2var_pd(r[k], odd, r[k + 1]);
    }
    for (int k = 0; k < kV; k += 4)
        for (int h = k; h < k + 2; ++h) {
            u[h] = _mm512_permutex2var_pd(t[h], even2, t[h + 2]);
            u[h + 2] = _mm512_permutex2var_pd(t[h], odd2, t[h + 2]);
        }
    for (int k = 0; k < 4; ++k) {
        out[k] = _mm512_permutex2var_pd(u[k], lo4, u[k + 4]);
        out[k + 4] = _mm512_permutex2var_pd(u[k], hi4, u[k + 4]);
    }
#else
    for (int e = 0; e < kV; ++e)
        for (int k = 0; k < kV; ++k) out[e][k] = src[k * stride + e];
#endif
}

// dst = srcᵀ for one kB×kB tile of doubles, both row-major; src ≠ dst.
void transpose_tile(const double* src, double* dst) {
    for (int qr = 0; qr < kB; qr += kV)
        for (int qc = 0; qc < kB; qc += kV) {
            Vd t[kV];
            transpose8(src + qr * kB + qc, kB, t);
            for (int e = 0; e < kV; ++e) store(dst + (qc + e) * kB + qr, t[e]);
        }
}

// The same for a tile of floats, moved through doubles (exact both ways).
void transpose_tile(const float* src, float* dst) {
    for (int qr = 0; qr < kB; qr += kV)
        for (int qc = 0; qc < kB; qc += kV) {
            double wide[kV * kV];
            for (int k = 0; k < kV; ++k) {
                Vd row;
                load_g(src + (qr + k) * kB + qc, row);
                store(wide + k * kV, row);
            }
            Vd t[kV];
            transpose8(wide, kV, t);
            for (int e = 0; e < kV; ++e) {
                const Vf narrow = __builtin_convertvector(t[e], Vf);
                __builtin_memcpy(dst + (qc + e) * kB + qr, &narrow,
                                 sizeof narrow);
            }
        }
}

// Relaxation update of kV consecutive positions of one block's chains. The
// back-substitution left their new values in `x` as [position][chain] (row
// stride kB); the field keeps each chain's positions together, as
// [chain][position] tiles with row stride kB, the layout the opposite
// half-sweep reads, so x is transposed on the way in, in registers. Each
// node is updated as in the scalar solve (d = x − v, v += d), and |d| folds
// into a running max per vector lane in std::max's form, which skips NaNs
// exactly as the scalar reduction does.
void update_positions(const double* x, double* v, Vd& lane_max) {
    const Vu abs_mask = Vu{} + ~(std::uint64_t{1} << 63);
    for (int qc = 0; qc < kB; qc += kV) {
        Vd t[kV];  // t[e]: chain qc + e at the kV positions
        transpose8(x + qc, kB, t);
        // A max per kV chains, folded into the sweep's once: neither can be
        // NaN, so the fold loses nothing and keeps the chain short.
        Vd m = {};
        for (int e = 0; e < kV; ++e) {
            double* ve = v + (qc + e) * kB;
            Vd old;
            load(ve, old);
            const Vd d = t[e] - old;
            // |d|: clear the sign bit (a vector cast reinterprets bits).
            const Vd a = (Vd)((Vu)d & abs_mask);
            m = m < a ? a : m;
            store(ve, old + d);
        }
        lane_max = lane_max < m ? m : lane_max;
    }
}

// What both half-sweeps of one solve share.
struct SweepParams {
    std::int64_t n, np, nb;  // size, padded size, blocks
    double gdrv, gwr, gwc, gsn;
    const double* v_in;
    double* rc;  // one block's chain recurrences, np × kB
};

// One half-sweep: the exact tridiagonal (Thomas) solve of every row chain
// (kRow) or every column chain with the other direction's voltages frozen,
// then the relaxation update of this direction's voltages. Chains run kB at
// a time, one per vector lane, and every lane's arithmetic is the scalar
// solve's, expression for expression; only the order across chains changes,
// and chains of one half-sweep neither read nor write each other's state.
//   g, inv  this direction's chains, [block][padded position][chain]
//   other   the frozen field, in the same layout
//   own     this direction's field as tiles (position block · nb + block),
//           each [chain][position]
// On the first sweep the chain factorization (reciprocal pivots) is
// computed inline, right before the elimination step that needs it, and
// the row chains skip their g·V_col terms: V_col is identically +0.0
// against the flat guess and conductances are finite, so those terms are
// exactly +0.0, and the literal 0.0 left in their place keeps every sum's
// bits, signed zeros included.
template <bool kRow>
void half_sweep(const SweepParams& s, const float* gl, double* invl,
                const double* other, double* own, bool first,
                Vd& lane_max) {
    const std::int64_t n = s.n, nb = s.nb;
    const double gw = kRow ? s.gwr : s.gwc;
    // The chain's end terms as the scalar solve forms them: a row's first
    // node also carries the driver, a column's last node the sense resistor.
    const double head =
        kRow ? s.gdrv + (n > 1 ? s.gwr : 0.0) : (n > 1 ? s.gwc : s.gsn);
    const double end = kRow ? 0.0 : s.gsn;
    double* rc = s.rc;
    for (std::int64_t b = 0; b < nb; ++b) {
        const float* g = gl + b * s.np * kB;
        double* inv = invl + b * s.np * kB;
        const double* o = other + b * s.np * kB;
        // A row chain's driver injection gdrv·V_in; zero on padding chains.
        Vd src[kH] = {};
        if constexpr (kRow)
            for (int c = 0; c < kB && b * kB + c < n; ++c)
                src[c / kV][c % kV] = s.gdrv * s.v_in[b * kB + c];

        // Forward elimination; x carries each chain's last value.
        Vd x[kH], gk, ok, ik;
        if (first) {
            for (int h = 0; h < kH; ++h) {
                load_g(g + h * kV, gk);
                store(inv + h * kV, 1.0 / (head + gk));
                if constexpr (kRow) {
                    x[h] = 0.0 + src[h];
                } else {
                    load(o + h * kV, ok);
                    x[h] = gk * ok;
                }
                store(rc + h * kV, x[h]);
            }
            for (std::int64_t j = 1; j < n; ++j) {
                const double tail = j + 1 < n ? gw : end;
                for (int h = 0; h < kH; ++h) {
                    const std::int64_t k = j * kB + h * kV;
                    load_g(g + k, gk);
                    load(inv + k - kB, ik);
                    const Vd mk = -gw * ik;
                    store(inv + k, 1.0 / (gw + tail + gk + mk * gw));
                    if constexpr (kRow) {
                        x[h] = 0.0 - mk * x[h];
                    } else {
                        load(o + k, ok);
                        x[h] = gk * ok - mk * x[h];
                    }
                    store(rc + k, x[h]);
                }
            }
        } else {
            for (int h = 0; h < kH; ++h) {
                load_g(g + h * kV, gk);
                load(o + h * kV, ok);
                if constexpr (kRow)
                    x[h] = gk * ok + src[h];
                else
                    x[h] = gk * ok;
                store(rc + h * kV, x[h]);
            }
            for (std::int64_t j = 1; j < n; ++j)
                for (int h = 0; h < kH; ++h) {
                    const std::int64_t k = j * kB + h * kV;
                    load_g(g + k, gk);
                    load(o + k, ok);
                    load(inv + k - kB, ik);
                    const Vd mk = -gw * ik;
                    x[h] = gk * ok - mk * x[h];
                    store(rc + k, x[h]);
                }
        }

        // Back-substitution. Each time kV positions are final, their update
        // runs (in the shadow of the recurrence's latency). Position groups
        // wholly past n hold padding nodes only, whose updates are exactly
        // zero, so they are skipped.
        const auto relax = [&](std::int64_t j) {
            if (j % kV == 0)
                update_positions(rc + j * kB,
                                 own + ((j / kB) * nb + b) * kTile + j % kB,
                                 lane_max);
        };
        Vd rk;
        for (int h = 0; h < kH; ++h) {
            const std::int64_t k = (n - 1) * kB + h * kV;
            load(rc + k, rk);
            load(inv + k, ik);
            x[h] = rk * ik;
            store(rc + k, x[h]);
        }
        relax(n - 1);
        for (std::int64_t j = n - 2; j >= 0; --j) {
            for (int h = 0; h < kH; ++h) {
                const std::int64_t k = j * kB + h * kV;
                load(rc + k, rk);
                load(inv + k, ik);
                x[h] = (rk + gw * x[h]) * ik;
                store(rc + k, x[h]);
            }
            relax(j);
        }
    }
}

// Solve one tile into ws, recording its outputs as lane `lane`.
//
// Layout: the row half-sweep reads V_col in row blocks ([row block][column]
// [row in block]) and the column half-sweep reads V_row in column blocks
// ([column block][row][column in block]), each contiguous per block; each
// half-sweep writes its own field transposed, kV positions at a time
// (update_positions).
// At the end V_col moves to column blocks too, so both fields share
// BatchedSolveWorkspace::at.
void solve_tile(const SweepParams& s, const Tensor& g, int max_sweeps,
                BatchedSolveWorkspace& ws, int lane) {
    const std::int64_t n = s.n, np = s.np, nb = s.nb;

    // Chain layouts, [block][padded position][chain]. Column block bj at
    // position i is the row-major stretch G(i, bj·kB …); the row chains are
    // its tile-by-tile transpose. Padding rows and chains keep the zeros
    // ensure() wrote.
    const float* gf = g.data();
    float* grow = ws.g_row.data();
    float* gcol = ws.g_col.data();
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t bj = 0; bj < nb; ++bj)
            std::copy_n(gf + i * n + bj * kB,
                        std::min<std::int64_t>(kB, n - bj * kB),
                        gcol + (bj * np + i) * kB);
    for (std::int64_t bi = 0; bi < nb; ++bi)
        for (std::int64_t bj = 0; bj < nb; ++bj)
            transpose_tile(gcol + (bj * np + bi * kB) * kB,
                           grow + (bi * np + bj * kB) * kB);

    // Initial guess: rows at their source voltage, columns at ground, and
    // every padding node at zero.
    double* vr = ws.vr.data();
    double* vc = ws.vc.data();
    std::fill(vr, vr + np * np, 0.0);
    std::fill(vc, vc + np * np, 0.0);
    for (std::int64_t bj = 0; bj < nb; ++bj)
        for (std::int64_t i = 0; i < n; ++i)
            std::fill_n(vr + (bj * np + i) * kB,
                        std::min<std::int64_t>(kB, n - bj * kB), s.v_in[i]);

    double max_delta = 0.0;
    int sweep = 0;
    for (; sweep < max_sweeps; ++sweep) {
        Vd lane_max = {};
        half_sweep<true>(s, grow, ws.row_inv_d.data(), vc, vr, sweep == 0,
                         lane_max);
        half_sweep<false>(s, gcol, ws.col_inv_d.data(), vr, vc, sweep == 0,
                          lane_max);
        max_delta = 0.0;
        for (int l = 0; l < kV; ++l)
            max_delta = max_delta < lane_max[l] ? lane_max[l] : max_delta;
        if (max_delta < CircuitSolver::kTolerance) {
            ++sweep;
            break;
        }
    }
    ws.iterations[lane] = sweep;
    ws.max_delta[lane] = max_delta;
    ws.converged[lane] = max_delta < CircuitSolver::kTolerance;

    // V_col from row blocks to column blocks: tile (R, C) moves from
    // R·nb + C to C·nb + R and is transposed.
    alignas(64) double tmp[kTile];
    for (std::int64_t bi = 0; bi < nb; ++bi)
        for (std::int64_t bj = bi; bj < nb; ++bj) {
            double* a = vc + (bi * nb + bj) * kTile;
            double* t = vc + (bj * nb + bi) * kTile;
            transpose_tile(a, tmp);
            if (t != a) transpose_tile(t, a);
            std::copy(tmp, tmp + kTile, t);
        }

    double* cur = ws.currents.data() + lane * n;
    for (std::int64_t j = 0; j < n; ++j) cur[j] = vc[ws.at(n - 1, j)] * s.gsn;
}

}  // namespace

void SolveWorkspace::ensure(std::int64_t size) {
    if (n == size) return;
    const auto nn = static_cast<std::size_t>(size * size);
    const auto ns = static_cast<std::size_t>(size);
    vr.resize(nn);
    vc.resize(nn);
    g_row.resize(nn);
    g_col.resize(nn);
    row_m.resize(nn);
    row_inv_d.resize(nn);
    col_m.resize(nn);
    col_inv_d.resize(nn);
    rhs.resize(ns);
    currents.resize(ns);
    n = size;
}

void BatchedSolveWorkspace::ensure(std::int64_t size) {
    if (n == size) return;
    const std::int64_t p =
        (size + kSolveBlock - 1) / kSolveBlock * kSolveBlock;
    const auto nodes = static_cast<std::size_t>(p * p);
    // assign, not resize: padding must read zero at every size, and assign
    // reuses the grown capacity, so a smaller tile allocates nothing.
    g_row.assign(nodes, 0.0f);
    g_col.assign(nodes, 0.0f);
    row_inv_d.assign(nodes, 0.0);
    col_inv_d.assign(nodes, 0.0);
    vr.assign(nodes, 0.0);
    vc.assign(nodes, 0.0);
    rhs.assign(static_cast<std::size_t>(p * kSolveBlock), 0.0);
    currents.assign(static_cast<std::size_t>(size * kMaxSolveLanes), 0.0);
    n = size;
    padded = p;
}

CircuitSolver::CircuitSolver(const CrossbarConfig& config) : config_(config) {
    g_driver_ = safe_conductance(config.parasitics.r_driver);
    g_wire_row_ = safe_conductance(config.parasitics.r_wire_row);
    g_wire_col_ = safe_conductance(config.parasitics.r_wire_col);
    g_sense_ = safe_conductance(config.parasitics.r_sense);
}

void CircuitSolver::ideal_currents(const Tensor& g, const double* v_in,
                                   double* out) const {
    const std::int64_t n = config_.size;
    check(g.rank() == 2 && g.dim(0) == n && g.dim(1) == n,
          "CircuitSolver: conductance matrix shape mismatch");
    std::fill(out, out + n, 0.0);
    for (std::int64_t i = 0; i < n; ++i) {
        const float* row = g.data() + i * n;
        const double vi = v_in[i];
        for (std::int64_t j = 0; j < n; ++j)
            out[j] += static_cast<double>(row[j]) * vi;
    }
}

std::vector<double> CircuitSolver::ideal_currents(
    const Tensor& g, const std::vector<double>& v_in) const {
    check(static_cast<std::int64_t>(v_in.size()) == config_.size,
          "CircuitSolver: input voltage count mismatch");
    std::vector<double> out(v_in.size());
    ideal_currents(g, v_in.data(), out.data());
    return out;
}

bool CircuitSolver::solve(const Tensor& g, const double* v_in,
                          SolveWorkspace& ws) const {
    const std::int64_t n = config_.size;
    check(g.rank() == 2 && g.dim(0) == n && g.dim(1) == n,
          "CircuitSolver: conductance matrix shape mismatch");
    ws.ensure(n);
    XS_TIMER_NS("xbar.solve.ns");
    XS_COUNT("xbar.solve.solves", 1);
    // Handle hoisted out of its condition: a branch-local XS_COUNT would
    // register (and allocate) on the first *taken* branch, breaking the
    // zero-allocation steady state when the first unconverged solve happens
    // after warm-up.
    static const util::metrics::Counter unconverged =
        util::metrics::counter("xbar.solve.unconverged");

    const double gdrv = g_driver_, gwr = g_wire_row_, gwc = g_wire_col_,
                 gsn = g_sense_;

    // Promote the device conductances to double, row- and column-major, so
    // the sweeps below touch contiguous memory in both directions.
    const float* gf = g.data();
    double* gr = ws.g_row.data();
    double* gc = ws.g_col.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const float* src = gf + i * n;
        double* dst = gr + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            const double v = src[j];
            dst[j] = v;
            gc[j * n + i] = v;
        }
    }

    // Factor every chain's tridiagonal matrix once (it is constant across
    // sweeps; only the right-hand side changes). For a chain with diagonal
    // d_k and constant off-diagonal -w, forward elimination gives
    // m_k = -w / d'_{k-1}, d'_k = d_k + m_k·w; we store m_k and 1/d'_k so a
    // sweep is pure multiply-adds.
    for (std::int64_t i = 0; i < n; ++i) {
        const double* grow = gr + i * n;
        double* m = ws.row_m.data() + i * n;
        double* inv = ws.row_inv_d.data() + i * n;
        double d = gdrv + (n > 1 ? gwr : 0.0) + grow[0];
        m[0] = 0.0;
        inv[0] = 1.0 / d;
        for (std::int64_t j = 1; j < n; ++j) {
            const double mj = -gwr * inv[j - 1];
            d = gwr + (j + 1 < n ? gwr : 0.0) + grow[j] + mj * gwr;
            m[j] = mj;
            inv[j] = 1.0 / d;
        }
    }
    for (std::int64_t j = 0; j < n; ++j) {
        const double* gcol = gc + j * n;
        double* m = ws.col_m.data() + j * n;
        double* inv = ws.col_inv_d.data() + j * n;
        double d = (n > 1 ? gwc : gsn) + gcol[0];
        m[0] = 0.0;
        inv[0] = 1.0 / d;
        for (std::int64_t i = 1; i < n; ++i) {
            const double mi = -gwc * inv[i - 1];
            d = gwc + (i + 1 < n ? gwc : gsn) + gcol[i] + mi * gwc;
            m[i] = mi;
            inv[i] = 1.0 / d;
        }
    }

    // Initial guess: rows at their source voltage, columns at ground.
    double* vr = ws.vr.data();
    double* vc = ws.vc.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const double vi = v_in[i];
        double* row = vr + i * n;
        for (std::int64_t j = 0; j < n; ++j) row[j] = vi;
    }
    std::fill(vc, vc + n * n, 0.0);

    double* r = ws.rhs.data();
    double max_delta = 0.0;
    int sweep = 0;
    for (; sweep < max_sweeps_; ++sweep) {
        max_delta = 0.0;

        // Row chains: unknowns V_r(i, 0..n-1) with V_c frozen.
        for (std::int64_t i = 0; i < n; ++i) {
            const double* grow = gr + i * n;
            const double* m = ws.row_m.data() + i * n;
            const double* inv = ws.row_inv_d.data() + i * n;
            double* vri = vr + i * n;
            const double* vci = vc + i * n;
            r[0] = grow[0] * vci[0] + gdrv * v_in[i];
            for (std::int64_t j = 1; j < n; ++j)
                r[j] = grow[j] * vci[j] - m[j] * r[j - 1];
            r[n - 1] *= inv[n - 1];
            for (std::int64_t j = n - 2; j >= 0; --j)
                r[j] = (r[j] + gwr * r[j + 1]) * inv[j];
            for (std::int64_t j = 0; j < n; ++j) {
                const double d = r[j] - vri[j];
                max_delta = std::max(max_delta, std::fabs(d));
                vri[j] += d;
            }
        }

        // Column chains: unknowns V_c(0..n-1, j) with V_r frozen. The bottom
        // node's sense conductance couples to ground (0 V): no rhs term.
        for (std::int64_t j = 0; j < n; ++j) {
            const double* gcol = gc + j * n;
            const double* m = ws.col_m.data() + j * n;
            const double* inv = ws.col_inv_d.data() + j * n;
            r[0] = gcol[0] * vr[j];
            for (std::int64_t i = 1; i < n; ++i)
                r[i] = gcol[i] * vr[i * n + j] - m[i] * r[i - 1];
            r[n - 1] *= inv[n - 1];
            for (std::int64_t i = n - 2; i >= 0; --i)
                r[i] = (r[i] + gwc * r[i + 1]) * inv[i];
            for (std::int64_t i = 0; i < n; ++i) {
                double& v = vc[i * n + j];
                const double d = r[i] - v;
                max_delta = std::max(max_delta, std::fabs(d));
                v += d;
            }
        }

        if (max_delta < kTolerance) {
            ++sweep;
            break;
        }
    }

    ws.iterations = sweep;
    ws.max_delta = max_delta;
    ws.converged = max_delta < kTolerance;
    XS_COUNT("xbar.solve.sweeps", static_cast<std::uint64_t>(sweep));
    if (!ws.converged) unconverged.add(1);
    for (std::int64_t j = 0; j < n; ++j)
        ws.currents[static_cast<std::size_t>(j)] = vc[(n - 1) * n + j] * gsn;
    return ws.converged;
}

void CircuitSolver::solve_batched(const Tensor* const* g, int lanes,
                                  const double* v_in,
                                  BatchedSolveWorkspace& ws) const {
    const std::int64_t n = config_.size;
    check(lanes >= 1 && lanes <= kMaxSolveLanes,
          "CircuitSolver: batched lane count out of range");
    for (int r = 0; r < lanes; ++r)
        check(g[r]->rank() == 2 && g[r]->dim(0) == n && g[r]->dim(1) == n,
              "CircuitSolver: conductance matrix shape mismatch");
    ws.ensure(n);
    static const util::metrics::Counter unconverged =
        util::metrics::counter("xbar.solve.unconverged");

    const SweepParams p{n,         ws.padded,   ws.padded / kB,
                        g_driver_, g_wire_row_, g_wire_col_,
                        g_sense_,  v_in,        ws.rhs.data()};
    for (int r = 0; r < lanes; ++r) {
        {
            XS_TIMER_NS("xbar.solve.ns");  // one sample per tile
            solve_tile(p, *g[r], max_sweeps_, ws, r);
        }
        XS_COUNT("xbar.solve.solves", 1);
        XS_COUNT("xbar.solve.sweeps",
                 static_cast<std::uint64_t>(ws.iterations[r]));
        if (!ws.converged[r]) unconverged.add(1);
    }
}

SolveResult CircuitSolver::solve(const Tensor& g,
                                 const std::vector<double>& v_in) const {
    const std::int64_t n = config_.size;
    check(static_cast<std::int64_t>(v_in.size()) == n,
          "CircuitSolver: input voltage count mismatch");

    // Buffer reuse across calls on the same thread.
    static thread_local SolveWorkspace ws;
    solve(g, v_in.data(), ws);

    SolveResult result;
    result.v_row = Tensor({n, n});
    result.v_col = Tensor({n, n});
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            result.v_row.at(i, j) = static_cast<float>(ws.vr[static_cast<std::size_t>(i * n + j)]);
            result.v_col.at(i, j) = static_cast<float>(ws.vc[static_cast<std::size_t>(i * n + j)]);
        }
    result.currents.assign(ws.currents.begin(), ws.currents.end());
    result.iterations = ws.iterations;
    result.max_delta = ws.max_delta;
    result.converged = ws.converged;
    return result;
}

SolveResult CircuitSolver::solve_dense(const Tensor& g,
                                       const std::vector<double>& v_in) const {
    const std::int64_t n = config_.size;
    check(g.rank() == 2 && g.dim(0) == n && g.dim(1) == n,
          "CircuitSolver: conductance matrix shape mismatch");
    const std::int64_t unknowns = 2 * n * n;  // row nodes then column nodes

    // Assemble the full nodal matrix A·v = b. Index r(i,j) = i*n+j,
    // c(i,j) = n*n + i*n + j.
    std::vector<double> a(static_cast<std::size_t>(unknowns * unknowns), 0.0);
    std::vector<double> b(static_cast<std::size_t>(unknowns), 0.0);
    auto A = [&](std::int64_t r, std::int64_t c) -> double& {
        return a[static_cast<std::size_t>(r * unknowns + c)];
    };
    auto stamp = [&](std::int64_t u, std::int64_t v, double cond) {
        // Conductance between unknowns u and v (v = -1 means ground).
        A(u, u) += cond;
        if (v >= 0) {
            A(v, v) += cond;
            A(u, v) -= cond;
            A(v, u) -= cond;
        }
    };

    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            const std::int64_t r = i * n + j;
            const std::int64_t c = n * n + i * n + j;
            // device
            stamp(r, c, g.at(i, j));
            // row wire to the right neighbour
            if (j + 1 < n) stamp(r, i * n + j + 1, g_wire_row_);
            // driver into the first row node (source through Rdriver)
            if (j == 0) {
                A(r, r) += g_driver_;
                b[static_cast<std::size_t>(r)] +=
                    g_driver_ * v_in[static_cast<std::size_t>(i)];
            }
            // column wire down
            if (i + 1 < n) stamp(c, n * n + (i + 1) * n + j, g_wire_col_);
            // sense resistor to ground at the bottom
            if (i == n - 1) A(c, c) += g_sense_;
        }
    }

    // Gaussian elimination with partial pivoting.
    for (std::int64_t k = 0; k < unknowns; ++k) {
        std::int64_t pivot = k;
        for (std::int64_t r = k + 1; r < unknowns; ++r)
            if (std::fabs(A(r, k)) > std::fabs(A(pivot, k))) pivot = r;
        if (pivot != k) {
            for (std::int64_t cidx = 0; cidx < unknowns; ++cidx)
                std::swap(A(k, cidx), A(pivot, cidx));
            std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(pivot)]);
        }
        const double pk = A(k, k);
        check(std::fabs(pk) > 1e-30, "solve_dense: singular nodal matrix");
        for (std::int64_t r = k + 1; r < unknowns; ++r) {
            const double m = A(r, k) / pk;
            if (m == 0.0) continue;
            for (std::int64_t cidx = k; cidx < unknowns; ++cidx)
                A(r, cidx) -= m * A(k, cidx);
            b[static_cast<std::size_t>(r)] -= m * b[static_cast<std::size_t>(k)];
        }
    }
    std::vector<double> v(static_cast<std::size_t>(unknowns));
    for (std::int64_t k = unknowns; k-- > 0;) {
        double acc = b[static_cast<std::size_t>(k)];
        for (std::int64_t cidx = k + 1; cidx < unknowns; ++cidx)
            acc -= A(k, cidx) * v[static_cast<std::size_t>(cidx)];
        v[static_cast<std::size_t>(k)] = acc / A(k, k);
    }

    SolveResult result;
    result.v_row = Tensor({n, n});
    result.v_col = Tensor({n, n});
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            result.v_row.at(i, j) = static_cast<float>(v[static_cast<std::size_t>(i * n + j)]);
            result.v_col.at(i, j) =
                static_cast<float>(v[static_cast<std::size_t>(n * n + i * n + j)]);
        }
    result.currents.resize(static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < n; ++j)
        result.currents[static_cast<std::size_t>(j)] =
            v[static_cast<std::size_t>(n * n + (n - 1) * n + j)] * g_sense_;
    result.iterations = 1;
    result.converged = true;
    return result;
}

}  // namespace xs::xbar
