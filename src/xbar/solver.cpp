#include "xbar/solver.h"

#include "util/metrics.h"

#include <algorithm>
#include <cmath>

namespace xs::xbar {

using tensor::check;
using tensor::Tensor;

// Independent tridiagonal chains processed simultaneously by the batched
// kernel so their serial recurrences hide each other's FP latency. Sizes the
// rhs scratch (kChainUnroll per-chain slices); see solve_batched_impl.
inline constexpr int kChainUnroll = 4;

namespace {

// A resistance of exactly zero means "ideal conductor"; represent it with a
// huge-but-finite conductance to keep the linear algebra well posed.
double safe_conductance(double resistance) {
    return resistance <= 0.0 ? 1e9 : 1.0 / resistance;
}

// Per-call parameters of a batched solve, captured once so the templated
// kernel below does not need access to CircuitSolver internals.
struct BatchedSolveParams {
    std::int64_t n;
    double gdrv, gwr, gwc, gsn;
    double tolerance;
    int max_sweeps;
};

// Lane-templated kernel: L is a compile-time constant so every `for r < L`
// loop unrolls/vectorizes into straight vector code. The arithmetic mirrors
// CircuitSolver::solve expression-for-expression — each lane must produce
// bit-identical results to a scalar solve, which the equivalence tests pin.
// Lanes that converge freeze (their voltages stop updating) while the sweep
// loop continues for the rest; a frozen lane's state is exactly the state
// the scalar solve would have returned.
//
// Chains are processed kChainUnroll at a time. Each chain's recurrence is a
// serial dependency (step j needs step j-1, a division chain in the
// factorization), so a single chain leaves the FP units mostly idle waiting
// on latency; interleaving independent chains fills those stall cycles.
// Within a chain the expressions — and hence every lane's bit pattern — are
// untouched; only the order *across* chains changes, and chains within a
// half-sweep neither read nor write each other's state.
template <int L>
void solve_batched_impl(const BatchedSolveParams& p,
                        const tensor::Tensor* const* g, const double* v_in,
                        BatchedSolveWorkspace& ws) {
    const std::int64_t n = p.n;
    const double gdrv = p.gdrv, gwr = p.gwr, gwc = p.gwc, gsn = p.gsn;
    constexpr int CU = kChainUnroll;

    // Lane-major spread of the conductance tiles: r innermost so every
    // (i,j) writes one full gr cacheline (L = 8 doubles) and the L source
    // tensors stream sequentially, instead of revisiting each destination
    // line once per lane. No transposed copy: lane-major means element
    // (i,j) occupies exactly one cacheline whatever the traversal order,
    // so the column half-sweep walks this same array with an n·L stride
    // (constant — the prefetcher tracks it) instead of paying a second
    // n²·L spread per solve.
    double* gr = ws.g_row.data();
    const float* gf[L];
    for (int r = 0; r < L; ++r) gf[r] = g[r]->data();
    for (std::int64_t k = 0; k < n * n; ++k) {
        double* grd = gr + k * L;
        for (int r = 0; r < L; ++r) grd[r] = gf[r][k];
    }

    // The Thomas factors (reciprocal pivots; the forward multiplier is
    // recomputed as the identical -gw·inv product, so identical bits) are
    // NOT built in a standalone pass: sweep 0's forward eliminations below
    // compute each chain's factors inline, right before the value that
    // needs them — the factor recurrence and the elimination visit the
    // same gr/gc/inv streams in the same order, so fusing them removes one
    // full re-stream of both arrays per solve without touching any
    // expression.

    double* vr = ws.vr.data();
    double* vc = ws.vc.data();
    // Captured before the warm-start init below: when every lane cold-starts,
    // vc is identically +0.0 entering sweep 0, so the g·vc terms of the first
    // row half-sweep are exactly +0.0 (conductances are finite, no NaN/Inf)
    // and the loads can be skipped — the RHS keeps a literal 0.0 operand in
    // their place so every sum keeps its bit pattern (signed zeros included).
    bool cold_entry = true;
    for (int r = 0; r < L; ++r)
        if (ws.warm[r]) cold_entry = false;
    for (int r = 0; r < L; ++r) {
        if (ws.warm[r]) continue;
        for (std::int64_t i = 0; i < n; ++i) {
            const double vi = v_in[i];
            for (std::int64_t j = 0; j < n; ++j) vr[(i * n + j) * L + r] = vi;
        }
        for (std::int64_t k = 0; k < n * n; ++k) vc[k * L + r] = 0.0;
    }

    double* rb = ws.rhs.data();
    bool active[L];
    double sweep_delta[L];
    for (int r = 0; r < L; ++r) {
        active[r] = true;
        ws.iterations[r] = 0;
        ws.max_delta[r] = 0.0;
        ws.converged[r] = 0;
    }
    int n_active = L;
    for (int sweep = 0; sweep < p.max_sweeps && n_active > 0; ++sweep) {
        for (int r = 0; r < L; ++r) sweep_delta[r] = 0.0;

        // Row chains, kChainUnroll interleaved. The recurrences run
        // unguarded for every lane (cheaper than masking and they only write
        // scratch); the voltage update is lane-gated so frozen lanes keep
        // their converged state untouched. Chains only read vc and write
        // their own vr rows, so interleaving cannot reorder visible effects;
        // sweep_delta is a max-reduction, commutative exactly.
        for (std::int64_t i0 = 0; i0 < n; i0 += CU) {
            const int nc = static_cast<int>(std::min<std::int64_t>(CU, n - i0));
            const double* grow[CU];
            double* inv[CU];
            double* vri[CU];
            const double* vci[CU];
            double* rc[CU];
            for (int c = 0; c < nc; ++c) {
                const std::int64_t i = i0 + c;
                grow[c] = gr + i * n * L;
                inv[c] = ws.row_inv_d.data() + i * n * L;
                vri[c] = vr + i * n * L;
                vci[c] = vc + i * n * L;
                rc[c] = rb + c * n * L;
            }
            if (sweep > 0) {
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r)
                        rc[c][r] = grow[c][r] * vci[c][r] + gdrv * v_in[i0 + c];
                for (std::int64_t j = 1; j < n; ++j)
                    for (int c = 0; c < nc; ++c)
                        for (int r = 0; r < L; ++r) {
                            const double mj = -gwr * inv[c][(j - 1) * L + r];
                            rc[c][j * L + r] =
                                grow[c][j * L + r] * vci[c][j * L + r] -
                                mj * rc[c][(j - 1) * L + r];
                        }
            } else if (cold_entry) {
                // Sweep 0, every lane cold: factor + elimination fused, and
                // the g·vc term replaced by the literal 0.0 it equals.
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r) {
                        const double d0 =
                            gdrv + (n > 1 ? gwr : 0.0) + grow[c][r];
                        inv[c][r] = 1.0 / d0;
                        rc[c][r] = 0.0 + gdrv * v_in[i0 + c];
                    }
                for (std::int64_t j = 1; j < n; ++j)
                    for (int c = 0; c < nc; ++c)
                        for (int r = 0; r < L; ++r) {
                            const double mj = -gwr * inv[c][(j - 1) * L + r];
                            const double dj = gwr + (j + 1 < n ? gwr : 0.0) +
                                              grow[c][j * L + r] + mj * gwr;
                            inv[c][j * L + r] = 1.0 / dj;
                            rc[c][j * L + r] =
                                0.0 - mj * rc[c][(j - 1) * L + r];
                        }
            } else {
                // Sweep 0 with warm lanes: factor + elimination fused, full
                // RHS (vc carries the warm state).
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r) {
                        const double d0 =
                            gdrv + (n > 1 ? gwr : 0.0) + grow[c][r];
                        inv[c][r] = 1.0 / d0;
                        rc[c][r] =
                            grow[c][r] * vci[c][r] + gdrv * v_in[i0 + c];
                    }
                for (std::int64_t j = 1; j < n; ++j)
                    for (int c = 0; c < nc; ++c)
                        for (int r = 0; r < L; ++r) {
                            const double mj = -gwr * inv[c][(j - 1) * L + r];
                            const double dj = gwr + (j + 1 < n ? gwr : 0.0) +
                                              grow[c][j * L + r] + mj * gwr;
                            inv[c][j * L + r] = 1.0 / dj;
                            rc[c][j * L + r] =
                                grow[c][j * L + r] * vci[c][j * L + r] -
                                mj * rc[c][(j - 1) * L + r];
                        }
            }
            // Back-substitution with the voltage update fused into it: the
            // update of element j reads only rc[j] (final once written) and
            // vr[j], and sweep_delta is a commutative max-reduction, so
            // folding it here instead of a separate pass changes no bits —
            // it just avoids re-streaming rc and vr once per half-sweep.
            for (int c = 0; c < nc; ++c)
                for (int r = 0; r < L; ++r) {
                    const double x =
                        rc[c][(n - 1) * L + r] * inv[c][(n - 1) * L + r];
                    rc[c][(n - 1) * L + r] = x;
                    const double d = x - vri[c][(n - 1) * L + r];
                    if (active[r]) {
                        sweep_delta[r] = std::max(sweep_delta[r], std::fabs(d));
                        vri[c][(n - 1) * L + r] += d;
                    }
                }
            for (std::int64_t j = n - 2; j >= 0; --j)
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r) {
                        const double x =
                            (rc[c][j * L + r] + gwr * rc[c][(j + 1) * L + r]) *
                            inv[c][j * L + r];
                        rc[c][j * L + r] = x;
                        const double d = x - vri[c][j * L + r];
                        if (active[r]) {
                            sweep_delta[r] =
                                std::max(sweep_delta[r], std::fabs(d));
                            vri[c][j * L + r] += d;
                        }
                    }
        }

        // Column chains, same interleave (read vr, write own vc columns).
        for (std::int64_t j0 = 0; j0 < n; j0 += CU) {
            const int nc = static_cast<int>(std::min<std::int64_t>(CU, n - j0));
            const double* gcol[CU];
            double* inv[CU];
            double* rc[CU];
            // Column c's conductances live in gr at stride S = n·L: element
            // i of chain j is gr[(i·n + j)·L .. +L) — one full cacheline,
            // exactly what a dedicated transposed copy would read.
            const std::int64_t S = n * L;
            for (int c = 0; c < nc; ++c) {
                const std::int64_t j = j0 + c;
                gcol[c] = gr + j * L;
                inv[c] = ws.col_inv_d.data() + j * n * L;
                rc[c] = rb + c * n * L;
            }
            if (sweep > 0) {
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r)
                        rc[c][r] = gcol[c][r] * vr[(j0 + c) * L + r];
                for (std::int64_t i = 1; i < n; ++i)
                    for (int c = 0; c < nc; ++c)
                        for (int r = 0; r < L; ++r) {
                            const double mi = -gwc * inv[c][(i - 1) * L + r];
                            rc[c][i * L + r] =
                                gcol[c][i * S + r] *
                                    vr[(i * n + (j0 + c)) * L + r] -
                                mi * rc[c][(i - 1) * L + r];
                        }
            } else {
                // Sweep 0: factor + elimination fused (vr is never zero, so
                // there is no cold specialization on the column half-sweep).
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r) {
                        const double d0 = (n > 1 ? gwc : gsn) + gcol[c][r];
                        inv[c][r] = 1.0 / d0;
                        rc[c][r] = gcol[c][r] * vr[(j0 + c) * L + r];
                    }
                for (std::int64_t i = 1; i < n; ++i)
                    for (int c = 0; c < nc; ++c)
                        for (int r = 0; r < L; ++r) {
                            const double mi = -gwc * inv[c][(i - 1) * L + r];
                            const double di = gwc + (i + 1 < n ? gwc : gsn) +
                                              gcol[c][i * S + r] + mi * gwc;
                            inv[c][i * L + r] = 1.0 / di;
                            rc[c][i * L + r] =
                                gcol[c][i * S + r] *
                                    vr[(i * n + (j0 + c)) * L + r] -
                                mi * rc[c][(i - 1) * L + r];
                        }
            }
            // Fused back-substitution + update, as in the row pass.
            for (int c = 0; c < nc; ++c)
                for (int r = 0; r < L; ++r) {
                    const double x =
                        rc[c][(n - 1) * L + r] * inv[c][(n - 1) * L + r];
                    rc[c][(n - 1) * L + r] = x;
                    double& v = vc[((n - 1) * n + (j0 + c)) * L + r];
                    const double d = x - v;
                    if (active[r]) {
                        sweep_delta[r] = std::max(sweep_delta[r], std::fabs(d));
                        v += d;
                    }
                }
            for (std::int64_t i = n - 2; i >= 0; --i)
                for (int c = 0; c < nc; ++c)
                    for (int r = 0; r < L; ++r) {
                        const double x =
                            (rc[c][i * L + r] + gwc * rc[c][(i + 1) * L + r]) *
                            inv[c][i * L + r];
                        rc[c][i * L + r] = x;
                        double& v = vc[(i * n + (j0 + c)) * L + r];
                        const double d = x - v;
                        if (active[r]) {
                            sweep_delta[r] =
                                std::max(sweep_delta[r], std::fabs(d));
                            v += d;
                        }
                    }
        }

        for (int r = 0; r < L; ++r) {
            if (!active[r]) continue;
            // Matches the scalar bookkeeping: on the convergence sweep the
            // scalar loop executes `++sweep; break`, so iterations counts
            // the sweep that met tolerance.
            ws.iterations[r] = sweep + 1;
            ws.max_delta[r] = sweep_delta[r];
            if (sweep_delta[r] < p.tolerance) {
                ws.converged[r] = 1;
                active[r] = false;
                --n_active;
            }
        }
    }
    for (int r = 0; r < L; ++r) ws.warm[r] = ws.converged[r];
    for (std::int64_t j = 0; j < n; ++j)
        for (int r = 0; r < L; ++r)
            ws.currents[j * L + r] = vc[((n - 1) * n + j) * L + r] * gsn;
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
    warm = false;
}

void BatchedSolveWorkspace::ensure(std::int64_t size, int lane_count) {
    if (n == size && lanes == lane_count) return;
    const auto nn = static_cast<std::size_t>(size * size * lane_count);
    const auto ns = static_cast<std::size_t>(size * lane_count);
    vr.resize(nn);
    vc.resize(nn);
    g_row.resize(nn);
    row_inv_d.resize(nn);
    col_inv_d.resize(nn);
    rhs.resize(ns * static_cast<std::size_t>(kChainUnroll));
    currents.resize(ns);
    n = size;
    lanes = lane_count;
    invalidate();
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
#if XS_TELEMETRY_ENABLED
    // Handles hoisted out of their conditions: a branch-local XS_COUNT
    // would register (and allocate) on the first *taken* branch, breaking
    // the zero-allocation steady state when e.g. the first warm start
    // happens after warm-up.
    static const util::metrics::Counter warm_starts =
        util::metrics::counter("xbar.solve.warm_starts");
    static const util::metrics::Counter unconverged =
        util::metrics::counter("xbar.solve.unconverged");
    if (ws.warm) warm_starts.add(1);
#endif

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

    double* vr = ws.vr.data();
    double* vc = ws.vc.data();
    if (!ws.warm) {
        // Initial guess: rows at their source voltage, columns at ground.
        for (std::int64_t i = 0; i < n; ++i) {
            const double vi = v_in[i];
            double* row = vr + i * n;
            for (std::int64_t j = 0; j < n; ++j) row[j] = vi;
        }
        std::fill(vc, vc + n * n, 0.0);
    }

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

        if (max_delta < tolerance_) {
            ++sweep;
            break;
        }
    }

    ws.iterations = sweep;
    ws.max_delta = max_delta;
    ws.converged = max_delta < tolerance_;
    XS_COUNT("xbar.solve.sweeps", static_cast<std::uint64_t>(sweep));
#if XS_TELEMETRY_ENABLED
    if (!ws.converged) unconverged.add(1);
#endif
    // Only a converged field is worth warm-starting from; after a failed
    // solve the next one restarts cold, so bad state never propagates.
    ws.warm = ws.converged;
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
    ws.ensure(n, lanes);
    XS_TIMER_NS("xbar.solve.ns");
    XS_COUNT("xbar.solve.solves", static_cast<std::uint64_t>(lanes));
#if XS_TELEMETRY_ENABLED
    static const util::metrics::Counter warm_starts =
        util::metrics::counter("xbar.solve.warm_starts");
    static const util::metrics::Counter unconverged =
        util::metrics::counter("xbar.solve.unconverged");
    for (int r = 0; r < lanes; ++r)
        if (ws.warm[r]) warm_starts.add(1);
#endif

    const BatchedSolveParams p{n,        g_driver_,  g_wire_row_, g_wire_col_,
                               g_sense_, tolerance_, max_sweeps_};
    switch (lanes) {
        case 1: solve_batched_impl<1>(p, g, v_in, ws); break;
        case 2: solve_batched_impl<2>(p, g, v_in, ws); break;
        case 3: solve_batched_impl<3>(p, g, v_in, ws); break;
        case 4: solve_batched_impl<4>(p, g, v_in, ws); break;
        case 5: solve_batched_impl<5>(p, g, v_in, ws); break;
        case 6: solve_batched_impl<6>(p, g, v_in, ws); break;
        case 7: solve_batched_impl<7>(p, g, v_in, ws); break;
        case 8: solve_batched_impl<8>(p, g, v_in, ws); break;
        default: break;
    }

    std::uint64_t total_sweeps = 0;
    for (int r = 0; r < lanes; ++r)
        total_sweeps += static_cast<std::uint64_t>(ws.iterations[r]);
    XS_COUNT("xbar.solve.sweeps", total_sweeps);
#if XS_TELEMETRY_ENABLED
    for (int r = 0; r < lanes; ++r)
        if (!ws.converged[r]) unconverged.add(1);
#endif
}

SolveResult CircuitSolver::solve(const Tensor& g,
                                 const std::vector<double>& v_in) const {
    const std::int64_t n = config_.size;
    check(static_cast<std::int64_t>(v_in.size()) == n,
          "CircuitSolver: input voltage count mismatch");

    // Buffer reuse across calls on the same thread; the cold start is kept
    // (no warm-start) so results never depend on unrelated earlier solves.
    static thread_local SolveWorkspace ws;
    ws.invalidate();
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
