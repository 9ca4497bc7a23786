// Nodal circuit solver for a parasitic X×X crossbar (paper Fig. 1(a)).
//
// Network: every crosspoint (i, j) has a row node and a column node bridged
// by the device conductance G_ij. Row nodes chain through Rwire_row and are
// fed from V_in[i] through Rdriver; column nodes chain through Rwire_col and
// terminate through Rsense into virtual ground.
//
// The solver uses line relaxation: alternating exact tridiagonal (Thomas)
// solves of every row chain and every column chain. Wire conductances are
// orders of magnitude above device conductances, so the cross-coupling is
// weak and the iteration converges in a handful of sweeps — much faster than
// point Gauss–Seidel on the same 2·X² system. A dense Gaussian-elimination
// reference (solve_dense) validates it in the test suite.
//
// The hot entry point is solve_batched (DESIGN.md §3): a blocked kernel that
// runs each half-sweep across kSolveBlock of the tile's own chains at a time,
// one chain per vector lane, and is bit-identical to the scalar solve, which
// stays as the tests' reference. In both, each chain's tridiagonal
// factorization is computed once per solve and reused across sweeps, and all
// scratch lives in a caller-owned workspace so the steady state performs no
// heap allocation (DESIGN.md §4). Every solve starts from the flat initial
// guess, so a result is a pure function of the tile.
#pragma once

#include "tensor/tensor.h"
#include "xbar/config.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xs::xbar {

// Reusable scratch for CircuitSolver::solve. Buffers grow on demand and are
// never shrunk; after the first solve of a given size, subsequent solves of
// the same size perform zero heap allocations. The workspace carries
// buffers, not state: every solve starts from the flat initial guess.
struct SolveWorkspace {
    // Node voltages, row-major X×X, double precision (float storage would
    // stall convergence). Valid after a solve.
    std::vector<double> vr, vc;
    // Sensed per-column output currents (A). Valid after a solve.
    std::vector<double> currents;

    // Per-solve internals: device conductances promoted to double (row- and
    // column-major) and the precomputed Thomas factors of every row/column
    // chain (forward multipliers `m` and reciprocal pivots `inv_d`).
    std::vector<double> g_row, g_col;
    std::vector<double> row_m, row_inv_d;
    std::vector<double> col_m, col_inv_d;
    std::vector<double> rhs;

    std::int64_t n = 0;  // provisioned size

    // Outputs of the last solve.
    int iterations = 0;
    double max_delta = 0.0;
    bool converged = false;

    // Provision all buffers for size `size`.
    void ensure(std::int64_t size);
    // No-op: every solve already starts cold. Kept for callers that still
    // reset the workspace between solves.
    void invalidate() {}
};

// Upper bound on the lanes (tiles) one solve_batched call accepts; xsbench
// times full calls of this many lanes.
inline constexpr int kMaxSolveLanes = 8;

// Chains per block of the blocked kernel. A half-sweep runs kSolveBlock
// chains side by side, one per vector lane (two AVX-512 or four AVX2
// vectors of doubles), and the voltage fields move between the two sweep
// directions as kSolveBlock×kSolveBlock tiles.
inline constexpr int kSolveBlock = 16;

// Reusable scratch for CircuitSolver::solve_batched, which solves its lanes
// one tile at a time: the buffers hold ONE tile, whose size is rounded up to
// `padded`, a whole number of blocks. Padding chains carry zero conductance
// and zero voltage, so they stay exactly zero and never touch a real node.
// Like SolveWorkspace it carries buffers, not state: every solve starts from
// the flat initial guess.
struct BatchedSolveWorkspace {
    // Node voltages V_row / V_col of the last solved tile, padded×padded in
    // column blocks: V(i, j) sits at at(i, j), so the stretch of row i that
    // one block of columns covers is contiguous. (During a solve V_col is
    // held in row blocks, the layout the row half-sweep reads.)
    std::vector<double> vr, vc;
    // Sensed per-column output currents (A), lane r's column j at r·n + j
    // (room for kMaxSolveLanes lanes).
    std::vector<double> currents;

    // Per-solve internals, laid out [block][padded position][chain] so that
    // one block's chains are contiguous and a half-sweep step is a vector
    // operation. Conductances stay float (promoted to double at use, which
    // is exact): g_row holds the row chains, built from a column-major view
    // of G, g_col the column chains, built from its row-major view. Only
    // the reciprocal pivots of each chain's factorization are stored; the
    // forward multiplier m_k = -gw · inv_d_{k-1} is recomputed at use.
    std::vector<float> g_row, g_col;
    std::vector<double> row_inv_d, col_inv_d;
    std::vector<double> rhs;  // one block's recurrences, padded×kSolveBlock

    std::int64_t n = 0;       // provisioned size
    std::int64_t padded = 0;  // n rounded up to a multiple of kSolveBlock

    // Per-lane last-solve outputs.
    int iterations[kMaxSolveLanes] = {};
    double max_delta[kMaxSolveLanes] = {};
    std::uint8_t converged[kMaxSolveLanes] = {};

    // Index of node (i, j) in vr / vc after a solve.
    std::size_t at(std::int64_t i, std::int64_t j) const {
        return static_cast<std::size_t>(
            ((j / kSolveBlock) * padded + i) * kSolveBlock + j % kSolveBlock);
    }
    // Provision all buffers for size `size`.
    void ensure(std::int64_t size);
    // No-op, as SolveWorkspace::invalidate.
    void invalidate() {}
};

struct SolveResult {
    std::vector<double> currents;  // sensed output current per column (A)
    tensor::Tensor v_row;          // row-node voltages (X×X)
    tensor::Tensor v_col;          // column-node voltages (X×X)
    int iterations = 0;            // relaxation sweeps used
    double max_delta = 0.0;        // final sweep's largest voltage update
    bool converged = false;        // tolerance reached within max_sweeps
};

class CircuitSolver {
public:
    explicit CircuitSolver(const CrossbarConfig& config);

    // Solve node voltages/currents for conductances `g` (X×X, siemens) and
    // input voltages `v_in` (X). Parasitic resistances of exactly zero are
    // treated as near-ideal (1 nΩ) conductors.
    SolveResult solve(const tensor::Tensor& g, const std::vector<double>& v_in) const;

    // Zero-allocation variant: results land in ws.vr / ws.vc / ws.currents
    // (plus ws.iterations / ws.max_delta / ws.converged). Returns the
    // converged flag.
    bool solve(const tensor::Tensor& g, const double* v_in,
               SolveWorkspace& ws) const;

    // Solve `lanes` (≤ kMaxSolveLanes) conductance fields that share the
    // same input voltages, one tile after another through the blocked
    // kernel, which vectorizes each half-sweep across the tile's own chains.
    // Every per-element expression and the order of every chain's
    // recurrence are the scalar overload's, so lane r's currents, sweep
    // count, max_delta and convergence flag are bit-identical to a scalar
    // solve of g[r]. The voltage fields hold the last lane's tile; solve
    // one lane per call to read each tile's voltages.
    void solve_batched(const tensor::Tensor* const* g, int lanes,
                       const double* v_in, BatchedSolveWorkspace& ws) const;

    // Parasitic-free dot product I_j = Σ_i G_ij · V_i.
    std::vector<double> ideal_currents(const tensor::Tensor& g,
                                       const std::vector<double>& v_in) const;
    // Allocation-free variant; `out` must hold X doubles.
    void ideal_currents(const tensor::Tensor& g, const double* v_in,
                        double* out) const;

    // Dense modified-nodal-analysis reference with partial pivoting; O((2X²)³),
    // intended for validation at small X.
    SolveResult solve_dense(const tensor::Tensor& g,
                            const std::vector<double>& v_in) const;

    const CrossbarConfig& config() const { return config_; }

    // Convergence tolerance in volts, on the max node update per sweep.
    static constexpr double kTolerance = 1e-12;

    // Sweep cap (default 20000); a solve that reaches it unconverged
    // reports converged = false.
    void set_max_sweeps(int sweeps) { max_sweeps_ = sweeps; }

private:
    CrossbarConfig config_;
    double g_driver_, g_wire_row_, g_wire_col_, g_sense_;
    int max_sweeps_ = 20000;
};

}  // namespace xs::xbar
