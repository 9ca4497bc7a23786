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
// The hot entry point is the SolveWorkspace overload (DESIGN.md §4): each
// chain's tridiagonal factorization is computed once per solve and reused
// across sweeps, all scratch lives in a caller-owned workspace so the steady
// state performs no heap allocation, and the previous converged voltages can
// warm-start the next solve.
#pragma once

#include "tensor/tensor.h"
#include "xbar/config.h"

#include <vector>

namespace xs::xbar {

// Reusable scratch for CircuitSolver::solve. Buffers grow on demand and are
// never shrunk; after the first solve of a given size, subsequent solves of
// the same size perform zero heap allocations. `vr`/`vc` double as the
// warm-start state: when `warm` is true and the size matches, the next solve
// iterates from the previous converged voltages instead of the flat initial
// guess (a large win across Monte-Carlo repeats and neighbouring tiles,
// whose conductance fields are statistically similar).
struct SolveWorkspace {
    // Node voltages, row-major X×X, double precision (float storage would
    // stall convergence). Valid after a solve; inputs when warm.
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

    std::int64_t n = 0;   // provisioned size
    bool warm = false;    // vr/vc hold a previous solution of size n

    // Outputs of the last solve.
    int iterations = 0;
    double max_delta = 0.0;
    bool converged = false;

    // Provision all buffers for size `size`; drops warm state on resize.
    void ensure(std::int64_t size);
    // Force the next solve to start from the flat initial guess.
    void invalidate() { warm = false; }
};

// Upper bound on the lanes one batched solve processes; callers chunk larger
// repeat counts into groups of this size. Eight doubles fill one AVX-512
// vector (two AVX2 vectors), so the lane loops below vectorize fully.
inline constexpr int kMaxSolveLanes = 8;

// Reusable scratch for CircuitSolver::solve_batched: `lanes` independent
// same-size systems solved together, with every buffer lane-interleaved
// (entry k of lane r lives at index k·lanes + r) so the per-lane inner loops
// are unit-stride vector operations. Warm-start state is per lane: lane r of
// the next batch iterates from lane r's previous converged voltages, giving
// each Monte-Carlo repeat the same warm chain it would have had solving
// alone.
struct BatchedSolveWorkspace {
    std::vector<double> vr, vc;    // node voltages, lane-interleaved
    std::vector<double> currents;  // per-column sensed currents, n×lanes

    // Per-solve internals (see SolveWorkspace). Unlike the scalar
    // workspace, only the reciprocal pivots are stored: the sweep kernel is
    // bandwidth-bound, and the forward multiplier m_k = -gw · inv_d_{k-1}
    // is one multiply away from data the back-substitution streams anyway —
    // recomputing it drops a whole factor array from every sweep. There is
    // also no transposed g copy: lane-major layout puts each element on its
    // own cacheline, so the column half-sweep strides through g_row.
    std::vector<double> g_row;
    std::vector<double> row_inv_d, col_inv_d;
    std::vector<double> rhs;

    std::int64_t n = 0;  // provisioned size
    int lanes = 0;       // provisioned lane count

    // Per-lane warm-start validity and last-solve outputs.
    std::uint8_t warm[kMaxSolveLanes] = {};
    int iterations[kMaxSolveLanes] = {};
    double max_delta[kMaxSolveLanes] = {};
    std::uint8_t converged[kMaxSolveLanes] = {};

    // Provision for (size × lane_count); drops all warm state on change.
    void ensure(std::int64_t size, int lane_count);
    // Force every lane of the next solve to start from the flat guess.
    void invalidate() {
        for (int r = 0; r < kMaxSolveLanes; ++r) warm[r] = 0;
    }
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
    // converged flag. Warm-starts from ws when it holds a same-size solution.
    bool solve(const tensor::Tensor& g, const double* v_in,
               SolveWorkspace& ws) const;

    // Solve `lanes` (≤ kMaxSolveLanes) independent conductance fields that
    // share the same input voltages in one pass, vectorizing the chain
    // recurrences across lanes. Each lane runs the identical sweep sequence
    // as the scalar overload and freezes at its own convergence sweep, so
    // lane r's voltages, currents, iteration count, and convergence flag are
    // bit-identical to a scalar solve of g[r] with the same warm state.
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

    // Iteration controls.
    void set_tolerance(double volts) { tolerance_ = volts; }
    void set_max_sweeps(int sweeps) { max_sweeps_ = sweeps; }
    double tolerance() const { return tolerance_; }
    int max_sweeps() const { return max_sweeps_; }

private:
    CrossbarConfig config_;
    double g_driver_, g_wire_row_, g_wire_col_, g_sense_;
    double tolerance_ = 1e-12;  // volts, on the max node update per sweep
    int max_sweeps_ = 20000;
};

}  // namespace xs::xbar
