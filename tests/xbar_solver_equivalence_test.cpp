// Golden equivalence suite for the optimized iterative solver: the
// workspace/warm-start fast path must reproduce the dense MNA reference
// within tight tolerance on random conductance tiles, including stuck-fault
// and high-parasitic configurations, so the performance rewrite cannot
// silently change the numerics. Also pins down the `converged` reporting.
#include "tensor/ops.h"
#include "xbar/config.h"
#include "xbar/faults.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace xs::xbar {
namespace {

using tensor::Tensor;

CrossbarConfig config_of(std::int64_t size, double rd, double rwr, double rwc,
                         double rs) {
    CrossbarConfig c;
    c.size = size;
    c.parasitics.r_driver = rd;
    c.parasitics.r_wire_row = rwr;
    c.parasitics.r_wire_col = rwc;
    c.parasitics.r_sense = rs;
    return c;
}

Tensor random_g(std::int64_t n, std::uint64_t seed, const DeviceConfig& dev) {
    util::Rng rng(seed);
    Tensor g({n, n});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(rng.uniform(dev.g_min(), dev.g_max()));
    return g;
}

void expect_matches_dense(const CircuitSolver& solver, const Tensor& g,
                          const std::vector<double>& v, SolveWorkspace& ws,
                          const std::string& label) {
    const std::int64_t n = solver.config().size;
    ASSERT_TRUE(solver.solve(g, v.data(), ws)) << label << ": not converged";
    const SolveResult dense = solver.solve_dense(g, v);
    for (std::int64_t j = 0; j < n; ++j) {
        const double ref = dense.currents[static_cast<std::size_t>(j)];
        EXPECT_NEAR(ws.currents[static_cast<std::size_t>(j)], ref,
                    std::fabs(ref) * 1e-6 + 1e-15)
            << label << ": column " << j;
    }
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            EXPECT_NEAR(ws.vr[static_cast<std::size_t>(i * n + j)],
                        dense.v_row.at(i, j), 1e-6)
                << label << ": v_row(" << i << "," << j << ")";
            EXPECT_NEAR(ws.vc[static_cast<std::size_t>(i * n + j)],
                        dense.v_col.at(i, j), 1e-6)
                << label << ": v_col(" << i << "," << j << ")";
        }
}

TEST(SolverEquivalence, WorkspaceMatchesDenseAcrossSizes) {
    SolveWorkspace ws;
    for (const std::int64_t n : {2, 4, 8, 12}) {
        for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
            const CrossbarConfig c = config_of(n, 60, 2, 2, 60);
            const Tensor g = random_g(n, seed, c.device);
            util::Rng rng(seed + 99);
            std::vector<double> v(static_cast<std::size_t>(n));
            for (auto& vi : v) vi = rng.uniform(0.0, 0.3);
            const CircuitSolver solver(c);
            // The workspace is reused (and warm-started) across all cases.
            expect_matches_dense(solver, g, v, ws,
                                 "n=" + std::to_string(n) +
                                     " seed=" + std::to_string(seed));
        }
    }
}

TEST(SolverEquivalence, HighParasiticConfigs) {
    SolveWorkspace ws;
    // Strong IR drop: 10 Ω wire segments and 200 Ω terminations.
    const CrossbarConfig c = config_of(8, 200, 10, 10, 200);
    const CircuitSolver solver(c);
    for (const std::uint64_t seed : {5ull, 6ull}) {
        const Tensor g = random_g(8, seed, c.device);
        const std::vector<double> v(8, 0.25);
        expect_matches_dense(solver, g, v, ws, "high-parasitic seed=" +
                                                   std::to_string(seed));
    }
}

TEST(SolverEquivalence, StuckFaultTiles) {
    SolveWorkspace ws;
    const CrossbarConfig c = config_of(8, 60, 2, 2, 60);
    const CircuitSolver solver(c);
    FaultConfig faults;
    faults.p_stuck_min = 0.1;
    faults.p_stuck_max = 0.1;
    for (const std::uint64_t seed : {7ull, 8ull}) {
        Tensor g = random_g(8, seed, c.device);
        util::Rng frng(seed * 31);
        apply_stuck_faults(g, c.device, faults, frng);
        const std::vector<double> v(8, 0.25);
        expect_matches_dense(solver, g, v, ws,
                             "faulted seed=" + std::to_string(seed));
    }
}

TEST(SolverEquivalence, WarmStartReproducesColdResult) {
    const CrossbarConfig c = config_of(16, 60, 2, 2, 60);
    const CircuitSolver solver(c);
    const Tensor g_a = random_g(16, 41, c.device);
    const Tensor g_b = random_g(16, 42, c.device);
    const std::vector<double> v(16, 0.25);

    SolveWorkspace cold;
    ASSERT_TRUE(solver.solve(g_b, v.data(), cold));
    const std::vector<double> cold_currents = cold.currents;
    const int cold_sweeps = cold.iterations;

    // Warm path: solve a different tile first, then g_b from its voltages.
    SolveWorkspace warm;
    ASSERT_TRUE(solver.solve(g_a, v.data(), warm));
    ASSERT_TRUE(solver.solve(g_b, v.data(), warm));
    for (std::size_t j = 0; j < cold_currents.size(); ++j)
        EXPECT_NEAR(warm.currents[j], cold_currents[j],
                    std::fabs(cold_currents[j]) * 1e-8 + 1e-15);
    // Warm starting must not take more sweeps than the cold start.
    EXPECT_LE(warm.iterations, cold_sweeps);
}

TEST(SolverEquivalence, LegacySolveReportsConvergence) {
    const CrossbarConfig c = config_of(8, 60, 2, 2, 60);
    const CircuitSolver solver(c);
    const Tensor g = random_g(8, 3, c.device);
    const SolveResult sol = solver.solve(g, std::vector<double>(8, 0.25));
    EXPECT_TRUE(sol.converged);
    EXPECT_LT(sol.max_delta, solver.tolerance());
}

TEST(SolverEquivalence, ExhaustedSweepsSurfaceAsNotConverged) {
    const CrossbarConfig c = config_of(16, 60, 2, 2, 60);
    CircuitSolver solver(c);
    solver.set_max_sweeps(1);
    const Tensor g = random_g(16, 4, c.device);
    const SolveResult sol = solver.solve(g, std::vector<double>(16, 0.25));
    EXPECT_FALSE(sol.converged);
    EXPECT_EQ(sol.iterations, 1);
    EXPECT_GE(sol.max_delta, solver.tolerance());

    SolveWorkspace ws;
    EXPECT_FALSE(solver.solve(g, std::vector<double>(16, 0.25).data(), ws));
    EXPECT_FALSE(ws.converged);
}

}  // namespace
}  // namespace xs::xbar
