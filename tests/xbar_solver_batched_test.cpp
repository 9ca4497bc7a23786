// Bit-identity of the batched solver/degrade path against the scalar solve.
// The blocked kernel runs each half-sweep across a tile's own chains, 16 to
// a block, but every chain's arithmetic mirrors the scalar solve expression
// for expression; these tests pin that every lane's voltages, currents,
// sweep counts, max_delta and NF are byte-identical to solving each tile
// alone in a fresh scalar workspace, at sizes that fill whole blocks and at
// sizes that leave a partial last block.
#include "util/rng.h"
#include "xbar/config.h"
#include "xbar/degrade.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
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

// Compare doubles as bits: the contract is bit-identity, not closeness.
void expect_bits_eq(double a, double b, const char* what, int lane) {
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ba, bb) << what << " mismatch in lane " << lane << ": " << a
                      << " vs " << b;
}

// Scale every parasitic resistance of `c` by `k`.
CrossbarConfig scaled(CrossbarConfig c, double k) {
    c.parasitics.r_driver *= k;
    c.parasitics.r_wire_row *= k;
    c.parasitics.r_wire_col *= k;
    c.parasitics.r_sense *= k;
    return c;
}

// The blocked fields of the last solved tile, unpacked row-major.
std::vector<double> unpack(const std::vector<double>& field,
                           const BatchedSolveWorkspace& ws) {
    std::vector<double> out;
    for (std::int64_t i = 0; i < ws.n; ++i)
        for (std::int64_t j = 0; j < ws.n; ++j)
            out.push_back(field[ws.at(i, j)]);
    return out;
}

bool same_bytes(const double* a, const double* b, std::size_t count) {
    return std::memcmp(a, b, count * sizeof(double)) == 0;
}

// Lane `lane` of a batched solve against a scalar solve of the same tile:
// sweep count, convergence, max_delta and currents, plus both voltage
// fields when the lane was the last one solved.
void expect_lane_eq(const BatchedSolveWorkspace& b, int lane,
                    const SolveWorkspace& s, bool voltages) {
    const auto n = static_cast<std::size_t>(b.n);
    ASSERT_EQ(b.iterations[lane], s.iterations) << "lane " << lane;
    EXPECT_EQ(b.converged[lane] != 0, s.converged) << "lane " << lane;
    EXPECT_TRUE(same_bytes(&b.max_delta[lane], &s.max_delta, 1))
        << "max_delta lane " << lane << ": " << b.max_delta[lane] << " vs "
        << s.max_delta;
    EXPECT_TRUE(same_bytes(b.currents.data() + lane * n, s.currents.data(), n))
        << "currents lane " << lane;
    if (!voltages) return;
    EXPECT_TRUE(same_bytes(unpack(b.vr, b).data(), s.vr.data(), n * n))
        << "vr lane " << lane;
    EXPECT_TRUE(same_bytes(unpack(b.vc, b).data(), s.vc.data(), n * n))
        << "vc lane " << lane;
}

// Scalar reference for one lane of degrade_tile_batched: a scalar solve in
// a fresh workspace at the all-v_nom input, then the voltage-division fold
// and the NF, with the kernel's arithmetic.
TileDegradeResult reference_degrade(const Tensor& g,
                                    const CircuitSolver& solver) {
    const std::int64_t n = solver.config().size;
    const double v_nom = solver.config().parasitics.v_nom;
    const std::vector<double> v(static_cast<std::size_t>(n), v_nom);
    SolveWorkspace ws;
    solver.solve(g, v.data(), ws);

    TileDegradeResult out;
    out.converged = ws.converged;
    out.sweeps = ws.iterations;
    out.g_eff = Tensor({n, n});
    const double inv_v = 1.0 / v_nom;
    for (std::int64_t k = 0; k < n * n; ++k) {
        const auto i = static_cast<std::size_t>(k);
        const double alpha = (ws.vr[i] - ws.vc[i]) * inv_v;
        out.g_eff[k] = static_cast<float>(std::max(0.0, alpha) *
                                          static_cast<double>(g.data()[k]));
    }
    const std::vector<double> ideal = solver.ideal_currents(g, v);
    double nf_sum = 0.0;
    std::int64_t nf_count = 0;
    for (std::size_t j = 0; j < ideal.size(); ++j) {
        if (ideal[j] <= 0.0) continue;
        nf_sum += (ideal[j] - ws.currents[j]) / ideal[j];
        ++nf_count;
    }
    out.nf = nf_count ? nf_sum / static_cast<double>(nf_count) : 0.0;
    return out;
}

void expect_degrade_eq(const TileDegradeResult& b, const TileDegradeResult& e,
                       int lane) {
    ASSERT_EQ(b.sweeps, e.sweeps) << "lane " << lane;
    EXPECT_EQ(b.converged, e.converged) << "lane " << lane;
    expect_bits_eq(b.nf, e.nf, "nf", lane);
    ASSERT_EQ(b.g_eff.numel(), e.g_eff.numel());
    for (std::int64_t k = 0; k < b.g_eff.numel(); ++k)
        EXPECT_EQ(b.g_eff[k], e.g_eff[k]) << "g_eff[" << k << "] lane " << lane;
}

TEST(BatchedSolver, ColdSolveMatchesScalarBitExact) {
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);

    for (int lanes = 1; lanes <= kMaxSolveLanes; ++lanes) {
        std::vector<Tensor> gs;
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(16, 100 + static_cast<std::uint64_t>(r), c.device));
        for (auto& g : gs) gp.push_back(&g);

        BatchedSolveWorkspace bws;
        solver.solve_batched(gp.data(), lanes, v.data(), bws);

        for (int r = 0; r < lanes; ++r) {
            SolveWorkspace sws;
            solver.solve(gs[static_cast<std::size_t>(r)], v.data(), sws);
            expect_lane_eq(bws, r, sws, r == lanes - 1);
        }
    }
}

TEST(BatchedSolver, PartialBlocksMatchScalarBitExact) {
    // Sizes below, at and between whole 16-chain blocks, at 4× the default
    // parasitics (stronger coupling, more sweeps). One lane compares both
    // voltage fields of every tile; eight lanes compare every lane's
    // currents and sweep statistics, and, through the degrade path, every
    // lane's G′, which reads both fields at every node.
    for (const std::int64_t n : {1, 2, 3, 17, 33, 32, 64, 128}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        CrossbarConfig c = scaled(CrossbarConfig{}, 4.0);
        c.size = n;
        const CircuitSolver solver(c);
        const std::vector<double> v(static_cast<std::size_t>(n),
                                    c.parasitics.v_nom);
        std::vector<Tensor> gs;
        std::vector<const Tensor*> gp;
        for (int r = 0; r < kMaxSolveLanes; ++r)
            gs.push_back(random_g(
                n, 300 + static_cast<std::uint64_t>(n * 10 + r), c.device));
        for (auto& g : gs) gp.push_back(&g);

        std::vector<SolveWorkspace> ref(gs.size());
        for (std::size_t r = 0; r < gs.size(); ++r) {
            solver.solve(gs[r], v.data(), ref[r]);
            ASSERT_TRUE(ref[r].converged);
        }

        BatchedSolveWorkspace one;
        for (int r = 0; r < kMaxSolveLanes; ++r) {
            solver.solve_batched(gp.data() + r, 1, v.data(), one);
            expect_lane_eq(one, 0, ref[static_cast<std::size_t>(r)], true);
        }

        BatchedSolveWorkspace eight;
        solver.solve_batched(gp.data(), kMaxSolveLanes, v.data(), eight);
        for (int r = 0; r < kMaxSolveLanes; ++r)
            expect_lane_eq(eight, r, ref[static_cast<std::size_t>(r)],
                           r == kMaxSolveLanes - 1);

        DegradeWorkspace ws;
        std::vector<TileDegradeResult> out(gs.size());
        std::vector<TileDegradeResult*> op;
        for (auto& o : out) op.push_back(&o);
        degrade_tile_batched(gp.data(), kMaxSolveLanes, solver, ws, op.data());
        for (int r = 0; r < kMaxSolveLanes; ++r) {
            const TileDegradeResult e =
                reference_degrade(gs[static_cast<std::size_t>(r)], solver);
            const TileDegradeResult& o = out[static_cast<std::size_t>(r)];
            ASSERT_EQ(o.sweeps, e.sweeps) << "lane " << r;
            expect_bits_eq(o.nf, e.nf, "nf", r);
            const auto bytes = static_cast<std::size_t>(n * n) * sizeof(float);
            EXPECT_EQ(std::memcmp(o.g_eff.data(), e.g_eff.data(), bytes), 0)
                << "g_eff lane " << r;
        }
    }
}

TEST(BatchedSolver, UnconvergedPartialBlockMatchesScalar) {
    // A two-sweep budget at n = 17 (one whole block plus a one-chain
    // block): the solve stops unconverged, and every output, max_delta
    // included, must still match the scalar solve bit for bit.
    CrossbarConfig c = scaled(CrossbarConfig{}, 4.0);
    c.size = 17;
    CircuitSolver solver(c);
    solver.set_max_sweeps(2);
    const std::vector<double> v(17, c.parasitics.v_nom);
    const Tensor g = random_g(17, 77, c.device);
    const Tensor* gp[1] = {&g};

    SolveWorkspace sws;
    EXPECT_FALSE(solver.solve(g, v.data(), sws));
    BatchedSolveWorkspace bws;
    solver.solve_batched(gp, 1, v.data(), bws);
    EXPECT_EQ(bws.converged[0], 0);
    EXPECT_EQ(bws.iterations[0], 2);
    expect_lane_eq(bws, 0, sws, true);
}

TEST(BatchedSolver, ReusedWorkspaceMatchesFreshScalarSolves) {
    // One 5-lane workspace is reused over a sequence of tiles; every step
    // must match scalar solves in fresh workspaces, even though the lanes
    // converge at different sweeps. A workspace carries buffers, not state.
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);
    const int lanes = 5;
    const int steps = 4;

    BatchedSolveWorkspace bws;
    for (int s = 0; s < steps; ++s) {
        std::vector<Tensor> gs;
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(
                16, 1000 + static_cast<std::uint64_t>(r * steps + s), c.device));
        for (auto& g : gs) gp.push_back(&g);
        solver.solve_batched(gp.data(), lanes, v.data(), bws);
        for (int r = 0; r < lanes; ++r) {
            SCOPED_TRACE("step " + std::to_string(s));
            SolveWorkspace sws;
            solver.solve(*gp[static_cast<std::size_t>(r)], v.data(), sws);
            expect_lane_eq(bws, r, sws, r == lanes - 1);
        }
    }
}

TEST(BatchedSolver, LanesConvergeIndependently) {
    // A lane with a much harder field (heavier parasitics make coupling
    // stronger) must not perturb an easier lane's result.
    const CrossbarConfig c = config_of(16, 500, 8, 8, 500);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);

    Tensor easy({16, 16}, static_cast<float>(c.device.g_min()));
    Tensor hard = random_g(16, 7, c.device);
    for (std::int64_t i = 0; i < hard.numel(); ++i)
        hard[i] = static_cast<float>(c.device.g_max() * 2.0);

    const Tensor* gp[2] = {&easy, &hard};
    BatchedSolveWorkspace bws;
    solver.solve_batched(gp, 2, v.data(), bws);

    SolveWorkspace se, sh;
    solver.solve(easy, v.data(), se);
    solver.solve(hard, v.data(), sh);
    EXPECT_NE(se.iterations, sh.iterations);  // genuinely different lanes
    expect_lane_eq(bws, 0, se, false);
    expect_lane_eq(bws, 1, sh, true);
}

TEST(BatchedDegrade, MatchesScalarReferencePerLane) {
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const int lanes = 3;
    const int steps = 3;

    DegradeWorkspace ws;
    std::vector<TileDegradeResult> bout(static_cast<std::size_t>(lanes));
    for (int s = 0; s < steps; ++s) {
        std::vector<Tensor> gs;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(
                16, 5000 + static_cast<std::uint64_t>(s * lanes + r), c.device));
        std::vector<const Tensor*> gp;
        std::vector<TileDegradeResult*> op;
        for (int r = 0; r < lanes; ++r) {
            gp.push_back(&gs[static_cast<std::size_t>(r)]);
            op.push_back(&bout[static_cast<std::size_t>(r)]);
        }
        degrade_tile_batched(gp.data(), lanes, solver, ws, op.data());
        for (int r = 0; r < lanes; ++r) {
            SCOPED_TRACE("step " + std::to_string(s));
            expect_degrade_eq(bout[static_cast<std::size_t>(r)],
                              reference_degrade(gs[static_cast<std::size_t>(r)],
                                                solver),
                              r);
        }
    }
}

TEST(BatchedDegrade, UnconvergedSolveMatchesScalar) {
    // A tiny sweep budget forces unconverged solves: the failure must
    // surface, and the unconverged result must still match the scalar
    // reference bit for bit.
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    CircuitSolver solver(c);
    solver.set_max_sweeps(2);

    DegradeWorkspace ws;
    TileDegradeResult bout;
    TileDegradeResult* op[1] = {&bout};
    for (int s = 0; s < 3; ++s) {
        const Tensor g = random_g(16, 42 + static_cast<std::uint64_t>(s), c.device);
        const Tensor* gp[1] = {&g};
        degrade_tile_batched(gp, 1, solver, ws, op);
        EXPECT_FALSE(bout.converged);
        SCOPED_TRACE("step " + std::to_string(s));
        expect_degrade_eq(bout, reference_degrade(g, solver), 0);
    }
}

}  // namespace
}  // namespace xs::xbar
