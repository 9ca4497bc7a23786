// Pins the zero-allocation guarantee of the workspace solve pipeline: after
// a warm-up call, repeated degrade_tile_batched / solve_batched / solve calls
// with a reused workspace must perform no heap allocation, also when the
// tile size changes below the size the workspace was warmed at. The global
// operator new/delete pair below counts every allocation in this test
// binary.
#include "xbar/degrade.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

namespace {

std::atomic<long> g_alloc_count{0};

}  // namespace

// The replaced operators stay out of line: once either side is inlined
// into a caller, GCC 12 pairs a std::malloc or std::free with the other
// side's operator call and reports a mismatch (-Wmismatched-new-delete),
// depending on the optimization level and sanitizer.
__attribute__((noinline)) void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
    return ::operator new(size);
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
    std::free(p);
}

namespace xs::xbar {
namespace {

using tensor::Tensor;

Tensor random_g(std::int64_t n, std::uint64_t seed, const DeviceConfig& dev) {
    util::Rng rng(seed);
    Tensor g({n, n});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(rng.uniform(dev.g_min(), dev.g_max()));
    return g;
}

TEST(WorkspaceAllocation, SolveSteadyStateAllocatesNothing) {
    CrossbarConfig config;
    config.size = 32;
    const CircuitSolver solver(config);
    const Tensor g = random_g(32, 1, config.device);
    const std::vector<double> v(32, 0.25);

    SolveWorkspace ws;
    solver.solve(g, v.data(), ws);  // warm-up provisions all buffers

    const long before = g_alloc_count.load();
    for (int rep = 0; rep < 10; ++rep) solver.solve(g, v.data(), ws);
    EXPECT_EQ(g_alloc_count.load(), before);
}

TEST(WorkspaceAllocation, DegradeTileSteadyStateAllocatesNothing) {
    CrossbarConfig config;
    config.size = 32;
    const CircuitSolver solver(config);
    // Alternate between two tiles to mimic the pipeline's tile stream.
    const Tensor g_a = random_g(32, 2, config.device);
    const Tensor g_b = random_g(32, 3, config.device);

    const Tensor* ga[1] = {&g_a};
    const Tensor* gb[1] = {&g_b};

    DegradeWorkspace ws;
    TileDegradeResult out;
    TileDegradeResult* op[1] = {&out};
    degrade_tile_batched(ga, 1, solver, ws, op);  // warm-up

    const long before = g_alloc_count.load();
    for (int rep = 0; rep < 10; ++rep) {
        degrade_tile_batched(ga, 1, solver, ws, op);
        degrade_tile_batched(gb, 1, solver, ws, op);
    }
    EXPECT_EQ(g_alloc_count.load(), before);
    EXPECT_TRUE(out.converged);
    EXPECT_GT(out.nf, 0.0);
}

TEST(WorkspaceAllocation, SmallerTilesAfterWarmUpAllocateNothing) {
    // The NF sweep's size pattern: a worker's workspace first sees 128×128
    // tiles, then 32, 64 and 128 again. Provisioned once at the largest
    // size, the blocked kernel's buffers cover every smaller one.
    const std::int64_t sizes[] = {32, 64, 128};
    std::vector<CircuitSolver> solvers;
    std::vector<Tensor> tiles;
    std::vector<TileDegradeResult> outs(3);
    for (std::size_t s = 0; s < 3; ++s) {
        CrossbarConfig config;
        config.size = sizes[s];
        solvers.emplace_back(config);
        tiles.push_back(random_g(sizes[s], 10 + s, config.device));
        outs[s].g_eff = Tensor({sizes[s], sizes[s]});  // output storage only
    }
    const std::vector<double> v(128, 0.25);

    BatchedSolveWorkspace bws;
    DegradeWorkspace dws;
    const Tensor* g128[1] = {&tiles[2]};
    TileDegradeResult* o128[1] = {&outs[2]};
    solvers[2].solve_batched(g128, 1, v.data(), bws);  // warm-up at 128
    degrade_tile_batched(g128, 1, solvers[2], dws, o128);

    const long before = g_alloc_count.load();
    for (std::size_t s = 0; s < 3; ++s) {
        const Tensor* gp[1] = {&tiles[s]};
        TileDegradeResult* op[1] = {&outs[s]};
        solvers[s].solve_batched(gp, 1, v.data(), bws);
        degrade_tile_batched(gp, 1, solvers[s], dws, op);
    }
    EXPECT_EQ(g_alloc_count.load(), before);
    for (const TileDegradeResult& out : outs) EXPECT_TRUE(out.converged);
}

}  // namespace
}  // namespace xs::xbar
