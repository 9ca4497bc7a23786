// Pins the zero-allocation guarantee of the workspace solve pipeline: after
// a warm-up call, repeated one-lane degrade_tile_batched / solve calls with
// a reused workspace must perform no heap allocation. The global operator new/delete
// pair below counts every allocation in this test binary.
#include "xbar/degrade.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace xs::xbar
