#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <sched.h>

namespace xs::util {
namespace {

// The CPUs of this process's affinity mask, read here rather than through
// the pool's own affinity_cpus().
std::vector<int> mask_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    EXPECT_EQ(::sched_getaffinity(0, sizeof set, &set), 0);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    return cpus;
}

TEST(Parallel, CoversRangeExactlyOnce) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
    std::atomic<int> count{0};
    parallel_for(5, 5, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 0);
}

TEST(Parallel, SingleElement) {
    std::atomic<int> count{0};
    parallel_for(3, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 3u);
        count++;
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(Parallel, ChunksPartitionRange) {
    std::vector<std::atomic<int>> hits(777);
    parallel_for_chunks(0, 777, [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, NestedCallsRunInline) {
    std::atomic<int> total{0};
    parallel_for(0, 4, [&](std::size_t) {
        // A nested dispatch must not deadlock; it runs inline.
        parallel_for(0, 10, [&](std::size_t) { total++; });
    });
    EXPECT_EQ(total.load(), 40);
}

TEST(Parallel, RepeatedDispatches) {
    for (int round = 0; round < 50; ++round) {
        std::atomic<long> sum{0};
        parallel_for(0, 100, [&](std::size_t i) {
            sum += static_cast<long>(i);
        });
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(Parallel, WorkerCountPositive) {
    EXPECT_GE(worker_count(), 1u);
}

TEST(Parallel, WorkerCountIsTheAffinityMask) {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(::sched_getaffinity(0, sizeof set, &set), 0);
    EXPECT_EQ(worker_count(), static_cast<std::size_t>(CPU_COUNT(&set)));
    EXPECT_EQ(affinity_cpus(), mask_cpus());
}

// One worker per CPU, pinned there: every part of a worker_count()-part
// dispatch runs on its own CPU of the mask, in every round. Unpinned
// workers woken from the dispatching CPU can stack on one CPU instead.
TEST(Parallel, PartsRunOnDistinctCpusOfTheMask) {
    const std::vector<int> cpus = mask_cpus();
    const std::size_t n = worker_count();
    if (n < 2) GTEST_SKIP() << "one CPU in the affinity mask";
    for (int round = 0; round < 20; ++round) {
        std::vector<int> cpu_of(n, -1);
        parallel_for_workers(0, n, [&](std::size_t part, std::size_t,
                                       std::size_t) {
            const auto until =
                std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
            while (std::chrono::steady_clock::now() < until) {
            }
            cpu_of[part] = ::sched_getcpu();
        });
        for (const int cpu : cpu_of)
            EXPECT_TRUE(std::count(cpus.begin(), cpus.end(), cpu) == 1)
                << "part ran on CPU " << cpu << ", outside the mask";
        EXPECT_EQ(std::set<int>(cpu_of.begin(), cpu_of.end()).size(), n)
            << "round " << round << ": parts shared a CPU";
    }
}

TEST(Parallel, WorkersPartitionRangeWithValidSlots) {
    std::vector<std::atomic<int>> hits(512);
    std::atomic<int> bad_slots{0};
    parallel_for_workers(0, 512, [&](std::size_t worker, std::size_t lo,
                                     std::size_t hi) {
        if (worker >= worker_count()) bad_slots++;
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
    });
    EXPECT_EQ(bad_slots.load(), 0);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerSlotsAreNeverUsedConcurrently) {
    // Per-slot "in use" flags: a second concurrent entry on the same slot
    // would trip the exchange check.
    std::vector<std::atomic<int>> in_use(worker_count());
    std::atomic<int> collisions{0};
    for (int round = 0; round < 20; ++round) {
        parallel_for_workers(0, 64, [&](std::size_t worker, std::size_t lo,
                                        std::size_t hi) {
            if (in_use[worker].exchange(1) != 0) collisions++;
            volatile std::size_t sink = 0;
            for (std::size_t i = lo; i < hi; ++i) sink += i;
            in_use[worker].store(0);
        });
    }
    EXPECT_EQ(collisions.load(), 0);
}

TEST(Parallel, ConcurrentTopLevelDispatchesAreSerialized) {
    // Two application threads dispatching at once must not corrupt the
    // pool's single task slot (dispatches are serialized internally).
    std::vector<std::atomic<int>> hits(2000);
    std::thread t1([&] {
        for (int r = 0; r < 20; ++r)
            parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
    });
    std::thread t2([&] {
        for (int r = 0; r < 20; ++r)
            parallel_for(1000, 2000, [&](std::size_t i) { hits[i]++; });
    });
    t1.join();
    t2.join();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 20);
}

TEST(Parallel, LargeRangeSum) {
    const std::size_t n = 100000;
    std::vector<long> partial(n);
    parallel_for(0, n, [&](std::size_t i) { partial[i] = static_cast<long>(i); });
    const long sum = std::accumulate(partial.begin(), partial.end(), 0L);
    EXPECT_EQ(sum, static_cast<long>(n * (n - 1) / 2));
}

}  // namespace
}  // namespace xs::util
