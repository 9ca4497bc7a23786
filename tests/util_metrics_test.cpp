// Telemetry registry (util/metrics.h, DESIGN.md §10): log2 bucketing, merge
// determinism at any thread count, JSON round-trips, and the zero-allocation
// steady-state guarantee of the *instrumented* circuit and fast crossbar
// pipelines — the global operator new/delete pair below counts every heap
// allocation in this test binary.
#include "util/metrics.h"
#include "util/trace.h"
#include "xbar/backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
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

namespace xs::util::metrics {
namespace {

TEST(Metrics, CounterAccumulatesAndSnapshotSees) {
    reset();
    const Counter c = counter("test.basic.ctr");
    c.add();
    c.add(41);
    const Snapshot snap = snapshot();
    EXPECT_EQ(snap.counters.at("test.basic.ctr"), 42u);
}

TEST(Metrics, SameNameSameSlot) {
    reset();
    const Counter a = counter("test.alias.ctr");
    const Counter b = counter("test.alias.ctr");
    a.add(1);
    b.add(2);
    EXPECT_EQ(snapshot().counters.at("test.alias.ctr"), 3u);
}

TEST(Metrics, KindConflictThrows) {
    counter("test.kind.ctr");
    EXPECT_THROW(histogram("test.kind.ctr"), std::runtime_error);
}

TEST(Metrics, HistogramLog2Buckets) {
    reset();
    const Histogram h = histogram("test.bucket.hist.ns");
    h.record(0);     // bucket 0
    h.record(1);     // [1,2) -> bucket 1
    h.record(2);     // [2,4) -> bucket 2
    h.record(3);     // [2,4) -> bucket 2
    h.record(1000);  // [512,1024) -> bucket 10
    const HistogramSnapshot hs =
        snapshot().histograms.at("test.bucket.hist.ns");
    EXPECT_EQ(hs.count, 5u);
    EXPECT_EQ(hs.sum, 1006u);
    // Trimmed to the last nonzero bucket (index 10).
    const std::vector<std::uint64_t> expect = {1, 1, 2, 0, 0, 0,
                                               0, 0, 0, 0, 1};
    EXPECT_EQ(hs.buckets, expect);
}

TEST(Metrics, HistogramExtremeValuesClampToLastBucket) {
    reset();
    const Histogram h = histogram("test.clamp.hist.ns");
    h.record(~std::uint64_t{0});  // bit width 64 clamps to bucket 63
    const HistogramSnapshot hs = snapshot().histograms.at("test.clamp.hist.ns");
    EXPECT_EQ(hs.count, 1u);
    ASSERT_EQ(hs.buckets.size(), 64u);
    EXPECT_EQ(hs.buckets.back(), 1u);
}

// The same logical workload, partitioned over 1, 4, and 7 threads, must
// produce bit-identical snapshots: shard merge order cannot matter.
TEST(Metrics, MergeDeterministicAcrossThreadCounts) {
    constexpr int kItems = 1000;
    const auto run_partitioned = [](int nthreads) {
        reset();
        const Counter c = counter("test.merge.ctr");
        const Histogram h = histogram("test.merge.hist.ns");
        std::vector<std::thread> threads;
        for (int t = 0; t < nthreads; ++t)
            threads.emplace_back([&, t] {
                for (int i = t; i < kItems; i += nthreads) {
                    c.add(static_cast<std::uint64_t>(i));
                    h.record(static_cast<std::uint64_t>((i * 37) % 4096));
                }
            });
        for (std::thread& t : threads) t.join();
        return snapshot();  // exited threads' shards are retired but counted
    };

    const Snapshot one = run_partitioned(1);
    const Snapshot four = run_partitioned(4);
    const Snapshot seven = run_partitioned(7);
    EXPECT_EQ(one.counters.at("test.merge.ctr"),
              static_cast<std::uint64_t>(kItems * (kItems - 1) / 2));
    EXPECT_TRUE(one == four);
    EXPECT_TRUE(one == seven);
}

TEST(Metrics, MergeAddsCountersAndBucketwiseHistograms) {
    Snapshot a;
    a.counters["x"] = 2;
    a.histograms["h"] = {3, 30, {1, 1, 1}};
    Snapshot b;
    b.counters["x"] = 5;
    b.counters["y"] = 1;
    b.histograms["h"] = {2, 1024, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}};
    merge(a, b);
    EXPECT_EQ(a.counters.at("x"), 7u);
    EXPECT_EQ(a.counters.at("y"), 1u);
    EXPECT_EQ(a.histograms.at("h").count, 5u);
    EXPECT_EQ(a.histograms.at("h").sum, 1054u);
    const std::vector<std::uint64_t> expect = {1, 1, 1, 0, 0, 0,
                                               0, 0, 0, 0, 0, 2};
    EXPECT_EQ(a.histograms.at("h").buckets, expect);
}

TEST(Metrics, JsonRoundTrip) {
    reset();
    counter("test.json.ctr");  // zero-valued metrics survive the trip too
    const Histogram h = histogram("test.json.hist.ns");
    const Counter c = counter("test.json.ctr2");
    c.add(123456789);
    h.record(0);
    h.record(77);
    const Snapshot before = snapshot();
    const std::string json = to_json(before);
    Snapshot after;
    ASSERT_TRUE(from_json(json, after));
    EXPECT_TRUE(before == after);
    EXPECT_EQ(json, to_json(after));  // canonical both ways
}

TEST(Metrics, FromJsonRejectsMalformedAndLeavesOutputUntouched) {
    const std::string good = to_json(Snapshot{});
    Snapshot out;
    out.counters["sentinel"] = 9;
    EXPECT_FALSE(from_json("", out));
    EXPECT_FALSE(from_json("{", out));
    EXPECT_FALSE(from_json("[]", out));
    EXPECT_FALSE(from_json("{\"counters\":{}}", out));  // histograms missing
    EXPECT_FALSE(from_json(good + "x", out));           // trailing garbage
    // A truncated frame — exactly what a torn wire payload looks like.
    const std::string full = to_json([] {
        Snapshot s;
        s.counters["a"] = 1;
        s.histograms["h"] = {1, 2, {0, 1}};
        return s;
    }());
    for (std::size_t cut = 1; cut < full.size(); ++cut)
        EXPECT_FALSE(from_json(full.substr(0, cut), out)) << "cut=" << cut;
    EXPECT_EQ(out.counters.at("sentinel"), 9u);
    EXPECT_TRUE(from_json(full, out));
    EXPECT_EQ(out.counters.at("a"), 1u);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandles) {
    const Counter c = counter("test.reset.ctr");
    c.add(5);
    reset();
    EXPECT_EQ(snapshot().counters.at("test.reset.ctr"), 0u);
    c.add(2);  // handle registered before reset still lands
    EXPECT_EQ(snapshot().counters.at("test.reset.ctr"), 2u);
}

// The instrumented hot paths (XS_COUNT / XS_TIMER_NS inside the circuit
// solve and the fast backend's calibration-fold) must stay allocation-free
// in steady state, with telemetry compiled in and a disarmed trace Span on
// the path. Warm-up registers the call sites' handles, this thread's shard,
// and the fast backend's calibration bucket; after that, nothing.
TEST(Metrics, InstrumentedBackendsSteadyStateAllocateNothing) {
    xbar::CrossbarConfig config;
    config.size = 32;
    tensor::Tensor g({32, 32});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(
            config.device.g_min() +
            (config.device.g_max() - config.device.g_min()) *
                static_cast<double>(i % 97) / 96.0);

    const xbar::CircuitBackend circuit(config);
    const xbar::FastBackend fast(config);
    xbar::DegradeWorkspace ws_circuit, ws_fast;
    xbar::TileDegradeResult out;
    circuit.degrade(g, ws_circuit, out);  // warm-up provisions everything
    fast.degrade(g, ws_fast, out);

    const long before = g_alloc_count.load();
    for (int rep = 0; rep < 10; ++rep) {
        circuit.degrade(g, ws_circuit, out);
        fast.degrade(g, ws_fast, out);
    }
    EXPECT_EQ(g_alloc_count.load(), before);

    // And the raw primitives themselves.
    const Counter c = counter("test.alloc.ctr");
    const Histogram h = histogram("test.alloc.hist.ns");
    c.add(1);
    h.record(1);
    const long before_prim = g_alloc_count.load();
    for (int i = 0; i < 1000; ++i) {
        c.add(1);
        h.record(static_cast<std::uint64_t>(i));
        XS_TRACE_SPAN("disarmed");  // one relaxed load, no buffer touch
    }
    EXPECT_EQ(g_alloc_count.load(), before_prim);
}

}  // namespace
}  // namespace xs::util::metrics
