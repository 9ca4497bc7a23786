// Process-wide telemetry: registered counters and log2-bucket latency
// histograms, sharded per thread and merged on snapshot.
//
// Design goals (DESIGN.md §10):
//  - Zero allocation in steady state: handles are registered once (function
//    local statics behind the XS_COUNT / XS_TIMER_NS macros), each thread
//    lazily allocates one fixed-size shard of relaxed atomics on first use,
//    and after that every add()/record() is a single fetch_add.
//  - Deterministic merges: snapshot() sums live shards plus the totals
//    retired by exited threads, so joined-thread writes are always visible
//    and totals are independent of thread count.
//  - Wire friendly: snapshots serialize to a small stable JSON schema that
//    sweep workers ship to the supervisor in a kMetrics frame and that
//    from_json() parses back for merging across processes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xs::util::metrics {

// Histograms use log2 buckets: bucket 0 counts zero values, bucket i >= 1
// counts values in [2^(i-1), 2^i). 64 buckets cover the full uint64 range,
// which at nanosecond resolution spans sub-ns to centuries.
inline constexpr int kHistogramBuckets = 64;

namespace detail {
std::size_t register_counter(const std::string& name);
std::size_t register_histogram(const std::string& name);
void bump(std::size_t slot, std::uint64_t n) noexcept;
void record_value(std::size_t base, std::uint64_t value) noexcept;
std::uint64_t now_ns() noexcept;
}  // namespace detail

// Lightweight value handles; copyable, trivially destructible, safe to keep
// in function-local statics. add()/record() touch only the calling thread's
// shard.
class Counter {
public:
    void add(std::uint64_t n = 1) const noexcept { detail::bump(slot_, n); }

private:
    friend Counter counter(const std::string&);
    explicit Counter(std::size_t slot) : slot_(slot) {}
    std::size_t slot_;
};

class Histogram {
public:
    void record(std::uint64_t value) const noexcept {
        detail::record_value(base_, value);
    }

private:
    friend Histogram histogram(const std::string&);
    explicit Histogram(std::size_t base) : base_(base) {}
    std::size_t base_;
};

// Find-or-register by name (same name always maps to the same slots).
// Registration takes a mutex and may allocate; steady-state add/record do
// not. Throws std::runtime_error if the fixed slot capacity is exhausted.
Counter counter(const std::string& name);
Histogram histogram(const std::string& name);

// Scoped nanosecond timer recording into a histogram on destruction.
class ScopedTimerNs {
public:
    explicit ScopedTimerNs(Histogram h) : h_(h), t0_(detail::now_ns()) {}
    ~ScopedTimerNs() { h_.record(detail::now_ns() - t0_); }
    ScopedTimerNs(const ScopedTimerNs&) = delete;
    ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

private:
    Histogram h_;
    std::uint64_t t0_;
};

// Merged point-in-time view of every registered metric.
struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    // Trimmed to the last non-zero bucket (may be empty / shorter than
    // kHistogramBuckets).
    std::vector<std::uint64_t> buckets;

    bool operator==(const HistogramSnapshot& o) const {
        return count == o.count && sum == o.sum && buckets == o.buckets;
    }
};

struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;

    bool empty() const { return counters.empty() && histograms.empty(); }
    bool operator==(const Snapshot& o) const {
        return counters == o.counters && histograms == o.histograms;
    }
};

Snapshot snapshot();
void merge(Snapshot& into, const Snapshot& from);

// Stable schema:
//   {"counters":{"name":123,...},
//    "histograms":{"name":{"count":2,"sum":30,"buckets":[0,1,1]},...}}
// from_json() accepts exactly what to_json() emits (plus insignificant
// whitespace) and returns false on malformed input without touching `out`.
std::string to_json(const Snapshot& snap);
bool from_json(const std::string& json, Snapshot& out);

// Testing hook: zero every live shard and the retired totals. Registered
// names (and handed-out handles) stay valid.
void reset();

}  // namespace xs::util::metrics

#define XS_METRICS_CAT2(a, b) a##b
#define XS_METRICS_CAT(a, b) XS_METRICS_CAT2(a, b)

// Bump a named counter by n. Registration happens once per call site.
#define XS_COUNT(name, n)                                              \
    do {                                                               \
        static const ::xs::util::metrics::Counter xs_count_handle =   \
            ::xs::util::metrics::counter(name);                        \
        xs_count_handle.add(n);                                        \
    } while (0)
// Time the enclosing scope into a named nanosecond histogram.
#define XS_TIMER_NS(name)                                                     \
    static const ::xs::util::metrics::Histogram XS_METRICS_CAT(               \
        xs_timer_hist_, __LINE__) = ::xs::util::metrics::histogram(name);     \
    ::xs::util::metrics::ScopedTimerNs XS_METRICS_CAT(xs_timer_, __LINE__)(   \
        XS_METRICS_CAT(xs_timer_hist_, __LINE__))
