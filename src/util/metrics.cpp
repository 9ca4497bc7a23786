#include "util/metrics.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace xs::util::metrics {
namespace {

// Fixed shard capacity: a counter takes 1 slot, a histogram 66 (64 buckets
// + count + sum). 4096 slots = 32 KiB per thread, room for ~60 histograms
// plus hundreds of counters — far beyond what the codebase registers.
constexpr std::size_t kMaxSlots = 4096;

struct Shard {
    std::atomic<std::uint64_t> slots[kMaxSlots];
    Shard() {
        for (std::size_t i = 0; i < kMaxSlots; ++i)
            slots[i].store(0, std::memory_order_relaxed);
    }
};

struct Definition {
    bool is_histogram = false;
    std::size_t base = 0;
};

struct Registry {
    std::mutex mutex;
    std::map<std::string, Definition> defs;
    std::size_t next_slot = 0;
    std::vector<Shard*> live;
    std::uint64_t retired[kMaxSlots] = {};
};

// Leaked on purpose: threads may still be bumping shards during static
// destruction, and snapshot order vs. TLS destructor order is otherwise
// unsequenced.
Registry& registry() {
    static Registry* r = new Registry();
    return *r;
}

std::size_t register_slots(const std::string& name, bool is_histogram,
                           std::size_t width) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.defs.find(name);
    if (it != r.defs.end()) {
        if (it->second.is_histogram != is_histogram)
            throw std::runtime_error("metric '" + name +
                                     "' registered as both counter and "
                                     "histogram");
        return it->second.base;
    }
    if (r.next_slot + width > kMaxSlots)
        throw std::runtime_error(
            "metrics registry slot capacity exhausted registering '" + name +
            "'");
    Definition def;
    def.is_histogram = is_histogram;
    def.base = r.next_slot;
    r.next_slot += width;
    r.defs.emplace(name, def);
    return def.base;
}

// Per-thread shard, retired (merged into Registry::retired) at thread exit
// so totals survive short-lived worker threads.
struct ShardOwner {
    Shard* shard = nullptr;
    ~ShardOwner() {
        if (!shard) return;
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        for (std::size_t i = 0; i < kMaxSlots; ++i)
            r.retired[i] +=
                shard->slots[i].load(std::memory_order_relaxed);
        for (auto it = r.live.begin(); it != r.live.end(); ++it) {
            if (*it == shard) {
                r.live.erase(it);
                break;
            }
        }
        delete shard;
        shard = nullptr;
    }
};

thread_local ShardOwner t_shard_owner;

Shard& my_shard() {
    if (!t_shard_owner.shard) {
        Shard* s = new Shard();
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.live.push_back(s);
        t_shard_owner.shard = s;
    }
    return *t_shard_owner.shard;
}

int bucket_index(std::uint64_t value) {
    if (value == 0) return 0;
    int width = 64 - __builtin_clzll(value);
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

}  // namespace

namespace detail {

std::size_t register_counter(const std::string& name) {
    return register_slots(name, /*is_histogram=*/false, 1);
}

std::size_t register_histogram(const std::string& name) {
    return register_slots(name, /*is_histogram=*/true, kHistogramBuckets + 2);
}

void bump(std::size_t slot, std::uint64_t n) noexcept {
    my_shard().slots[slot].fetch_add(n, std::memory_order_relaxed);
}

void record_value(std::size_t base, std::uint64_t value) noexcept {
    Shard& s = my_shard();
    s.slots[base + bucket_index(value)].fetch_add(1,
                                                  std::memory_order_relaxed);
    s.slots[base + kHistogramBuckets].fetch_add(1, std::memory_order_relaxed);
    s.slots[base + kHistogramBuckets + 1].fetch_add(
        value, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace detail

Counter counter(const std::string& name) {
    return Counter(detail::register_counter(name));
}

Histogram histogram(const std::string& name) {
    return Histogram(detail::register_histogram(name));
}

Snapshot snapshot() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::uint64_t totals[kMaxSlots];
    std::memcpy(totals, r.retired, sizeof(totals));
    for (const Shard* s : r.live)
        for (std::size_t i = 0; i < r.next_slot; ++i)
            totals[i] += s->slots[i].load(std::memory_order_relaxed);
    Snapshot snap;
    for (const auto& [name, def] : r.defs) {
        if (!def.is_histogram) {
            snap.counters[name] = totals[def.base];
            continue;
        }
        HistogramSnapshot h;
        h.count = totals[def.base + kHistogramBuckets];
        h.sum = totals[def.base + kHistogramBuckets + 1];
        int last = -1;
        for (int i = 0; i < kHistogramBuckets; ++i)
            if (totals[def.base + i] != 0) last = i;
        h.buckets.assign(totals + def.base, totals + def.base + last + 1);
        snap.histograms.emplace(name, std::move(h));
    }
    return snap;
}

void merge(Snapshot& into, const Snapshot& from) {
    for (const auto& [name, value] : from.counters)
        into.counters[name] += value;
    for (const auto& [name, h] : from.histograms) {
        HistogramSnapshot& dst = into.histograms[name];
        dst.count += h.count;
        dst.sum += h.sum;
        if (dst.buckets.size() < h.buckets.size())
            dst.buckets.resize(h.buckets.size(), 0);
        for (std::size_t i = 0; i < h.buckets.size(); ++i)
            dst.buckets[i] += h.buckets[i];
    }
}

void reset() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::memset(r.retired, 0, sizeof(r.retired));
    for (Shard* s : r.live)
        for (std::size_t i = 0; i < kMaxSlots; ++i)
            s->slots[i].store(0, std::memory_order_relaxed);
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    out += '"';
}

// --- minimal parser for the to_json() schema -------------------------------

struct Parser {
    const char* p;
    const char* end;

    void skip_ws() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }
    bool consume(char c) {
        skip_ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }
    bool peek(char c) {
        skip_ws();
        return p < end && *p == c;
    }
    bool parse_string(std::string& out) {
        skip_ws();
        if (p >= end || *p != '"') return false;
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end) return false;
            }
            out += *p++;
        }
        if (p >= end) return false;
        ++p;  // closing quote
        return true;
    }
    bool parse_u64(std::uint64_t& out) {
        skip_ws();
        if (p >= end || *p < '0' || *p > '9') return false;
        out = 0;
        while (p < end && *p >= '0' && *p <= '9') {
            out = out * 10 + static_cast<std::uint64_t>(*p - '0');
            ++p;
        }
        return true;
    }
};

bool parse_histogram(Parser& ps, HistogramSnapshot& h) {
    if (!ps.consume('{')) return false;
    if (ps.consume('}')) return true;
    while (true) {
        std::string key;
        if (!ps.parse_string(key) || !ps.consume(':')) return false;
        if (key == "count") {
            if (!ps.parse_u64(h.count)) return false;
        } else if (key == "sum") {
            if (!ps.parse_u64(h.sum)) return false;
        } else if (key == "buckets") {
            if (!ps.consume('[')) return false;
            if (!ps.consume(']')) {
                while (true) {
                    std::uint64_t v = 0;
                    if (!ps.parse_u64(v)) return false;
                    h.buckets.push_back(v);
                    if (ps.consume(']')) break;
                    if (!ps.consume(',')) return false;
                }
            }
        } else {
            return false;
        }
        if (ps.consume('}')) return true;
        if (!ps.consume(',')) return false;
    }
}

}  // namespace

std::string to_json(const Snapshot& snap) {
    std::string out;
    out.reserve(256 + snap.counters.size() * 32 +
                snap.histograms.size() * 256);
    out += "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, name);
        out += ':';
        out += std::to_string(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : snap.histograms) {
        if (!first) out += ',';
        first = false;
        append_json_string(out, name);
        out += ":{\"count\":";
        out += std::to_string(h.count);
        out += ",\"sum\":";
        out += std::to_string(h.sum);
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            if (i != 0) out += ',';
            out += std::to_string(h.buckets[i]);
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

bool from_json(const std::string& json, Snapshot& out) {
    Parser ps{json.data(), json.data() + json.size()};
    Snapshot snap;
    bool saw_counters = false, saw_histograms = false;
    if (!ps.consume('{')) return false;
    while (!ps.peek('}')) {
        std::string section;
        if (!ps.parse_string(section) || !ps.consume(':')) return false;
        if (!ps.consume('{')) return false;
        if (section == "counters") {
            saw_counters = true;
            while (!ps.peek('}')) {
                std::string name;
                std::uint64_t value = 0;
                if (!ps.parse_string(name) || !ps.consume(':') ||
                    !ps.parse_u64(value))
                    return false;
                snap.counters[name] = value;
                if (!ps.peek('}') && !ps.consume(',')) return false;
            }
            if (!ps.consume('}')) return false;
        } else if (section == "histograms") {
            saw_histograms = true;
            while (!ps.peek('}')) {
                std::string name;
                if (!ps.parse_string(name) || !ps.consume(':')) return false;
                HistogramSnapshot h;
                if (!parse_histogram(ps, h)) return false;
                snap.histograms.emplace(std::move(name), std::move(h));
                if (!ps.peek('}') && !ps.consume(',')) return false;
            }
            if (!ps.consume('}')) return false;
        } else {
            return false;
        }
        if (!ps.peek('}') && !ps.consume(',')) return false;
    }
    if (!ps.consume('}')) return false;
    ps.skip_ws();
    if (ps.p != ps.end) return false;
    // to_json always emits both sections; a payload missing one is a torn
    // or foreign frame, not an empty snapshot.
    if (!saw_counters || !saw_histograms) return false;
    out = std::move(snap);
    return true;
}

}  // namespace xs::util::metrics
