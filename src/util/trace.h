// Scoped-span tracing that emits chrome://tracing-compatible JSON.
//
// Disabled (the default) a Span costs one relaxed atomic load; no clock is
// read and nothing is buffered. start(path) arms collection: spans append
// {name, start, duration} events to per-thread buffers (preallocated, so
// the hot path stays allocation-free until a thread exceeds its reserve),
// and stop_and_write() serializes everything as a chrome trace
// ({"traceEvents":[{"ph":"X",...}]}) loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// Span names must be string literals (or otherwise outlive the trace
// session): only the pointer is stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace xs::util::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
void emit(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns);
std::uint64_t now_ns() noexcept;
}  // namespace detail

inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

// Arm collection; events are buffered in memory until stop_and_write().
// Calling start() again discards previously buffered events.
void start(const std::string& path);

// Disarm, write the chrome trace JSON to the start() path, and clear the
// buffers. Returns the path written, or "" if tracing was never started.
std::string stop_and_write();

class Span {
public:
    explicit Span(const char* name) noexcept {
        if (enabled()) {
            name_ = name;
            t0_ = detail::now_ns();
        }
    }
    ~Span() {
        if (name_ != nullptr) detail::emit(name_, t0_, detail::now_ns());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_ = nullptr;
    std::uint64_t t0_ = 0;
};

}  // namespace xs::util::trace

#define XS_TRACE_CAT2(a, b) a##b
#define XS_TRACE_CAT(a, b) XS_TRACE_CAT2(a, b)
#define XS_TRACE_SPAN(name) \
    ::xs::util::trace::Span XS_TRACE_CAT(xs_trace_span_, __LINE__)(name)
