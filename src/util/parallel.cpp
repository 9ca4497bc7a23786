#include "util/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace xs::util {
namespace {

// Nested dispatch from inside a worker is not supported by the single-slot
// pool; such calls run inline.
thread_local bool tl_in_parallel_region = false;

using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;
using RawFn = WorkerRangeFn;

// Pin the calling thread to one CPU. On failure the thread runs unpinned.
void pin_to(int cpu) {
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
#else
    (void)cpu;
#endif
}

// A tiny persistent pool: one worker per CPU of the affinity mask, pinned
// there, so the scheduler cannot stack woken workers on the dispatching
// CPU. Workers wait on a condition variable for a chunked task, each runs
// at most one part of it, and the last to finish signals completion. One
// pool per process. Tasks receive (part, lo, hi); parts are distinct per
// concurrent execution, so they double as per-worker state slots.
class Pool {
public:
    Pool() {
        const std::vector<int> cpus = affinity_cpus();
        const unsigned hw = std::thread::hardware_concurrency();
        count_ = !cpus.empty() ? cpus.size() : std::max(1u, hw);
        // A one-worker pool runs every dispatch inline.
        if (count_ == 1) return;
        for (std::size_t t = 0; t < count_; ++t) {
            const int cpu = cpus.empty() ? -1 : cpus[t];
            workers_.emplace_back([this, cpu] { worker_loop(cpu); });
        }
    }

    ~Pool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    std::size_t count() const { return count_; }

    // Core dispatch: a raw function pointer + context, so the hot path
    // (steady-state inference, the tile loop) allocates nothing. The
    // std::function overload below wraps itself in a trampoline.
    void run(std::size_t begin, std::size_t end, RawFn fn, void* ctx) {
        const std::size_t total = end - begin;
        if (total == 0) return;
        // Single-part dispatches (1-worker pool, nested call, or a range of
        // one) run inline without touching pool state. In particular they
        // must not hold the dispatch mutex while running: a single-element
        // top-level range whose body re-dispatches (e.g. a 1-shard sweep
        // whose cells use the pool) would deadlock on its own lock.
        const std::size_t parts = std::min(count_, total);
        if (parts == 1 || tl_in_parallel_region) {
            fn(ctx, 0, begin, end);
            return;
        }
        // Serialize concurrent top-level dispatches from distinct threads:
        // the pool has a single task slot, and the thread-local region flag
        // cannot see another thread's in-flight dispatch.
        std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            task_ = fn;
            task_ctx_ = ctx;
            task_begin_ = begin;
            task_end_ = end;
            task_parts_ = parts;
            next_part_ = 0;
            pending_ = parts;
            ++generation_;
        }
        // The calling thread only waits: run on its unpinned CPU, a part
        // would share that CPU with the worker pinned there.
        cv_.notify_all();
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return pending_ == 0; });
    }

    void run(std::size_t begin, std::size_t end, const ChunkFn& fn) {
        run(begin, end,
            [](void* ctx, std::size_t part, std::size_t lo, std::size_t hi) {
                (*static_cast<const ChunkFn*>(ctx))(part, lo, hi);
            },
            const_cast<void*>(static_cast<const void*>(&fn)));
    }

private:
    static void run_part(std::size_t part, std::size_t begin, std::size_t end,
                         std::size_t parts, RawFn fn, void* ctx) {
        const std::size_t total = end - begin;
        const std::size_t chunk = (total + parts - 1) / parts;
        const std::size_t lo = begin + part * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        if (lo < hi) fn(ctx, part, lo, hi);
    }

    // cpu < 0: the mask could not be read, so the worker runs unpinned.
    void worker_loop(int cpu) {
        if (cpu >= 0) pin_to(cpu);
        tl_in_parallel_region = true;  // workers never re-dispatch to the pool
        std::uint64_t seen_generation = 0;
        while (true) {
            RawFn fn = nullptr;
            void* ctx = nullptr;
            std::size_t part = 0, begin = 0, end = 0, parts = 0;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                // At most one part per worker and dispatch: a dispatch has
                // no more parts than the pool has workers, so every part
                // still runs, each on its own worker's CPU.
                cv_.wait(lock, [&] {
                    return shutdown_ || (generation_ != seen_generation &&
                                         next_part_ < task_parts_);
                });
                if (shutdown_) return;
                seen_generation = generation_;
                fn = task_;
                ctx = task_ctx_;
                part = next_part_++;
                begin = task_begin_;
                end = task_end_;
                parts = task_parts_;
            }
            run_part(part, begin, end, parts, fn, ctx);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (--pending_ == 0) done_cv_.notify_all();
            }
        }
    }

    std::size_t count_ = 1;

    std::mutex dispatch_mutex_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    RawFn task_ = nullptr;
    void* task_ctx_ = nullptr;
    std::size_t task_begin_ = 0, task_end_ = 0, task_parts_ = 0, next_part_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t generation_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;  // last: the workers use every member above
};

Pool& pool() {
    static Pool p;
    return p;
}

}  // namespace

std::size_t worker_count() { return pool().count(); }

std::vector<int> affinity_cpus() {
    std::vector<int> cpus;
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
#endif
    return cpus;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
    pool().run(begin, end,
               [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) fn(i);
               });
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
    pool().run(begin, end, [&fn](std::size_t, std::size_t lo, std::size_t hi) {
        fn(lo, hi);
    });
}

void parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
    pool().run(begin, end, fn);
}

void parallel_for_workers(std::size_t begin, std::size_t end, WorkerRangeFn fn,
                          void* ctx) {
    pool().run(begin, end, fn, ctx);
}

}  // namespace xs::util
