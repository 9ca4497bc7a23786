// parallel_for: split [begin, end) into contiguous chunks across a small
// persistent worker pool. Used by the GEMM and the crossbar tile pipeline.
//
// The pool starts one worker per CPU of the process's affinity mask and
// pins each to its CPU, so `taskset -c` sets the thread count. The thread
// that dispatches wakes the workers and waits; it runs no part itself. A
// dispatch splits its range into min(worker_count(), range) contiguous
// parts; which worker runs a part varies, the bounds do not (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace xs::util {

// Number of worker threads the pool was built with (>= 1): the CPUs in the
// affinity mask, or hardware_concurrency() where the mask cannot be read.
std::size_t worker_count();

// The CPUs in the calling thread's affinity mask, ascending; empty when the
// mask cannot be read or the platform is not Linux.
std::vector<int> affinity_cpus();

// Invoke fn(i) for every i in [begin, end). Blocks until complete.
// fn must be safe to call concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

// Chunked variant: fn(chunk_begin, chunk_end) over a partition of the range.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

// Chunked variant that also passes a worker slot index in [0, worker_count())
// so callers can maintain per-worker scratch state (e.g. one solver
// workspace per slot) without locking. Slots are unique per concurrently-
// executing chunk (sequential reuse is possible, concurrent reuse is not):
// top-level dispatches from distinct threads are serialized by the pool,
// and nested dispatches from inside a chunk run inline on the calling
// chunk's thread, reporting slot 0 — so per-slot state shared between a
// caller and its own nested dispatch would collide on slot 0; nested
// callbacks must use their own state.
void parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t worker, std::size_t chunk_begin,
                             std::size_t chunk_end)>& fn);

// Allocation-free dispatch: a plain function pointer plus an opaque context,
// so repeated dispatches construct no std::function and perform no heap
// allocation. This is the primitive the inference engine's steady-state
// batch loop uses (DESIGN.md §6); the std::function overloads above wrap it.
using WorkerRangeFn = void (*)(void* ctx, std::size_t worker,
                               std::size_t chunk_begin, std::size_t chunk_end);
void parallel_for_workers(std::size_t begin, std::size_t end, WorkerRangeFn fn,
                          void* ctx);

}  // namespace xs::util
