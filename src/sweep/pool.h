// Forked sweep-worker pool, driven by the agent's event loop
// (sweep/service.cpp) — the only code that drives worker processes, for
// both the remote agent (run_agent) and the in-process agent behind
// run_supervised. DESIGN.md §9/§11.
//
// Each slot holds one `<binary> --worker --wire-in=<fd> --wire-out=<fd>`
// child process, confined to its own slice of the parent's CPUs (so its
// thread pool is as wide as the slice) and wired to fresh deal/ack pipes:
// fork+exec (fork alone is unsafe under the process thread pool),
// parent-held pipe ends CLOEXEC so later-spawned siblings don't mask each
// other's EOF-on-death, ack side nonblocking and poll-driven through a
// wire::MessageReader. Respawns are budgeted pool-wide: past the budget a
// dead slot retires and the pool shrinks gracefully instead of flapping on
// a persistent fault.
#pragma once

#include "sweep/wire.h"
#include "util/metrics.h"

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace xs::sweep {

struct PoolWorker {
    pid_t pid = -1;
    int deal_fd = -1;  // parent → worker (blocking writes)
    int ack_fd = -1;   // worker → parent (nonblocking, poll-driven)
    wire::MessageReader reader;
    bool alive = false;
    bool ready = false;         // said hello / finished its last cell
    std::int64_t dealt = -1;    // cell index in flight here, -1 = idle
    std::int64_t attempt = -1;  // the attempt of `dealt` this worker runs
    std::int64_t link = -1;     // the agent link `dealt` arrived on
    double deadline = 0.0;      // caller-armed watchdog; 0 = none
};

// The CPUs that worker `slot` of `slots` runs on, out of the parent's
// `cpus`: the contiguous slice [slot·C/slots, (slot+1)·C/slots) of the C
// CPUs, or CPU slot mod C when there are more workers than CPUs. Empty
// when `cpus` is (the mask could not be read): the worker keeps the
// parent's mask.
std::vector<int> slot_cpus(const std::vector<int>& cpus, std::size_t slot,
                           std::size_t slots);

class WorkerPool {
public:
    // `cmd` is the worker argv prefix (binary + every experiment/spec
    // flag); the pool appends --worker --wire-in/--wire-out per spawn.
    WorkerPool(std::vector<std::string> cmd, std::int64_t restart_budget);
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    // Fill the pool with n workers. Returns false on the first spawn
    // failure (earlier spawns stay alive).
    bool spawn(std::size_t n);

    std::size_t size() const { return workers_.size(); }
    PoolWorker& operator[](std::size_t i) { return workers_[i]; }
    const PoolWorker& operator[](std::size_t i) const { return workers_[i]; }
    std::size_t alive_count() const;

    // Reap worker i (blocking waitpid), close its pipes, and respawn into
    // the slot while the restart budget lasts. Returns a description of how
    // the child exited; `respawned` reports whether the slot refilled (false
    // = retired). SIGKILL the pid first to turn a hang into a reapable exit.
    std::string reap_and_respawn(std::size_t i, bool& respawned);
    void kill(std::size_t i);

    std::int64_t restarts() const { return restarts_; }

    // Orderly shutdown: send kShutdown to every live worker, collect each
    // one's parting kMetrics frame into `merged` (pass nullptr to skip),
    // then reap — escalating to SIGKILL past `grace_ms`. Leaves the pool
    // empty of live workers.
    void shutdown(double grace_ms, util::metrics::Snapshot* merged);

private:
    bool spawn_slot(PoolWorker& w);

    std::vector<std::string> cmd_;
    std::vector<int> cpus_;  // the parent's affinity mask, sliced per slot
    std::vector<PoolWorker> workers_;
    std::int64_t restarts_left_;
    std::int64_t restarts_ = 0;
};

}  // namespace xs::sweep
