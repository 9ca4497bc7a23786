// Crash-isolated multi-process sweep execution (DESIGN.md §9).
//
// run_supervised runs a SweepSpec grid with the cells executed in forked
// worker *processes* instead of threads, so a crash (solver bug, OOM kill,
// injected fault) or a hang takes down one worker and one attempt of one
// cell — never the sweep. It is the listener-less front end of the sweep
// service's coordinator (sweep/service.h): the coordinator's only host is
// an in-process agent on a thread, linked by a socketpair, that drives the
// forked worker pool. Everything else is the service's: cells are leased
// and re-dealt with exponential backoff when a worker dies, fails, or
// outlives its lease; poison cells are quarantined after the retry budget
// instead of aborting. Each acknowledged cell goes to the SweepLedger the
// in-process SweepRunner keeps too (sweep/runner.h), which records it
// durably in the manifest (the fsync'd append *is* the ack) before counting
// it.
//
// Determinism: workers execute each cell as a one-cell unit
// (run_sweep_cell) of the code the in-process SweepRunner runs its units
// with, with per-cell seeds derived from the cell identity, so
// the aggregate CSV is byte-identical at any worker count, across kills,
// retries, and resumes — and identical to a single-process run of the same
// spec (minus quarantined cells' groups).
//
// Worker processes are the *same binary* re-exec'd with --worker
// --wire-in=<fd> --wire-out=<fd> (fork alone is unsafe under the process
// thread pool; fork+exec restarts clean). The driver wires this up with
// worker_command_from_argv() + worker_main(), which live in supervisor.cpp.
#pragma once

#include "core/experiments.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xs::sweep {

struct SupervisorOptions {
    // Worker processes to fork (capped at the number of pending cells).
    std::int64_t workers = 2;
    // argv prefix of the worker command: the executable plus every
    // experiment/spec flag, so the child reconstructs an identical
    // ExperimentContext and SweepSpec. The worker pool appends
    // --worker --wire-in=<fd> --wire-out=<fd>.
    std::vector<std::string> worker_cmd;
    // Re-deal a failed cell this many times after its first attempt before
    // quarantining it (total attempts = retries + 1).
    std::int64_t max_cell_retries = 2;
    // First re-deal waits this long, doubling per attempt (250, 500, 1000…).
    double retry_backoff_ms = 250.0;
    // Worker respawns allowed across the pool before dead slots are retired
    // instead of restarted. The sweep only aborts when every slot is gone
    // and undone cells remain — no other host can join to finish them (the
    // manifest keeps the resume state).
    std::int64_t max_worker_restarts = 4;
};

// Execute the sweep under process supervision: the service's coordinator
// with one in-process agent host and no listener. Shares cell execution and
// the SweepLedger (resume, recording, aggregation) with SweepRunner::run();
// opts.cell_budget_ms becomes the lease (its expiry is the watchdog: the
// cell is re-dealt and the worker still on it SIGKILLed).
// SweepSummary::worker_restarts is the agent's worker respawns. Throws only
// on coordinator-side failures (manifest I/O, fingerprint mismatch, the
// whole pool dead) or what the agent thread threw; per-cell failures are
// quarantined, not thrown.
SweepSummary run_supervised(core::ExperimentContext& ctx, const SweepSpec& spec,
                            const SweepOptions& opts,
                            const SupervisorOptions& sup);

// Child-process entry: read kDeal frames from in_fd, execute cells, write
// kAck (the cell's manifest line) / kFail (error text) to out_fd until
// kShutdown or EOF. Returns the process exit code.
int worker_main(core::ExperimentContext& ctx, const SweepSpec& spec,
                int in_fd, int out_fd);

// Build SupervisorOptions::worker_cmd from this process's argv: the
// executable resolved via /proc/self/exe (argv[0] may be PATH-relative and
// the cwd may differ) plus every original flag except the supervision ones
// (--worker, --wire-*, --workers, --agent); the worker pool appends its own
// --worker --wire-in/--wire-out per spawn.
std::vector<std::string> worker_command_from_argv(int argc, char** argv);

}  // namespace xs::sweep
