// Generic declarative sweep driver: expand a SweepSpec from CLI flags
// and/or a spec file, execute it sharded and resumable, and print the
// paper-style accuracy-vs-crossbar-size table.
//
//   ./sweep_runner --variants=vgg11 --prune=none,cf:0.8 --sizes=16,32,64
//       --mitigations=none,rearrange --sweep-repeats=3
//   ./sweep_runner --spec=grid.sweep --resume
//   ./sweep_runner --spec=grid.sweep --dry-run
//   ./sweep_runner --backends=circuit,fast --cell-budget-ms=60000
//   ./sweep_runner --workers=4 --cell-budget-ms=60000 --cell-retries=2
//
// --dry-run prints the expanded grid (cell count, axis values, distinct
// models to prepare) and exits without training or executing anything.
//
// --workers=N switches from in-process shards to crash-isolated process
// supervision (DESIGN.md §9): the sweep service's coordinator deals the
// cells over a socketpair (no listening socket) to an in-process agent that
// drives N forked copies of this binary. Dead or hung workers are respawned
// and their cells re-dealt (--cell-budget-ms is the per-cell lease, whose
// expiry is the watchdog), failing cells are retried --cell-retries times
// with --retry-backoff-ms exponential backoff and then quarantined in the
// manifest instead of aborting. The aggregate CSV is byte-identical to a
// single-process run. --worker / --wire-* are the internal child-process
// entry, never passed by hand.
//
// Without --workers, --cell-budget-ms=N warns on cells slower than N ms
// (and fails the sweep with --cell-budget-abort); every cell's wall time
// lands in the manifest either way.
//
// --agent=host:port joins a sweep_serve coordinator instead of running a
// sweep of its own (DESIGN.md §11): the spec/experiment flags must match
// the service's (the join handshake checks the fingerprint), --workers is
// this host's advertised capacity, and the agent reconnects with capped
// exponential backoff (--agent-backoff-ms, --agent-reconnects) when the
// service drops.
//
// Spec files hold the same keys as the flags, one `key = value` per line
// ('#' comments); CLI flags override the file. Experiment-scale flags
// (--width, --train-count, --epochs, --out-dir, …) are shared with every
// other driver via core::ExperimentContext. A flag that no mode reads
// exits 1 before anything runs.
//
// Telemetry (DESIGN.md §10):
//   --metrics-out=metrics.json  write the merged counter/histogram snapshot
//   --trace=out.json            chrome://tracing span timeline (workers
//                               write out.json.w<pid> — one file each)
//   --progress-sec=N            heartbeat on stderr every N seconds
#include "core/experiments.h"
#include "sweep/net.h"
#include "sweep/runner.h"
#include "sweep/service.h"
#include "sweep/supervisor.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/trace.h"

#include <cstdio>
#include <string>
#include <unistd.h>

namespace {

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    const std::string trace_path = flags.get_string("trace", "");

    // A worker's argv is its parent's, flags for other modes included, so
    // it is exempt from check_all_read.
    if (flags.get_bool("worker", false)) {
        // Each worker traces into its own file: spans from different
        // processes cannot share one buffer, and chrome://tracing loads the
        // per-pid files side by side anyway.
        if (!trace_path.empty())
            util::trace::start(trace_path + ".w" + std::to_string(::getpid()));
        const int rc = sweep::worker_main(
            ctx, spec, static_cast<int>(flags.get_int("wire-in", -1)),
            static_cast<int>(flags.get_int("wire-out", -1)));
        util::trace::stop_and_write();
        return rc;
    }

    // Agent mode (DESIGN.md §11): join a sweep_serve coordinator and execute
    // whatever cells it deals, on a local worker pool, until it shuts us
    // down. --workers is advertised as this host's capacity; the agent
    // reconnects with capped exponential backoff when the service drops.
    const std::string agent = flags.get_string("agent", "");
    if (!agent.empty()) {
        sweep::AgentOptions a;
        if (!sweep::net::parse_hostport(agent, a.host, a.port)) {
            util::log_error("bad --agent='" + agent + "' (want host:port)");
            return 2;
        }
        a.workers = flags.get_int("workers", 2);
        a.worker_cmd = sweep::worker_command_from_argv(argc, argv);
        a.max_worker_restarts = flags.get_int("worker-restarts", 4);
        a.reconnect_backoff_ms = flags.get_double("agent-backoff-ms", 250.0);
        a.max_reconnects = flags.get_int("agent-reconnects", -1);
        flags.check_all_read();
        return sweep::run_agent(ctx, spec, a);
    }

    const bool dry_run = flags.get_bool("dry-run", false);
    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.max_cells = flags.get_int("max-cells", -1);
    opts.csv_name = flags.get_string("csv", "sweep.csv");
    opts.manifest_name = flags.get_string("manifest", "sweep_manifest.jsonl");
    opts.cell_budget_ms = flags.get_double("cell-budget-ms", 0.0);
    opts.cell_budget_abort = flags.get_bool("cell-budget-abort", false);
    opts.progress_sec = flags.get_double("progress-sec", 0.0);
    sweep::SupervisorOptions sup;
    sup.workers = flags.get_int("workers", 0);
    if (sup.workers > 0) {
        sup.worker_cmd = sweep::worker_command_from_argv(argc, argv);
        sup.max_cell_retries = flags.get_int("cell-retries", 2);
        sup.retry_backoff_ms = flags.get_double("retry-backoff-ms", 250.0);
        sup.max_worker_restarts = flags.get_int("worker-restarts", 4);
    }
    const std::string metrics_out = flags.get_string("metrics-out", "");
    flags.check_all_read();

    if (dry_run) {
        std::printf("%s", sweep::dry_run_report(ctx, spec).c_str());
        return 0;
    }

    if (!trace_path.empty()) util::trace::start(trace_path);
    std::printf("sweep: %s\n", spec.describe().c_str());
    const sweep::SweepSummary summary =
        sup.workers > 0 ? sweep::run_supervised(ctx, spec, opts, sup)
                        : sweep::SweepRunner(ctx, spec, opts).run();
    const std::string trace_written = util::trace::stop_and_write();
    if (!trace_written.empty())
        std::printf("trace:         %s\n", trace_written.c_str());

    std::string supervision;
    if (sup.workers > 0)
        supervision = "supervision: " + std::to_string(summary.worker_restarts) +
                      " worker restart(s), " +
                      std::to_string(summary.watchdog_kills) +
                      " watchdog kill(s), " +
                      std::to_string(summary.cell_retries) + " cell retr" +
                      (summary.cell_retries == 1 ? "y" : "ies");
    return sweep::print_summary(summary, opts, supervision, metrics_out) ? 0 : 1;
}

}  // namespace

// A bad grid or flag (a crossbar size of 0, an unknown mitigation, a
// --resume fingerprint mismatch, ...) is logged and exits 1.
int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
