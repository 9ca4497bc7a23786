// Multi-host sweep coordinator (DESIGN.md §11): own the grid, the manifest,
// and the aggregate CSV, and deal cells as leases to agent hosts that join
// over TCP.
//
//   ./sweep_serve --spec=grid.sweep --port=7473 --cell-budget-ms=60000
//   ./sweep_runner --spec=grid.sweep --agent=hostA:7473 --workers=8
//
// Agents run the same spec and experiment flags (the kJoin handshake checks
// the configuration fingerprint and rejects a mismatch loudly) and execute
// cells on their local forked worker pools. A host that misses
// --heartbeat-misses heartbeats or holds a cell past --cell-budget-ms has
// its cells re-dealt with exponential backoff; a slow host's late duplicate
// ack is deduped against the manifest, so the aggregate CSV is
// byte-identical to a single-process run at any host count.
//
// SIGTERM/SIGINT (or --drain) drain gracefully: stop dealing, wait out
// in-flight leases, collect per-host telemetry, and exit with the manifest
// resumable — rerun with --resume to finish.
#include "core/experiments.h"
#include "sweep/runner.h"
#include "sweep/service.h"
#include "util/flags.h"

#include <csignal>
#include <cstdio>
#include <string>

extern "C" void xs_serve_on_signal(int) { xs::sweep::request_drain(); }

namespace {

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.max_cells = flags.get_int("max-cells", -1);
    opts.csv_name = flags.get_string("csv", "sweep.csv");
    opts.manifest_name = flags.get_string("manifest", "sweep_manifest.jsonl");
    opts.cell_budget_ms = flags.get_double("cell-budget-ms", 0.0);
    opts.progress_sec = flags.get_double("progress-sec", 0.0);

    sweep::ServiceOptions svc;
    svc.port = static_cast<std::uint16_t>(flags.get_int("port", 7473));
    svc.heartbeat_ms = flags.get_double("heartbeat-ms", 1000.0);
    svc.heartbeat_misses = flags.get_int("heartbeat-misses", 3);
    svc.max_cell_retries = flags.get_int("cell-retries", 2);
    svc.retry_backoff_ms = flags.get_double("retry-backoff-ms", 250.0);
    svc.drain = flags.get_bool("drain", false);
    const std::string metrics_out = flags.get_string("metrics-out", "");
    flags.check_all_read();

    std::signal(SIGTERM, xs_serve_on_signal);
    std::signal(SIGINT, xs_serve_on_signal);

    std::printf("serve: %s\n", spec.describe().c_str());
    const sweep::SweepSummary summary =
        sweep::run_service(ctx, spec, opts, svc);
    const std::string service =
        "service: " + std::to_string(summary.hosts_joined) +
        " host join(s), " + std::to_string(summary.duplicate_acks) +
        " duplicate ack(s) deduped, " + std::to_string(summary.cell_retries) +
        " cell retr" + (summary.cell_retries == 1 ? "y" : "ies");
    return sweep::print_summary(summary, opts, service, metrics_out) ? 0 : 1;
}

}  // namespace

// A bad grid or flag is logged and exits 1.
int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
