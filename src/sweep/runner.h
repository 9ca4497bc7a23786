// Sharded, resumable execution of a SweepSpec grid (DESIGN.md §7).
//
// One executor per pool worker runs concurrently on the process-wide pool,
// and executors are dealt work units dynamically, largest crossbars first:
// each takes the next undealt unit from a shared cursor whenever it
// finishes one, and runs it with run_sweep_group.
// An inference unit is one grid point's pending repeats, evaluated in a
// single lane-batched pass; an nf-only unit is up to four cells that share
// one crossbar mapping, measured on one MappingPlan. Per-cell RNG seeds
// derive from the cell's stable group id — never from shard, deal,
// grouping, or completion order — and circuit solves start cold, so the
// aggregate CSV is byte-identical at any shard count, however cells are
// grouped, with or without interruption.
//
// Every finished cell goes to the SweepLedger, which appends it to a JSONL
// manifest (sweep/manifest.h) before counting it — so --resume skips
// finished cells — and writes the aggregate CSV. For crash isolation the
// sweep service's coordinator (sweep/service.h) runs the same cells in
// forked worker *processes* (run_supervised, run_service) and keeps the
// same ledger, so a supervised sweep's aggregate CSV is byte-identical to a
// single-process run of the same spec.
#pragma once

#include "core/experiments.h"
#include "sweep/manifest.h"
#include "sweep/spec.h"
#include "util/metrics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace xs::sweep {

struct SweepOptions {
    // Concurrent executors; 0 (what every driver runs) = one per pool
    // worker. Tests set a cap to pin the CSV's invariance to the executor
    // count. Work units are dealt dynamically, largest crossbar size first
    // and otherwise in expansion order, to whichever executor is free, so
    // the assignment varies run to run and the results do not.
    std::int64_t shards = 0;
    // Skip cells already recorded in the manifest (fresh runs truncate it).
    bool resume = false;
    std::string csv_name = "sweep.csv";
    std::string manifest_name = "sweep_manifest.jsonl";
    // Execute at most this many new cells, then stop (negative = no limit).
    // Smoke runs and the resume tests use this as a deterministic
    // mid-sweep interruption.
    std::int64_t max_cells = -1;
    // Per-cell wall-time budget in milliseconds; 0 disables budgeting.
    // In-process (SweepRunner): every cell's elapsed ms is recorded in the
    // manifest (wall_ms) either way; cells over budget log a warning and
    // count into SweepSummary::cells_over_budget. Under the coordinator
    // (run_supervised, run_service) the budget is the lease: a cell still
    // unacknowledged past it is re-dealt and counted as a watchdog kill and
    // a budget overrun, and the worker still on it is SIGKILLed by its
    // agent (DESIGN.md §9/§11).
    double cell_budget_ms = 0.0;
    // Escalate budget overruns to a hard failure: the sweep still finishes
    // its dispatched cells (and records them in the manifest, so --resume
    // loses nothing), then throws listing the overrun count.
    bool cell_budget_abort = false;
    // Emit a progress heartbeat on stderr every this many seconds while
    // cells execute (cells done/failed/retried, rate, ETA, and — under the
    // coordinator — per-host busy/done counts). 0 disables the heartbeat.
    double progress_sec = 0.0;
};

// One aggregation group (= one CSV row): all repeats of a grid point.
struct GroupRow {
    SweepCell cell;  // repeat-0 representative
    std::int64_t repeats_total = 0;
    std::int64_t repeats_done = 0;    // completed ok (failed cells excluded)
    std::int64_t repeats_failed = 0;  // quarantined cells in this group
    double software_acc = 0.0;
    double acc_mean = 0.0, acc_std = 0.0;
    double nf_mean = 0.0, nf_std = 0.0;
    double energy_pj = 0.0;
    std::int64_t tiles = 0;
    std::int64_t solver_failures = 0;  // summed over repeats

    bool complete() const { return repeats_done == repeats_total; }
};

struct SweepSummary {
    std::vector<GroupRow> rows;  // expansion order; complete and partial
    std::int64_t cells_total = 0;
    std::int64_t cells_executed = 0;
    std::int64_t cells_resumed = 0;   // taken from the manifest (ok + failed)
    // Grid cells with no record at the end: cut by max_cells, or left
    // undealt by a draining coordinator.
    std::int64_t cells_pending = 0;
    // Cells over cell_budget_ms, each counted once: by its wall time, or
    // under the coordinator by a lease expiry.
    std::int64_t cells_over_budget = 0;
    // Robustness accounting (populated by the coordinator behind
    // run_supervised and run_service; the in-process runner only carries
    // failed cells forward from a resumed manifest).
    std::int64_t cells_failed = 0;          // quarantined, in the grid
    std::vector<std::string> failed_cells;  // their ids, expansion order
    std::int64_t worker_restarts = 0;  // run_supervised's worker respawns
    std::int64_t watchdog_kills = 0;   // lease expiries
    std::int64_t cell_retries = 0;  // re-deals after crash/hang/fail/expiry
    std::int64_t manifest_lines_skipped = 0;  // corrupt lines ignored on resume
    // Host accounting of the coordinator (sweep/service.h): run_supervised's
    // one in-process host joins once; zero for the in-process runner.
    std::int64_t hosts_joined = 0;    // successful kJoin handshakes, cumulative
    std::int64_t duplicate_acks = 0;  // results deduped against recorded ones
    // Merged telemetry snapshot (util/metrics.h JSON schema): this process
    // plus — under the coordinator — every host's kMetrics frame, which
    // carries its workers' snapshots. Also
    // appended to the manifest as an uncounted {"metrics": ...} record.
    std::string metrics_json;
    std::string csv_path;
    std::string manifest_path;
};

// Deterministic per-cell RNG seed: a function of the master seed and the
// cell's identity only (FNV-1a over the cell's seed_key, offset by the
// repeat). The backend axis is deliberately excluded: cells differing only
// in backend evaluate the same stochastic draws, so backend comparisons
// isolate model error.
std::uint64_t cell_seed(std::uint64_t master_seed, const SweepCell& cell);

// ---- shared by SweepRunner and the coordinator ----
// Both executors run cells through these and record them through one
// SweepLedger, so their aggregate CSVs cannot diverge.

// Execute one grid cell in the calling process: run_sweep_group of that one
// cell. Forked workers execute cells through this one at a time.
CellResult run_sweep_cell(core::ExperimentContext& ctx, const SweepSpec& spec,
                          const SweepCell& cell);

// Execute one work unit (≥1 cells) and return one CellResult per cell, in
// order. Each cell keeps its own cell_seed and circuit solves start cold, so
// every result is bit-identical to running its cell alone.
//  * Inference: `cells` are repeats of ONE grid point (any subset), run as a
//    single lane-batched evaluation: one model resolve, one core::MappingPlan
//    and one energy estimate, one compiled-instance set per repeat, one
//    batched inference pass, one `cell_group` span. The group wall time is
//    split evenly across the cells.
//  * nf_only: `cells` share one mapping (they differ at most in sigma,
//    parasitic scale, faults, quant levels, backend and repeat; anything
//    else throws). One model resolve, one core::MappingPlan and one energy
//    estimate serve them all, and core::measure_nf runs once per cell with
//    σ = 0 (no device variation). Each cell runs in its own `cell` span
//    with its own wall time; the first cell's also carries the shared work.
std::vector<CellResult> run_sweep_group(core::ExperimentContext& ctx,
                                        const SweepSpec& spec,
                                        const std::vector<const SweepCell*>& cells);

// Train (or load) each distinct model the cells at indices `which` resolve
// to, once, in first-use order. Every engine calls this before executing:
// the runner before sharding, the coordinator and the remote agent before
// any worker forks (workers then load from the on-disk model cache).
void prepare_models(core::ExperimentContext& ctx,
                    const std::vector<SweepCell>& cells,
                    const std::vector<std::size_t>& which);

// The configuration fingerprint recorded in (and checked against) the
// manifest: experiment context + the "/cold" solve mode + measurement mode +
// RNG sampler tag.
std::string sweep_config_fingerprint(const core::ExperimentContext& ctx,
                                     const SweepSpec& spec);

// The bookkeeping of one sweep run, shared by every executor: the executor
// decides which cell runs where, the ledger what happens to its result.
// Thread-safe: the runner's shards record concurrently.
class SweepLedger {
public:
    // Expand the grid; under opts.resume load the manifest (warn about
    // corrupt lines, refuse a fingerprint mismatch, keep the prior metrics
    // record). Open the manifest (a fresh run truncates it) and list the
    // cells with no record, in expansion order, cut at opts.max_cells.
    SweepLedger(const core::ExperimentContext& ctx, const SweepSpec& spec,
                const SweepOptions& opts);

    const std::vector<SweepCell>& cells() const { return cells_; }
    // Indices into cells(); a cell's place here is its *position*.
    const std::vector<std::size_t>& pending() const { return pending_; }
    const std::string& config_fingerprint() const { return config_fp_; }
    // Position of cell `id`, or -1 when this run does not execute it.
    std::int64_t position(const std::string& id) const;

    enum class Recorded {
        kNew,        // appended durably, then counted
        kDuplicate,  // already recorded: counted in duplicate_acks, dropped
        kForeign,    // not a pending cell: dropped
    };
    // Append an ok result (write, flush, fsync) and only then count it:
    // sweep.cells.done, cells_executed, the "sweep cell n/m" log line, and
    // an overrun of opts.cell_budget_ms, at most one per cell. The first
    // append wins. `via` names the executor in the log lines.
    Recorded record(const std::string& id, const CellResult& r,
                    const std::string& via = "");
    // Record ids[i] with results[i] as one durable append: the new ones are
    // written, flushed and fsync'd together, then each is counted as above.
    // One fsync per work unit instead of one per cell keeps the runner's
    // shards on their units. One Recorded per id, in order.
    std::vector<Recorded> record(const std::vector<std::string>& ids,
                                 const std::vector<CellResult>& results,
                                 const std::string& via = "");
    // Record the cell at position `p`, which has no record yet, as
    // quarantined after `attempts` attempts: resume skips it and
    // aggregation leaves it out.
    void quarantine(std::size_t p, std::int64_t attempts,
                    const std::string& reason);
    // The lease on position `p` expired: a budget overrun, at most one per
    // cell.
    void lease_overrun(std::size_t p);

    // The progress line: cells settled this run out of pending(), failed
    // records, the executor's `retries`, duplicates, rate and ETA over
    // `elapsed_s`, then `hosts` (the coordinator's per-host breakdown).
    void progress(double elapsed_s, std::int64_t retries = 0,
                  const std::string& hosts = "") const;

    // Once, after the last record: check the manifest stream, throw under
    // opts.cell_budget_abort if a cell overran, write the aggregate CSV, and
    // append the metrics record — this process's snapshot, `host_metrics`
    // and the resumed prior record merged.
    SweepSummary finish(const util::metrics::Snapshot& host_metrics = {});

private:
    const std::vector<SweepCell> cells_;
    const std::int64_t repeats_;
    const SweepOptions opts_;
    const std::string config_fp_;
    // Set by the constructor, then fixed.
    std::vector<std::size_t> pending_;
    std::map<std::string, std::size_t> position_;  // id → position

    mutable std::mutex mu_;  // guards the members below
    // The manifest: the --resume load (metrics_json stays the prior run's
    // record), then every record this run appends.
    ManifestLoad recorded_;
    ManifestWriter manifest_;
    SweepSummary summary_;  // counts so far; finish() completes it
    std::set<std::size_t> overran_;  // positions with a counted overrun
    std::int64_t settled_ = 0;       // recorded or quarantined this run
};

class SweepRunner {
public:
    SweepRunner(core::ExperimentContext& ctx, SweepSpec spec, SweepOptions opts);

    // Prepare shared models (each once), execute the ledger's pending
    // cells sharded, recording each as it finishes, and finish the ledger.
    SweepSummary run();

private:
    core::ExperimentContext& ctx_;
    SweepSpec spec_;
    SweepOptions opts_;
};

// Paper-style accuracy-vs-crossbar-size table: one row per group modulo the
// size axis, one column per size ("mean±std" cells; incomplete groups "--").
std::string accuracy_vs_size_table(const SweepSummary& summary);

// Expanded-grid preview for --dry-run: per-axis values, cell/group counts,
// the distinct models the grid would prepare (train or load), and the
// backends exercised. Pure formatting — nothing is trained or executed.
std::string dry_run_report(const core::ExperimentContext& ctx,
                           const SweepSpec& spec);

// The closing report of the sweep front ends (sweep_runner, sweep_serve)
// on stdout: the accuracy-vs-size table, the cell counts, `executor_line`
// (the executor's own counters, printed when not empty), budget overruns,
// quarantined cell ids, corrupt manifest lines and the output paths. Writes
// summary.metrics_json to `metrics_out` unless it is empty, and ends with
// a hint to resume when cells are pending. Returns false, after logging,
// when the metrics file cannot be written.
bool print_summary(const SweepSummary& summary, const SweepOptions& opts,
                   const std::string& executor_line,
                   const std::string& metrics_out);

}  // namespace xs::sweep
