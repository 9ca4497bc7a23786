// Sharded, resumable execution of a SweepSpec grid (DESIGN.md §7).
//
// `shards` executors run concurrently on the process-wide worker pool and
// are dealt work units dynamically: each takes the next undealt unit from a
// shared cursor whenever it finishes one. Every completed cell is appended
// to a JSONL manifest (sweep/manifest.h) so an interrupted sweep resumes
// with --resume, skipping finished cells. A unit is normally one grid
// point's pending repeats, evaluated in a single lane-batched pass
// (run_sweep_group); warm-start and nf-only sweeps run one-cell units
// (run_sweep_cell). Per-cell RNG seeds derive from the cell's stable group
// id — never from shard, deal, grouping, or completion order — and sweep
// cells cold-start their circuit solves, so the aggregate CSV is
// byte-identical at any shard count, however cells are grouped, with or
// without interruption.
//
// For crash isolation, the supervisor (sweep/supervisor.h) executes the
// same grid in forked worker *processes*; it shares this header's cell
// execution, fingerprinting, resume loading, and aggregation, so the two
// execution engines cannot drift apart — a supervised sweep's aggregate CSV
// is byte-identical to a single-process run of the same spec.
#pragma once

#include "core/experiments.h"
#include "sweep/manifest.h"
#include "sweep/spec.h"
#include "util/metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xs::sweep {

struct SweepOptions {
    // Concurrent executors (at most one per pool worker); 0 = one per pool
    // worker. Work units are dealt dynamically, in expansion order, to
    // whichever executor is free, so the assignment varies run to run and
    // the results do not.
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
    // count into SweepSummary::cells_over_budget. Under the supervisor the
    // budget is a hard watchdog deadline: a worker still holding the cell
    // past it is SIGKILLed and the cell re-dealt (DESIGN.md §9).
    double cell_budget_ms = 0.0;
    // Escalate budget overruns to a hard failure: the sweep still finishes
    // its dispatched cells (and records them in the manifest, so --resume
    // loses nothing), then throws listing the overrun count.
    bool cell_budget_abort = false;
    // Emit a progress heartbeat on stderr every this many seconds while
    // cells execute (cells done/failed/retried, rate, ETA, and — under the
    // supervisor — per-worker liveness). 0 disables the heartbeat.
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
    std::int64_t cells_pending = 0;   // skipped by max_cells
    std::int64_t cells_over_budget = 0;  // executed cells over cell_budget_ms
    // Robustness accounting (populated by the supervisor; the in-process
    // runner only carries failed cells forward from a resumed manifest).
    std::int64_t cells_failed = 0;          // quarantined, in the grid
    std::vector<std::string> failed_cells;  // their ids, expansion order
    std::int64_t worker_restarts = 0;
    std::int64_t watchdog_kills = 0;
    std::int64_t cell_retries = 0;  // supervisor re-deals after crash/hang/fail
    std::int64_t manifest_lines_skipped = 0;  // corrupt lines ignored on resume
    // Multi-host service accounting (sweep/service.h; zero elsewhere).
    std::int64_t hosts_joined = 0;    // successful kJoin handshakes, cumulative
    std::int64_t duplicate_acks = 0;  // acks deduped against recorded results
    // Merged telemetry snapshot (util/metrics.h JSON schema): this process
    // plus — under the supervisor — every worker's kMetrics frame. Also
    // appended to the manifest as an uncounted {"metrics": ...} record.
    // Empty when telemetry is compiled out.
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

// ---- building blocks shared by SweepRunner and the supervisor ----
// Both execution engines compose exactly these, so their aggregate CSVs
// cannot diverge.

// Execute one grid cell in the calling process: resolve the prepared
// (cached) model, build the cell's EvalConfig, evaluate, attach energy.
// An inference cell is run_sweep_group of that one cell: a one-lane
// evaluation, whose circuit solves run the one-lane instance of the batched
// kernel (bit-identical to the scalar solve and 2-3x faster). An nf-only
// cell runs core::measure_nf. The supervisor's and service's workers
// execute cells through this one at a time.
CellResult run_sweep_cell(core::ExperimentContext& ctx, const SweepSpec& spec,
                          const SweepCell& cell);

// Execute all `cells` (repeats of ONE grid point, any subset, ≥1) in a
// single lane-batched evaluation: one model resolve, one compiled-instance
// set per repeat (each seeded with its own cell_seed), one batched inference
// pass. Returns one CellResult per input cell, in order, with the group wall
// time split evenly across them. With cold-start solves every lane is
// bit-identical to running its cell alone; callers keep warm-start sweeps
// to one-cell groups themselves (SweepRunner::run does). Requires an
// inference pass — nf_only specs are rejected.
std::vector<CellResult> run_sweep_group(core::ExperimentContext& ctx,
                                        const SweepSpec& spec,
                                        const std::vector<const SweepCell*>& cells);

// The configuration fingerprint recorded in (and checked against) the
// manifest: experiment context + solve determinism + RNG sampler tag.
std::string sweep_config_fingerprint(const core::ExperimentContext& ctx,
                                     const SweepSpec& spec);

// Resume support: load the manifest, warn (loudly, with a count) about
// corrupt lines, and refuse a fingerprint mismatch. Returns recorded
// results (ok and failed); `summary` gets manifest_lines_skipped and — so
// telemetry totals accumulate across resumes instead of resetting — the
// prior run's metrics record into metrics_json (see merge_prior_metrics).
// `had_config` reports whether the manifest already carries a fingerprint.
std::map<std::string, CellResult> load_resume_state(
    const std::string& manifest_path, const std::string& config_fp,
    SweepSummary& summary, bool& had_config);

// Fold a resumed manifest's prior {"metrics":…} record (inner JSON; "" is a
// no-op) into `snap`, so the record appended at the end of this run carries
// the whole sweep's totals — every execution engine calls this before
// ManifestWriter::record_metrics.
void merge_prior_metrics(const std::string& prior_json,
                         util::metrics::Snapshot& snap);

// Aggregate `results` over the grid into summary.rows (expansion order) and
// write the aggregate CSV (complete groups only, fixed formatting). Failed
// cells never aggregate: their groups are incomplete, excluded from the
// CSV, and accounted in summary.cells_failed / failed_cells.
void aggregate_and_write_csv(const std::vector<SweepCell>& cells,
                             const SweepSpec& spec,
                             const std::map<std::string, CellResult>& results,
                             SweepSummary& summary);

class SweepRunner {
public:
    SweepRunner(core::ExperimentContext& ctx, SweepSpec spec, SweepOptions opts);

    // Prepare shared models (each once), execute pending cells sharded,
    // append the manifest, and write the aggregate CSV (complete groups
    // only, expansion order).
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

}  // namespace xs::sweep
