#include "sweep/runner.h"

#include "map/energy.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <sstream>

namespace xs::sweep {

namespace {

using util::fmt_g;

// The distinct models a set of cells resolves to, deduplicated by spec key
// in first-use order — shared by the runner's prepare phase and the
// --dry-run preview so the preview can never diverge from what actually
// trains.
std::vector<core::ModelSpec> distinct_model_specs(
    const core::ExperimentContext& ctx,
    const std::vector<const SweepCell*>& cells) {
    std::set<std::string> seen;
    std::vector<core::ModelSpec> specs;
    for (const SweepCell* c : cells) {
        core::ModelSpec ms = ctx.spec(c->variant, c->num_classes,
                                      c->prune.method, c->prune.sparsity,
                                      c->mitigation.wct);
        if (seen.insert(ms.key()).second) specs.push_back(std::move(ms));
    }
    return specs;
}

// What every cell of one grid point shares: the prepared (cached) model and
// the evaluation config built from the cell's axes. The repeat's seed is
// the only per-cell input, so it is left to the caller.
struct CellSetup {
    core::PreparedModel& model;
    core::EvalConfig eval;
};

CellSetup setup_cell(core::ExperimentContext& ctx, const SweepSpec& spec,
                     const SweepCell& cell) {
    const core::ModelSpec model_spec =
        ctx.spec(cell.variant, cell.num_classes, cell.prune.method,
                 cell.prune.sparsity, cell.mitigation.wct);
    core::PreparedModel& model = [&]() -> core::PreparedModel& {
        XS_TIMER_NS("sweep.phase.prepare.ns");
        XS_TRACE_SPAN("cell.prepare");
        return ctx.prepared(model_spec);
    }();
    CellSetup setup{model, ctx.eval_config(model, cell.prune.method,
                                           cell.xbar_size,
                                           cell.mitigation.rearrange)};
    core::EvalConfig& eval = setup.eval;
    eval.backend = cell.backend;
    eval.xbar.device.sigma_variation = cell.sigma;
    eval.xbar.parasitics.r_driver *= cell.parasitic_scale;
    eval.xbar.parasitics.r_wire_row *= cell.parasitic_scale;
    eval.xbar.parasitics.r_wire_col *= cell.parasitic_scale;
    eval.xbar.parasitics.r_sense *= cell.parasitic_scale;
    eval.faults.p_stuck_min = cell.faults.p_stuck_min;
    eval.faults.p_stuck_max = cell.faults.p_stuck_max;
    if (cell.quant_levels > 0) eval.conductance_levels = cell.quant_levels;
    eval.compensate_columns = cell.mitigation.compensate;
    eval.warm_start_solves = spec.warm_start_solves;
    return setup;
}

// One CellResult per evaluated repeat, with the analytic energy estimate
// attached; the wall time since `t0` is split evenly across them.
std::vector<CellResult> cell_results(const SweepCell& head,
                                     const CellSetup& setup,
                                     const std::vector<core::EvalResult>& per,
                                     std::chrono::steady_clock::time_point t0) {
    const map::EnergyReport energy =
        map::estimate_energy(setup.model.model, head.prune.method,
                             setup.eval.xbar, map::EnergyConfig{});
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count() /
                           static_cast<double>(per.size());
    std::vector<CellResult> out(per.size());
    for (std::size_t r = 0; r < per.size(); ++r) {
        out[r].backend = xbar::backend_name(head.backend);
        out[r].accuracy = per[r].accuracy;
        out[r].nf_mean = per[r].nf_mean;
        out[r].energy_pj = energy.total_energy_pj();
        out[r].software_acc = setup.model.software_accuracy;
        out[r].tiles = per[r].total_tiles;
        out[r].solver_failures = per[r].unconverged_tiles;
        out[r].wall_ms = wall_ms;
    }
    return out;
}

}  // namespace

// Execute one grid cell. Inference cells are a one-cell group; nf-only
// cells measure NF (paper Fig. 3(d)) with no inference pass and no device
// variation. Safe to call concurrently from shard chunks: the context's
// caches are locked, the shared model is only read, and all scratch is
// call-local. Also the body of the supervisor's and service's workers.
CellResult run_sweep_cell(core::ExperimentContext& ctx, const SweepSpec& spec,
                          const SweepCell& cell) {
    if (!spec.nf_only) return run_sweep_group(ctx, spec, {&cell}).front();
    XS_TIMER_NS("sweep.cell.ns");
    XS_TRACE_SPAN("cell");
    XS_COUNT("sweep.cells.executed", 1);
    const auto t0 = std::chrono::steady_clock::now();
    CellSetup setup = setup_cell(ctx, spec, cell);
    setup.eval.seed = cell_seed(ctx.seed(), cell);
    setup.eval.include_variation = false;
    std::vector<core::EvalResult> per(1);
    {
        XS_TIMER_NS("sweep.phase.eval.ns");
        XS_TRACE_SPAN("cell.eval");
        per[0] = core::measure_nf(setup.model.model, setup.eval);
    }
    return cell_results(cell, setup, per, t0).front();
}

// Execute one grid point's repeats in a single lane-batched evaluation. The
// cells share every axis except the repeat index, so one EvalConfig (built
// from the head cell) serves the whole group; only the per-repeat seeds
// differ, and those reach the evaluator as an explicit seed list. With
// cold-start solves each lane's result is independent of the group it
// rides in, so a group and its cells run one by one give the same bytes.
std::vector<CellResult> run_sweep_group(
    core::ExperimentContext& ctx, const SweepSpec& spec,
    const std::vector<const SweepCell*>& cells) {
    tensor::check(!cells.empty(), "run_sweep_group: empty cell group");
    tensor::check(!spec.nf_only,
                  "run_sweep_group: nf-only sweeps have no inference pass to "
                  "batch; use run_sweep_cell");
    const std::size_t lanes = cells.size();
    XS_TIMER_NS("sweep.cell.ns");
    XS_TRACE_SPAN("cell_group");
    XS_COUNT("sweep.cells.executed", static_cast<std::uint64_t>(lanes));
    const auto t0 = std::chrono::steady_clock::now();
    const SweepCell& head = *cells.front();
    const CellSetup setup = setup_cell(ctx, spec, head);

    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t r = 0; r < lanes; ++r)
        seeds[r] = cell_seed(ctx.seed(), *cells[r]);

    std::vector<core::EvalResult> per;
    {
        XS_TIMER_NS("sweep.phase.eval.ns");
        XS_TRACE_SPAN("cell.eval");
        const data::TrainTest& tt = ctx.dataset(head.num_classes);
        per = core::evaluate_repeats_on_crossbars(setup.model.model, tt.test,
                                                  setup.eval, seeds);
    }
    return cell_results(head, setup, per, t0);
}

std::uint64_t cell_seed(std::uint64_t master_seed, const SweepCell& cell) {
    std::uint64_t h = 1469598103934665603ULL ^
                      (master_seed * 0x9E3779B97F4A7C15ULL);
    for (const char ch : cell.seed_key())
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    return h + static_cast<std::uint64_t>(cell.repeat) * 0x9E3779B97F4A7C15ULL;
}

std::string sweep_config_fingerprint(const core::ExperimentContext& ctx,
                                     const SweepSpec& spec) {
    // Refusing to resume under a different configuration needs every input
    // that changes cell results: the context fingerprint, the
    // solve-determinism mode, the measurement mode, and a sampler tag —
    // bump the tag whenever the Rng draw stream changes (e.g. the
    // Box–Muller → ziggurat switch), so a manifest recorded under the old
    // sampler refuses to resume instead of mixing two draw universes into
    // one CSV no fresh run could reproduce.
    return ctx.fingerprint() + (spec.warm_start_solves ? "/warm" : "/cold") +
           (spec.nf_only ? "/nf" : "") + "/rng-zig128";
}

std::map<std::string, CellResult> load_resume_state(
    const std::string& manifest_path, const std::string& config_fp,
    SweepSummary& summary, bool& had_config) {
    ManifestLoad load = load_manifest_file(manifest_path);
    summary.manifest_lines_skipped = load.skipped_lines;
    if (load.skipped_lines > 0)
        util::log_warn("sweep: manifest '" + manifest_path + "' has " +
                       std::to_string(load.skipped_lines) +
                       " corrupt line(s); the affected cells will re-run");
    tensor::check(load.config.empty() || load.config == config_fp,
                  "sweep: manifest '" + manifest_path +
                      "' was recorded under a different configuration (" +
                      load.config + " vs " + config_fp +
                      "); rerun without --resume or delete it");
    had_config = !load.config.empty();
    summary.metrics_json = load.metrics_json;
    return std::move(load.results);
}

void merge_prior_metrics(const std::string& prior_json,
                         util::metrics::Snapshot& snap) {
    if (prior_json.empty()) return;
    util::metrics::Snapshot prior;
    if (util::metrics::from_json(prior_json, prior))
        util::metrics::merge(snap, prior);
    else
        util::log_warn(
            "sweep: resumed manifest carries an unparsable metrics record; "
            "telemetry totals restart from this run");
}

void aggregate_and_write_csv(const std::vector<SweepCell>& cells,
                             const SweepSpec& spec,
                             const std::map<std::string, CellResult>& results,
                             SweepSummary& summary) {
    XS_TIMER_NS("sweep.phase.aggregate.ns");
    XS_TRACE_SPAN("aggregate");
    // Aggregate groups in expansion order; `repeat` is the innermost axis,
    // so one group's cells are contiguous. Failed (quarantined) cells never
    // contribute numbers: their groups stay incomplete and off the CSV.
    summary.rows.clear();
    summary.cells_failed = 0;
    summary.failed_cells.clear();
    for (std::size_t i = 0; i < cells.size();) {
        GroupRow row;
        row.cell = cells[i];
        row.repeats_total = spec.repeats;
        std::vector<const CellResult*> got;
        for (std::int64_t r = 0; r < spec.repeats; ++r, ++i) {
            const auto it = results.find(cells[i].id());
            if (it == results.end()) continue;
            if (it->second.failed()) {
                ++row.repeats_failed;
                ++summary.cells_failed;
                summary.failed_cells.push_back(cells[i].id());
                continue;
            }
            got.push_back(&it->second);
        }
        row.repeats_done = static_cast<std::int64_t>(got.size());
        if (!got.empty()) {
            double acc_sum = 0.0, nf_sum = 0.0;
            for (const CellResult* r : got) {
                acc_sum += r->accuracy;
                nf_sum += r->nf_mean;
                row.solver_failures += r->solver_failures;
            }
            const double n = static_cast<double>(got.size());
            row.acc_mean = acc_sum / n;
            row.nf_mean = nf_sum / n;
            double acc_var = 0.0, nf_var = 0.0;
            for (const CellResult* r : got) {
                acc_var += (r->accuracy - row.acc_mean) * (r->accuracy - row.acc_mean);
                nf_var += (r->nf_mean - row.nf_mean) * (r->nf_mean - row.nf_mean);
            }
            row.acc_std = std::sqrt(acc_var / n);
            row.nf_std = std::sqrt(nf_var / n);
            row.software_acc = got.front()->software_acc;
            row.energy_pj = got.front()->energy_pj;
            row.tiles = got.front()->tiles;
        }
        summary.rows.push_back(std::move(row));
    }

    // Aggregate CSV: complete groups only, fixed-precision cells, expansion
    // order — the bytes depend solely on the grid and the cell results,
    // never on the execution engine (threads, processes, kills, retries,
    // resumes).
    util::CsvWriter csv(summary.csv_path,
                        {"variant", "classes", "method", "sparsity",
                         "mitigation", "backend", "xbar_size", "sigma",
                         "parasitic_scale", "p_stuck_min", "p_stuck_max",
                         "repeats", "software_acc", "acc_mean", "acc_std",
                         "nf_mean", "nf_std", "energy_pj", "tiles",
                         "solver_failures"});
    for (const GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        const SweepCell& c = row.cell;
        csv.row(c.variant, c.num_classes, prune::method_name(c.prune.method),
                fmt_g(c.prune.sparsity), c.mitigation.name(),
                xbar::backend_name(c.backend), c.xbar_size,
                fmt_g(c.sigma), fmt_g(c.parasitic_scale), fmt_g(c.faults.p_stuck_min),
                fmt_g(c.faults.p_stuck_max), row.repeats_done,
                util::fmt(row.software_acc, 4), util::fmt(row.acc_mean, 4),
                util::fmt(row.acc_std, 4), util::fmt(row.nf_mean, 6),
                util::fmt(row.nf_std, 6), util::fmt(row.energy_pj, 3),
                row.tiles, row.solver_failures);
    }
    csv.flush();
    tensor::check(csv.ok(), "sweep: failed writing '" + summary.csv_path + "'");
    if (summary.cells_failed > 0)
        util::log_warn("sweep: " + std::to_string(summary.cells_failed) +
                       " quarantined cell(s) excluded from the aggregate CSV");
}

SweepRunner::SweepRunner(core::ExperimentContext& ctx, SweepSpec spec,
                         SweepOptions opts)
    : ctx_(ctx), spec_(std::move(spec)), opts_(std::move(opts)) {}

SweepSummary SweepRunner::run() {
    const std::vector<SweepCell> cells = spec_.expand();
    SweepSummary summary;
    summary.cells_total = static_cast<std::int64_t>(cells.size());
    summary.manifest_path = ctx_.csv_path(opts_.manifest_name);
    summary.csv_path = ctx_.csv_path(opts_.csv_name);

    const std::string config_fp = sweep_config_fingerprint(ctx_, spec_);
    std::map<std::string, CellResult> results;
    bool had_config = false;
    if (opts_.resume)
        results = load_resume_state(summary.manifest_path, config_fp, summary,
                                    had_config);
    const std::string prior_metrics = summary.metrics_json;
    ManifestWriter manifest(summary.manifest_path, opts_.resume);
    tensor::check(manifest.ok(), "sweep: cannot open manifest '" +
                                     summary.manifest_path + "' for writing");
    if (!had_config) manifest.record_config(config_fp);

    // Quarantined cells carried in from the resumed manifest, for the
    // progress heartbeat (the in-process runner never quarantines itself).
    std::int64_t failed_seen = 0;
    for (const auto& kv : results)
        if (kv.second.failed()) ++failed_seen;

    // Pending cells in expansion order (resume skips recorded ones — both
    // finished and quarantined; delete the manifest to retry a quarantine).
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (results.find(cells[i].id()) == results.end()) pending.push_back(i);
    summary.cells_resumed =
        summary.cells_total - static_cast<std::int64_t>(pending.size());
    if (opts_.max_cells >= 0 &&
        pending.size() > static_cast<std::size_t>(opts_.max_cells))
        pending.resize(static_cast<std::size_t>(opts_.max_cells));
    summary.cells_pending = summary.cells_total - summary.cells_resumed -
                            static_cast<std::int64_t>(pending.size());

    // Prepare every distinct model before sharding: training parallelizes
    // across the whole pool here, no shard ever stalls on another shard's
    // training, and a grid never retrains a shared model twice.
    {
        std::vector<const SweepCell*> pending_cells;
        pending_cells.reserve(pending.size());
        for (const std::size_t i : pending) pending_cells.push_back(&cells[i]);
        for (const core::ModelSpec& ms : distinct_model_specs(ctx_, pending_cells))
            ctx_.prepared(ms);
    }

    // Shard phase: `shards` concurrent executors each take the next
    // undealt work unit from a shared cursor until none are left, so no
    // shard idles while another still has a queue. Results do not depend
    // on the deal: seeds come from cell ids. Exceptions are collected per
    // shard and rethrown after the dispatch (an exception escaping into the
    // pool would terminate the process).
    const std::size_t nshards =
        opts_.shards > 0 ? static_cast<std::size_t>(opts_.shards)
                         : util::worker_count();
    std::vector<CellResult> executed(pending.size());
    std::vector<std::exception_ptr> errors(nshards);
    std::atomic<std::int64_t> completed{0};
    std::atomic<std::int64_t> over_budget{0};
    // Heartbeat state: checked after every completed cell, emitted by
    // whichever shard wins the CAS once the interval elapses.
    const util::Stopwatch run_clock;
    std::atomic<std::int64_t> last_beat_ms{0};
    const std::int64_t beat_interval_ms =
        static_cast<std::int64_t>(opts_.progress_sec * 1000.0);
    const auto maybe_heartbeat = [&](std::int64_t done) {
        if (beat_interval_ms <= 0) return;
        const auto now_ms =
            static_cast<std::int64_t>(run_clock.seconds() * 1000.0);
        std::int64_t prev = last_beat_ms.load(std::memory_order_relaxed);
        if (now_ms - prev < beat_interval_ms ||
            !last_beat_ms.compare_exchange_strong(prev, now_ms))
            return;
        const double rate =
            now_ms > 0 ? static_cast<double>(done) * 1000.0 /
                             static_cast<double>(now_ms)
                       : 0.0;
        const std::int64_t remaining =
            static_cast<std::int64_t>(pending.size()) - done;
        util::log_info(
            "progress: " + std::to_string(done) + "/" +
            std::to_string(pending.size()) + " cells (" +
            std::to_string(failed_seen) + " failed), " +
            util::fmt(rate, 2) + " cells/s, eta " +
            (rate > 0.0
                 ? util::fmt(static_cast<double>(remaining) / rate, 0) + " s"
                 : "--"));
    };
    // Work units: a unit is either one cell or a contiguous run of pending
    // cells from the same repeat group, executed as one lane-batched
    // evaluation (run_sweep_group). Repeat is the innermost expansion axis,
    // so group membership is index / repeats. Cold-start lanes do not
    // depend on their group, which keeps the aggregate CSV independent of
    // how cells are grouped; warm-start sweeps chain solves differently per
    // lane and nf-only sweeps have no inference pass, so both run one-cell
    // units. Units, not cells, are dealt to the shards.
    const bool batch_groups = !spec_.nf_only && !spec_.warm_start_solves;
    struct Unit {
        std::size_t begin = 0;  // index into `pending`
        std::size_t count = 0;
    };
    std::vector<Unit> units;
    units.reserve(pending.size());
    for (std::size_t p = 0; p < pending.size();) {
        std::size_t q = p + 1;
        if (batch_groups) {
            const std::size_t group =
                pending[p] / static_cast<std::size_t>(spec_.repeats);
            while (q < pending.size() &&
                   pending[q] / static_cast<std::size_t>(spec_.repeats) ==
                       group)
                ++q;
        }
        units.push_back(Unit{p, q - p});
        p = q;
    }
    // Shared per-cell bookkeeping, identical for every unit size.
    const auto record_one = [&](std::size_t p, CellResult&& result) {
        const SweepCell& cell = cells[pending[p]];
        executed[p] = std::move(result);
        manifest.record(cell.id(), executed[p]);
        XS_COUNT("sweep.cells.done", 1);
        const std::int64_t n = ++completed;
        maybe_heartbeat(n);
        util::log_info("sweep cell " + std::to_string(n) + "/" +
                       std::to_string(pending.size()) + " " + cell.id() +
                       ": acc " + util::fmt(executed[p].accuracy) + "% (" +
                       util::fmt(executed[p].wall_ms, 0) + " ms)");
        if (opts_.cell_budget_ms > 0.0 &&
            executed[p].wall_ms > opts_.cell_budget_ms) {
            ++over_budget;
            util::log_warn("sweep cell " + cell.id() + " over budget: " +
                           util::fmt(executed[p].wall_ms, 0) + " ms > " +
                           util::fmt(opts_.cell_budget_ms, 0) + " ms");
        }
    };
    std::atomic<std::size_t> next_unit{0};
    util::parallel_for_workers(
        0, nshards, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                try {
                    for (std::size_t u; (u = next_unit++) < units.size();) {
                        const Unit unit = units[u];
                        if (unit.count == 1) {
                            record_one(unit.begin,
                                       run_sweep_cell(ctx_, spec_,
                                                      cells[pending[unit.begin]]));
                            continue;
                        }
                        std::vector<const SweepCell*> group(unit.count);
                        for (std::size_t i = 0; i < unit.count; ++i)
                            group[i] = &cells[pending[unit.begin + i]];
                        std::vector<CellResult> results_batch =
                            run_sweep_group(ctx_, spec_, group);
                        for (std::size_t i = 0; i < unit.count; ++i)
                            record_one(unit.begin + i,
                                       std::move(results_batch[i]));
                    }
                } catch (...) {
                    errors[s] = std::current_exception();
                }
            }
        });
    for (const auto& error : errors)
        if (error) std::rethrow_exception(error);
    // A bad manifest stream (disk full, I/O error) silently drops resume
    // state — fail loudly rather than let --resume re-run finished cells.
    tensor::check(manifest.ok(), "sweep: manifest writes to '" +
                                     summary.manifest_path +
                                     "' failed; resume state is incomplete");
    summary.cells_executed = completed.load();
    summary.cells_over_budget = over_budget.load();
    // Abort only after every dispatched cell is recorded: an interrupted
    // budget run must stay resumable.
    tensor::check(!(opts_.cell_budget_abort && summary.cells_over_budget > 0),
                  "sweep: " + std::to_string(summary.cells_over_budget) +
                      " cell(s) exceeded the " +
                      util::fmt(opts_.cell_budget_ms, 0) +
                      " ms budget (--cell-budget-abort)");
    for (std::size_t p = 0; p < pending.size(); ++p)
        results[cells[pending[p]].id()] = executed[p];

    aggregate_and_write_csv(cells, spec_, results, summary);
#if XS_TELEMETRY_ENABLED
    // Snapshot after aggregation so the aggregate phase timing is included;
    // a resumed run folds the prior record's totals in first, so the
    // manifest's newest metrics record covers the whole sweep. The manifest
    // copy is an uncounted informational record.
    util::metrics::Snapshot final_snap = util::metrics::snapshot();
    merge_prior_metrics(prior_metrics, final_snap);
    summary.metrics_json = util::metrics::to_json(final_snap);
    manifest.record_metrics(summary.metrics_json);
#endif
    return summary;
}

std::string accuracy_vs_size_table(const SweepSummary& summary) {
    // Ordered unique sizes and size-independent row labels.
    std::vector<std::int64_t> sizes;
    std::vector<std::string> labels;
    std::map<std::string, std::map<std::int64_t, const GroupRow*>> grid;
    std::map<std::string, double> software;
    for (const GroupRow& row : summary.rows) {
        const SweepCell& c = row.cell;
        const std::string key = c.label(/*with_size=*/false,
                                        /*elide_defaults=*/true);
        if (grid.find(key) == grid.end()) labels.push_back(key);
        if (std::find(sizes.begin(), sizes.end(), c.xbar_size) == sizes.end())
            sizes.push_back(c.xbar_size);
        grid[key][c.xbar_size] = &row;
        if (row.complete()) software[key] = row.software_acc;
    }

    std::vector<std::string> header{"configuration", "software"};
    for (const auto size : sizes)
        header.push_back(std::to_string(size) + "x" + std::to_string(size));
    util::TextTable table(std::move(header));
    for (const std::string& label : labels) {
        std::vector<std::string> cells{label};
        const auto sw = software.find(label);
        cells.push_back(sw == software.end() ? "--"
                                             : util::fmt(sw->second) + "%");
        for (const auto size : sizes) {
            const auto it = grid[label].find(size);
            if (it == grid[label].end() || !it->second->complete()) {
                cells.push_back("--");
            } else {
                cells.push_back(util::fmt(it->second->acc_mean) + "±" +
                                util::fmt(it->second->acc_std) + "%");
            }
        }
        table.add_row(std::move(cells));
    }
    return table.str();
}

std::string dry_run_report(const core::ExperimentContext& ctx,
                           const SweepSpec& spec) {
    std::ostringstream os;
    const auto join = [&os](const char* name, const auto& values,
                            const auto& fmt_one) {
        os << "  " << name << " = ";
        bool first = true;
        for (const auto& v : values) {
            if (!first) os << ",";
            os << fmt_one(v);
            first = false;
        }
        os << "\n";
    };
    os << "dry run: " << spec.describe() << "\n";
    join("variants", spec.variants, [](const std::string& v) { return v; });
    join("classes", spec.class_counts,
         [](std::int64_t v) { return std::to_string(v); });
    join("prune", spec.prunes, [](const PruneSetting& p) {
        std::string s = prune::method_name(p.method);
        if (p.method != prune::Method::kNone) s += ":" + fmt_g(p.sparsity);
        return s;
    });
    join("mitigations", spec.mitigations,
         [](const Mitigation& m) { return m.name(); });
    join("sizes", spec.sizes, [](std::int64_t v) { return std::to_string(v); });
    join("sigmas", spec.sigmas, [](double v) { return fmt_g(v); });
    join("parasitic-scales", spec.parasitic_scales,
         [](double v) { return fmt_g(v); });
    join("faults", spec.faults, [](const FaultSetting& f) {
        return fmt_g(f.p_stuck_min) + ":" + fmt_g(f.p_stuck_max);
    });
    join("quant-levels", spec.quant_levels,
         [](std::int64_t v) { return std::to_string(v); });
    join("backends", spec.backends, [](xbar::BackendKind b) {
        return std::string(xbar::backend_name(b));
    });
    os << "  sweep-repeats = " << spec.repeats << "\n";
    os << "  warm-start = " << (spec.warm_start_solves ? "true" : "false")
       << "\n";
    if (spec.nf_only) os << "  nf-only = true\n";

    const std::vector<SweepCell> cells = spec.expand();
    os << "cells: " << cells.size() << " ("
       << (spec.repeats ? cells.size() / static_cast<std::size_t>(spec.repeats)
                        : 0)
       << " groups x " << spec.repeats << " repeats)\n";

    // Distinct models the runner's prepare phase would train or load, in
    // first-use order.
    std::vector<const SweepCell*> cell_ptrs;
    cell_ptrs.reserve(cells.size());
    for (const SweepCell& c : cells) cell_ptrs.push_back(&c);
    const std::vector<core::ModelSpec> specs =
        distinct_model_specs(ctx, cell_ptrs);
    os << "models to prepare: " << specs.size() << "\n";
    for (const core::ModelSpec& ms : specs) os << "  " << ms.key() << "\n";
    return os.str();
}

}  // namespace xs::sweep
