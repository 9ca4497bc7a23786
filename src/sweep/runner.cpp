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
#include <fstream>
#include <optional>
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

// Whether two cells map one model the same way: they differ at most in
// sigma, parasitic scale, faults, quant levels, backend and repeat.
bool same_mapping(const SweepCell& a, const SweepCell& b) {
    return a.variant == b.variant && a.num_classes == b.num_classes &&
           a.prune.method == b.prune.method &&
           a.prune.sparsity == b.prune.sparsity &&
           a.mitigation.name() == b.mitigation.name() &&
           a.xbar_size == b.xbar_size;
}

// The prepared (cached) model a cell evaluates.
core::PreparedModel& resolve_model(core::ExperimentContext& ctx,
                                   const SweepCell& cell) {
    XS_TIMER_NS("sweep.phase.prepare.ns");
    XS_TRACE_SPAN("cell.prepare");
    return ctx.prepared(ctx.spec(cell.variant, cell.num_classes,
                                 cell.prune.method, cell.prune.sparsity,
                                 cell.mitigation.wct));
}

// The evaluation config built from the cell's axes and seeded with its own
// cell_seed; WCT models bring their frozen w_ref scales. An nf-only cell
// measures NF (paper Fig. 3(d)) with no device variation: σ = 0 whatever
// its sigma axis says.
core::EvalConfig cell_config(core::ExperimentContext& ctx,
                             const SweepSpec& spec,
                             const core::PreparedModel& model,
                             const SweepCell& cell) {
    core::EvalConfig eval;
    eval.xbar = ctx.xbar(cell.xbar_size);
    eval.method = cell.prune.method;
    eval.rearrange = cell.mitigation.rearrange;
    eval.w_ref = model.w_ref;  // empty unless WCT
    eval.backend = cell.backend;
    eval.xbar.device.sigma_variation = spec.nf_only ? 0.0 : cell.sigma;
    eval.xbar.parasitics.r_driver *= cell.parasitic_scale;
    eval.xbar.parasitics.r_wire_row *= cell.parasitic_scale;
    eval.xbar.parasitics.r_wire_col *= cell.parasitic_scale;
    eval.xbar.parasitics.r_sense *= cell.parasitic_scale;
    eval.faults.p_stuck_min = cell.faults.p_stuck_min;
    eval.faults.p_stuck_max = cell.faults.p_stuck_max;
    if (cell.quant_levels > 0) eval.conductance_levels = cell.quant_levels;
    eval.compensate_columns = cell.mitigation.compensate;
    eval.seed = cell_seed(ctx.seed(), cell);
    return eval;
}

// The analytic energy estimate of one MAC pass: a function of the model,
// the method and the crossbar size and device range, so every cell of a
// unit shares it.
double energy_pj(core::PreparedModel& model, const SweepCell& cell,
                 const core::EvalConfig& eval) {
    return map::estimate_energy(model.model, cell.prune.method, eval.xbar,
                                map::EnergyConfig{})
        .total_energy_pj();
}

CellResult cell_result(const SweepCell& cell, const core::PreparedModel& model,
                       const core::EvalResult& r, double energy,
                       double wall_ms) {
    CellResult out;
    out.backend = xbar::backend_name(cell.backend);
    out.accuracy = r.accuracy;
    out.nf_mean = r.nf_mean;
    out.energy_pj = energy;
    out.software_acc = model.software_accuracy;
    out.tiles = r.total_tiles;
    out.solver_failures = r.unconverged_tiles;
    out.wall_ms = wall_ms;
    return out;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// An nf-only unit: cells that map one model the same way, each in its own
// `cell` span. The first cell's span also resolves the model, builds the
// MappingPlan and estimates the energy, which every cell then shares. Each
// cell keeps its own seed and tile ladder, and solves start cold, so its
// result is the one it gets alone.
std::vector<CellResult> run_nf_unit(core::ExperimentContext& ctx,
                                    const SweepSpec& spec,
                                    const std::vector<const SweepCell*>& cells) {
    core::PreparedModel* model = nullptr;
    std::optional<core::MappingPlan> plan;
    double energy = 0.0;
    std::vector<CellResult> out;
    out.reserve(cells.size());
    for (const SweepCell* cell : cells) {
        tensor::check(same_mapping(*cells.front(), *cell),
                      "run_sweep_group: the cells of an nf-only unit must "
                      "share one mapping");
        XS_TIMER_NS("sweep.cell.ns");
        XS_TRACE_SPAN("cell");
        XS_COUNT("sweep.cells.executed", 1);
        const auto t0 = std::chrono::steady_clock::now();
        if (!model) model = &resolve_model(ctx, *cell);
        const core::EvalConfig eval = cell_config(ctx, spec, *model, *cell);
        core::EvalResult r;
        {
            XS_TIMER_NS("sweep.phase.eval.ns");
            XS_TRACE_SPAN("cell.eval");
            if (!plan) plan.emplace(model->model, eval);
            r = core::measure_nf(*plan, eval);
        }
        if (out.empty()) energy = energy_pj(*model, *cell, eval);
        out.push_back(cell_result(*cell, *model, r, energy, ms_since(t0)));
    }
    return out;
}

}  // namespace

// One grid cell is a one-cell unit. Safe to call concurrently from shard
// chunks: the context's caches are locked, the shared model is only read,
// and all scratch is call-local. Also the body of every forked worker
// (sweep/supervisor.h).
CellResult run_sweep_cell(core::ExperimentContext& ctx, const SweepSpec& spec,
                          const SweepCell& cell) {
    return run_sweep_group(ctx, spec, {&cell}).front();
}

// An inference unit is one grid point's repeats in a single lane-batched
// evaluation. The cells share every axis except the repeat index, so one
// EvalConfig (built from the head cell) serves the whole group; only the
// per-repeat seeds differ, and those reach the evaluator as an explicit seed
// list. Solves start cold, so each lane's result is independent of the group
// it rides in: a group and its cells run one by one give the same bytes.
std::vector<CellResult> run_sweep_group(
    core::ExperimentContext& ctx, const SweepSpec& spec,
    const std::vector<const SweepCell*>& cells) {
    tensor::check(!cells.empty(), "run_sweep_group: empty cell group");
    if (spec.nf_only) return run_nf_unit(ctx, spec, cells);
    const std::size_t lanes = cells.size();
    XS_TIMER_NS("sweep.cell.ns");
    XS_TRACE_SPAN("cell_group");
    XS_COUNT("sweep.cells.executed", static_cast<std::uint64_t>(lanes));
    const auto t0 = std::chrono::steady_clock::now();
    const SweepCell& head = *cells.front();
    core::PreparedModel& model = resolve_model(ctx, head);
    const core::EvalConfig eval = cell_config(ctx, spec, model, head);

    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t r = 0; r < lanes; ++r)
        seeds[r] = cell_seed(ctx.seed(), *cells[r]);

    std::vector<core::EvalResult> per;
    {
        XS_TIMER_NS("sweep.phase.eval.ns");
        XS_TRACE_SPAN("cell.eval");
        const data::TrainTest& tt = ctx.dataset(head.num_classes);
        per = core::evaluate_repeats_on_crossbars(model.model, tt.test, eval,
                                                  seeds);
    }
    const double energy = energy_pj(model, head, eval);
    // The group's wall time is split evenly across its cells.
    const double wall_ms = ms_since(t0) / static_cast<double>(lanes);
    std::vector<CellResult> out;
    out.reserve(lanes);
    for (std::size_t r = 0; r < lanes; ++r)
        out.push_back(cell_result(*cells[r], model, per[r], energy, wall_ms));
    return out;
}

std::uint64_t cell_seed(std::uint64_t master_seed, const SweepCell& cell) {
    std::uint64_t h = 1469598103934665603ULL ^
                      (master_seed * 0x9E3779B97F4A7C15ULL);
    for (const char ch : cell.seed_key())
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    return h + static_cast<std::uint64_t>(cell.repeat) * 0x9E3779B97F4A7C15ULL;
}

void prepare_models(core::ExperimentContext& ctx,
                    const std::vector<SweepCell>& cells,
                    const std::vector<std::size_t>& which) {
    std::vector<const SweepCell*> picked;
    picked.reserve(which.size());
    for (const std::size_t i : which) picked.push_back(&cells[i]);
    for (const core::ModelSpec& ms : distinct_model_specs(ctx, picked))
        ctx.prepared(ms);
}

std::string sweep_config_fingerprint(const core::ExperimentContext& ctx,
                                     const SweepSpec& spec) {
    // Refusing to resume under a different configuration needs every input
    // that changes cell results: the context fingerprint, the measurement
    // mode, and a sampler tag — bump the tag whenever the Rng draw stream
    // changes (e.g. the Box–Muller → ziggurat switch), so a manifest
    // recorded under the old sampler refuses to resume instead of mixing
    // two draw universes into one CSV no fresh run could reproduce. Every
    // circuit solve starts cold; the literal "/cold" is the solve mode that
    // manifests recorded it under, kept so those still resume while a
    // warm-start manifest ("/warm") is refused.
    return ctx.fingerprint() + "/cold" + (spec.nf_only ? "/nf" : "") +
           "/rng-zig128";
}

namespace {

// --resume state: every record in the manifest, its config line and its
// prior metrics record. Corrupt lines are skipped with a loud warning; a
// fingerprint mismatch is refused.
ManifestLoad load_resume_state(const std::string& manifest_path,
                               const std::string& config_fp) {
    ManifestLoad load = load_manifest_file(manifest_path);
    if (load.skipped_lines > 0)
        util::log_warn("sweep: manifest '" + manifest_path + "' has " +
                       std::to_string(load.skipped_lines) +
                       " corrupt line(s); the affected cells will re-run");
    tensor::check(load.config.empty() || load.config == config_fp,
                  "sweep: manifest '" + manifest_path +
                      "' was recorded under a different configuration (" +
                      load.config + " vs " + config_fp +
                      "); rerun without --resume or delete it");
    return load;
}

// Fold a resumed manifest's prior {"metrics":…} record (inner JSON; "" is a
// no-op) into `snap`, so the record appended at the end of this run carries
// the whole sweep's totals.
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

// Aggregate `results` over the grid into summary.rows (expansion order) and
// write the aggregate CSV (complete groups only, fixed formatting). Failed
// cells never aggregate: their groups are incomplete, excluded from the
// CSV, and accounted in summary.cells_failed / failed_cells.
void aggregate_and_write_csv(const std::vector<SweepCell>& cells,
                             std::int64_t repeats,
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
        row.repeats_total = repeats;
        std::vector<const CellResult*> got;
        for (std::int64_t r = 0; r < repeats; ++r, ++i) {
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

}  // namespace

SweepLedger::SweepLedger(const core::ExperimentContext& ctx,
                         const SweepSpec& spec, const SweepOptions& opts)
    : cells_(spec.expand()),
      repeats_(spec.repeats),
      opts_(opts),
      config_fp_(sweep_config_fingerprint(ctx, spec)),
      recorded_(opts.resume ? load_resume_state(
                                  ctx.csv_path(opts.manifest_name), config_fp_)
                            : ManifestLoad{}),
      manifest_(ctx.csv_path(opts.manifest_name), opts.resume) {
    summary_.cells_total = static_cast<std::int64_t>(cells_.size());
    summary_.manifest_path = ctx.csv_path(opts.manifest_name);
    summary_.csv_path = ctx.csv_path(opts.csv_name);
    summary_.manifest_lines_skipped = recorded_.skipped_lines;
    tensor::check(manifest_.ok(), "sweep: cannot open manifest '" +
                                      summary_.manifest_path +
                                      "' for writing");
    if (recorded_.config.empty()) manifest_.record_config(config_fp_);

    for (std::size_t i = 0; i < cells_.size(); ++i)
        if (recorded_.results.find(cells_[i].id()) == recorded_.results.end())
            pending_.push_back(i);
    summary_.cells_resumed =
        summary_.cells_total - static_cast<std::int64_t>(pending_.size());
    if (opts.max_cells >= 0 &&
        pending_.size() > static_cast<std::size_t>(opts.max_cells))
        pending_.resize(static_cast<std::size_t>(opts.max_cells));
    for (std::size_t p = 0; p < pending_.size(); ++p)
        position_[cells_[pending_[p]].id()] = p;
}

std::int64_t SweepLedger::position(const std::string& id) const {
    const auto it = position_.find(id);
    return it == position_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

SweepLedger::Recorded SweepLedger::record(const std::string& id,
                                          const CellResult& r,
                                          const std::string& via) {
    return record(std::vector<std::string>{id}, std::vector<CellResult>{r},
                  via)
        .front();
}

std::vector<SweepLedger::Recorded> SweepLedger::record(
    const std::vector<std::string>& ids, const std::vector<CellResult>& results,
    const std::string& via) {
    tensor::check(ids.size() == results.size(),
                  "SweepLedger::record: one result per cell id");
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Recorded> out(ids.size(), Recorded::kNew);
    std::vector<std::string> new_ids;
    std::vector<CellResult> new_results;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::string& id = ids[i];
        if (recorded_.results.find(id) != recorded_.results.end()) {
            // A slow host finishing after its lease was re-dealt, or an agent
            // replaying its outbox after a reconnect.
            ++summary_.duplicate_acks;
            XS_COUNT("sweep.service.duplicate_acks", 1);
            util::log_info("sweep: duplicate result for " + id +
                           (via.empty() ? "" : " from " + via) + " deduped");
            out[i] = Recorded::kDuplicate;
            continue;
        }
        // Recording a cell the run never dealt would poison the manifest for
        // resume.
        if (position(id) < 0) {
            out[i] = Recorded::kForeign;
            continue;
        }
        recorded_.results[id] = results[i];
        new_ids.push_back(id);
        new_results.push_back(results[i]);
    }
    if (new_ids.empty()) return out;
    manifest_.record(new_ids, new_results);  // durable before counted
    for (std::size_t i = 0; i < new_ids.size(); ++i) {
        const std::string& id = new_ids[i];
        const CellResult& r = new_results[i];
        XS_COUNT("sweep.cells.done", 1);
        ++summary_.cells_executed;
        ++settled_;
        util::log_info("sweep cell " + std::to_string(settled_) + "/" +
                       std::to_string(pending_.size()) + " " + id + ": acc " +
                       util::fmt(r.accuracy) + "% (" +
                       util::fmt(r.wall_ms, 0) + " ms" +
                       (via.empty() ? "" : ", " + via) + ")");
        const auto p = static_cast<std::size_t>(position(id));
        if (opts_.cell_budget_ms > 0.0 && r.wall_ms > opts_.cell_budget_ms &&
            overran_.insert(p).second) {
            ++summary_.cells_over_budget;
            util::log_warn("sweep cell " + id + " over budget: " +
                           util::fmt(r.wall_ms, 0) + " ms > " +
                           util::fmt(opts_.cell_budget_ms, 0) + " ms");
        }
    }
    return out;
}

void SweepLedger::quarantine(std::size_t p, std::int64_t attempts,
                             const std::string& reason) {
    const SweepCell& cell = cells_[pending_[p]];
    CellResult failed;
    failed.status = "failed";
    failed.reason = reason;
    failed.attempts = attempts;
    failed.backend = xbar::backend_name(cell.backend);
    std::lock_guard<std::mutex> lock(mu_);
    manifest_.record(cell.id(), failed);
    recorded_.results[cell.id()] = failed;
    ++settled_;
    util::log_warn("sweep: quarantined cell " + cell.id() + " after " +
                   std::to_string(attempts) + " attempt(s): " + reason);
}

void SweepLedger::lease_overrun(std::size_t p) {
    std::lock_guard<std::mutex> lock(mu_);
    if (overran_.insert(p).second) ++summary_.cells_over_budget;
}

void SweepLedger::progress(double elapsed_s, std::int64_t retries,
                           const std::string& hosts) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto failed = std::count_if(
        recorded_.results.begin(), recorded_.results.end(),
        [](const auto& kv) { return kv.second.failed(); });
    const double rate =
        elapsed_s > 0.0 ? static_cast<double>(settled_) / elapsed_s : 0.0;
    const double left = static_cast<double>(pending_.size()) -
                        static_cast<double>(settled_);
    util::log_info(
        "progress: " + std::to_string(settled_) + "/" +
        std::to_string(pending_.size()) + " cells (" +
        std::to_string(failed) + " failed, " + std::to_string(retries) +
        " retries, " + std::to_string(summary_.duplicate_acks) +
        " dup acks), " + util::fmt(rate, 2) + " cells/s, eta " +
        (rate > 0.0 ? util::fmt(left / rate, 0) + " s" : "--") + hosts);
}

SweepSummary SweepLedger::finish(const util::metrics::Snapshot& host_metrics) {
    std::lock_guard<std::mutex> lock(mu_);
    // A bad manifest stream (disk full, I/O error) silently drops resume
    // state — fail loudly rather than let --resume re-run finished cells.
    tensor::check(manifest_.ok(), "sweep: manifest writes to '" +
                                      summary_.manifest_path +
                                      "' failed; resume state is incomplete");
    tensor::check(!(opts_.cell_budget_abort && summary_.cells_over_budget > 0),
                  "sweep: " + std::to_string(summary_.cells_over_budget) +
                      " cell(s) exceeded the " +
                      util::fmt(opts_.cell_budget_ms, 0) +
                      " ms budget (--cell-budget-abort)");
    summary_.cells_pending = 0;
    for (const SweepCell& cell : cells_)
        if (recorded_.results.find(cell.id()) == recorded_.results.end())
            ++summary_.cells_pending;
    aggregate_and_write_csv(cells_, repeats_, recorded_.results, summary_);
    // Snapshot after aggregation so the aggregate phase timing is included;
    // a resumed run folds the prior record's totals in, so the manifest's
    // newest metrics record covers the whole sweep. The manifest copy is an
    // uncounted informational record.
    util::metrics::Snapshot snap = util::metrics::snapshot();
    util::metrics::merge(snap, host_metrics);
    merge_prior_metrics(recorded_.metrics_json, snap);
    summary_.metrics_json = util::metrics::to_json(snap);
    manifest_.record_metrics(summary_.metrics_json);
    return summary_;
}

SweepRunner::SweepRunner(core::ExperimentContext& ctx, SweepSpec spec,
                         SweepOptions opts)
    : ctx_(ctx), spec_(std::move(spec)), opts_(std::move(opts)) {}

SweepSummary SweepRunner::run() {
    SweepLedger ledger(ctx_, spec_, opts_);
    const std::vector<SweepCell>& cells = ledger.cells();
    const std::vector<std::size_t>& pending = ledger.pending();

    // Prepare every distinct model before sharding: training parallelizes
    // across the whole pool here, no shard ever stalls on another shard's
    // training, and a grid never retrains a shared model twice.
    prepare_models(ctx_, cells, pending);

    // Shard phase: `shards` concurrent executors each take the next
    // undealt work unit from a shared cursor until none are left, so no
    // shard idles while another still has a queue. Results do not depend
    // on the deal: seeds come from cell ids, and the ledger keeps its
    // pending list, the CSV and --resume in expansion order. Exceptions are
    // collected per shard and rethrown after the dispatch (an exception
    // escaping into the pool would terminate the process).
    const std::size_t nshards =
        opts_.shards > 0 ? static_cast<std::size_t>(opts_.shards)
                         : util::worker_count();
    std::vector<std::exception_ptr> errors(nshards);
    // Heartbeat: checked after every recorded unit, printed by whichever
    // shard wins the CAS once the interval elapses.
    const util::Stopwatch run_clock;
    std::atomic<std::int64_t> last_beat_ms{0};
    const std::int64_t beat_interval_ms =
        static_cast<std::int64_t>(opts_.progress_sec * 1000.0);
    // A unit's results go to the ledger as one durable append.
    const auto record = [&](const std::vector<const SweepCell*>& group,
                            const std::vector<CellResult>& results) {
        std::vector<std::string> ids;
        ids.reserve(group.size());
        for (const SweepCell* cell : group) ids.push_back(cell->id());
        ledger.record(ids, results);
        if (beat_interval_ms <= 0) return;
        const auto now_ms =
            static_cast<std::int64_t>(run_clock.seconds() * 1000.0);
        std::int64_t prev = last_beat_ms.load(std::memory_order_relaxed);
        if (now_ms - prev >= beat_interval_ms &&
            last_beat_ms.compare_exchange_strong(prev, now_ms))
            ledger.progress(static_cast<double>(now_ms) / 1000.0);
    };
    // Work units, dealt to the shards: a run of consecutive pending cells
    // executed by one run_sweep_group call. For inference it is one repeat
    // group, evaluated lane-batched; repeat is the innermost expansion
    // axis, so group membership is index / repeats. For nf-only sweeps it is
    // up to kNfUnitCells cells that share one mapping, with the cap lowered
    // so that there are never fewer units than shards. Cells solve cold and
    // keep their own seeds, so the aggregate CSV does not depend on how
    // cells are grouped.
    const std::size_t kNfUnitCells = 4;
    const std::size_t nf_cap = std::clamp<std::size_t>(
        pending.size() / nshards, 1, kNfUnitCells);
    const auto same_unit = [&](std::size_t a, std::size_t b) {
        if (spec_.nf_only)
            return b - a < nf_cap &&
                   same_mapping(cells[pending[a]], cells[pending[b]]);
        const auto repeats = static_cast<std::size_t>(spec_.repeats);
        return pending[a] / repeats == pending[b] / repeats;
    };
    struct Unit {
        std::size_t begin = 0;  // index into `pending`
        std::size_t count = 0;
    };
    std::vector<Unit> units;
    units.reserve(pending.size());
    for (std::size_t p = 0; p < pending.size();) {
        std::size_t q = p + 1;
        while (q < pending.size() && same_unit(p, q)) ++q;
        units.push_back(Unit{p, q - p});
        p = q;
    }
    // Deal the largest crossbars first: a tile's solve cost grows with its
    // size, so the big units start while every shard is busy and the small
    // ones fill the tail. A unit has one crossbar size; units of one size
    // keep expansion order.
    std::stable_sort(units.begin(), units.end(),
                     [&](const Unit& a, const Unit& b) {
                         return cells[pending[a.begin]].xbar_size >
                                cells[pending[b.begin]].xbar_size;
                     });
    std::atomic<std::size_t> next_unit{0};
    // When each executor found the cursor empty; one sample of the idle
    // tail per executor goes to sweep.shard_idle.ns after the dispatch.
    std::vector<std::chrono::steady_clock::time_point> idle_from(nshards);
    util::parallel_for_workers(
        0, nshards, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                try {
                    for (std::size_t u; (u = next_unit++) < units.size();) {
                        const Unit unit = units[u];
                        std::vector<const SweepCell*> group(unit.count);
                        for (std::size_t i = 0; i < unit.count; ++i)
                            group[i] = &cells[pending[unit.begin + i]];
                        record(group, run_sweep_group(ctx_, spec_, group));
                    }
                } catch (...) {
                    errors[s] = std::current_exception();
                }
                idle_from[s] = std::chrono::steady_clock::now();
            }
        });
    const auto shards_done = std::chrono::steady_clock::now();
    const util::metrics::Histogram idle =
        util::metrics::histogram("sweep.shard_idle.ns");
    for (const auto t : idle_from)
        idle.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(shards_done - t)
                .count()));
    for (const auto& error : errors)
        if (error) std::rethrow_exception(error);
    return ledger.finish();
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

bool print_summary(const SweepSummary& summary, const SweepOptions& opts,
                   const std::string& executor_line,
                   const std::string& metrics_out) {
    std::printf("\n%s\n", accuracy_vs_size_table(summary).c_str());
    std::printf("cells: %lld total, %lld executed, %lld resumed, %lld pending\n",
                static_cast<long long>(summary.cells_total),
                static_cast<long long>(summary.cells_executed),
                static_cast<long long>(summary.cells_resumed),
                static_cast<long long>(summary.cells_pending));
    if (!executor_line.empty()) std::printf("%s\n", executor_line.c_str());
    if (opts.cell_budget_ms > 0.0)
        std::printf("cells over %.0f ms budget: %lld\n", opts.cell_budget_ms,
                    static_cast<long long>(summary.cells_over_budget));
    if (summary.cells_failed > 0) {
        std::printf("quarantined cells: %lld\n",
                    static_cast<long long>(summary.cells_failed));
        for (const std::string& id : summary.failed_cells)
            std::printf("  failed: %s\n", id.c_str());
    }
    if (summary.manifest_lines_skipped > 0)
        std::printf("corrupt manifest lines skipped: %lld\n",
                    static_cast<long long>(summary.manifest_lines_skipped));
    std::printf("aggregate CSV: %s\nmanifest:      %s\n",
                summary.csv_path.c_str(), summary.manifest_path.c_str());

    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out, std::ios::binary);
        out << summary.metrics_json << '\n';
        out.close();
        if (!out) {
            util::log_error("failed to write --metrics-out=" + metrics_out);
            return false;
        }
        std::printf("metrics:       %s\n", metrics_out.c_str());
    }
    if (summary.cells_pending > 0)
        std::printf("(incomplete — rerun with --resume to finish)\n");
    return true;
}

}  // namespace xs::sweep
