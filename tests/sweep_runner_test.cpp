// End-to-end SweepRunner coverage on a deliberately tiny grid: manifest
// resume after a mid-sweep interruption reproduces the uninterrupted
// aggregate CSV byte for byte, the CSV is invariant to the shard count and
// to how cells group into work units (lane-batched repeats, nf-only units),
// and the thread-safe ExperimentContext prepares each shared model exactly
// once.
// The SweepLedger's recording policy is also driven directly, in process,
// with made-up results: what the coordinator's forked hosts would otherwise
// have to be made to hit on cue.
#include "core/experiments.h"
#include "map/matrix_view.h"
#include "sweep/runner.h"
#include "util/metrics.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

namespace xs::sweep {
namespace {

std::string test_dir() {
    const auto dir = std::filesystem::temp_directory_path() / "xs_sweep_runner";
    std::filesystem::create_directories(dir);
    return dir.string();
}

util::Flags tiny_flags() {
    static std::vector<std::string> args = {
        "--width=0.0625",  "--train-count=96", "--test-count=48",
        "--epochs=1",      "--batch=16",       "--sizes=16",
        "--out-dir=" + test_dir(), "--cache-dir=" + test_dir() + "/models"};
    std::vector<char*> argv;
    static const char* name = "sweep_runner_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

SweepSpec tiny_spec() {
    SweepSpec spec;
    spec.variants = {"vgg11"};
    spec.class_counts = {10};
    spec.prunes = {{prune::Method::kNone, 0.0},
                   {prune::Method::kChannelFilter, 0.8}};
    spec.mitigations = {{}};
    spec.sizes = {16};
    spec.repeats = 2;
    return spec;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// All tests share one context (and its trained models / dataset). The
// directory is wiped once per process so no test can compare against stale
// output from a previous binary version.
core::ExperimentContext& ctx() {
    static const bool cleaned = [] {
        std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                    "xs_sweep_runner");
        return true;
    }();
    (void)cleaned;
    static util::Flags flags = tiny_flags();
    static core::ExperimentContext context(flags);
    return context;
}

SweepSummary run(const SweepOptions& opts) {
    SweepRunner runner(ctx(), tiny_spec(), opts);
    return runner.run();
}

TEST(SweepRunner, UninterruptedBaseline) {
    SweepOptions opts;
    opts.csv_name = "full.csv";
    opts.manifest_name = "full.jsonl";
    const SweepSummary summary = run(opts);
    EXPECT_EQ(summary.cells_total, 4);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_pending, 0);
    ASSERT_EQ(summary.rows.size(), 2u);
    for (const auto& row : summary.rows) {
        EXPECT_TRUE(row.complete());
        EXPECT_EQ(row.repeats_done, 2);
        EXPECT_GT(row.tiles, 0);
        EXPECT_GT(row.energy_pj, 0.0);
    }
    // Two groups -> header + two data rows.
    std::istringstream csv(slurp(summary.csv_path));
    std::string line;
    int lines = 0;
    while (std::getline(csv, line)) ++lines;
    EXPECT_EQ(lines, 3);
}

TEST(SweepRunner, InterruptedThenResumedCsvIsByteIdentical) {
    SweepOptions baseline;
    baseline.csv_name = "full.csv";
    baseline.manifest_name = "full.jsonl";
    run(baseline);  // idempotent; ensures full.csv exists

    SweepOptions opts;
    opts.csv_name = "resumed.csv";
    opts.manifest_name = "resumed.jsonl";
    opts.max_cells = 2;  // "kill" the sweep after two cells
    const SweepSummary partial = run(opts);
    EXPECT_EQ(partial.cells_executed, 2);
    EXPECT_EQ(partial.cells_pending, 2);
    // Only complete groups reach the aggregate CSV.
    std::istringstream csv(slurp(partial.csv_path));
    std::string line;
    int lines = 0;
    while (std::getline(csv, line)) ++lines;
    EXPECT_EQ(lines, 2);  // header + the one finished group

    // Simulate a crash mid-manifest-write on top of the interruption.
    {
        std::ofstream out(partial.manifest_path,
                          std::ios::app | std::ios::binary);
        out << "{\"cell\":\"vgg11-c10/cf";
    }

    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed = run(opts);
    EXPECT_EQ(resumed.cells_resumed, 2);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_EQ(resumed.cells_pending, 0);

    const std::string full = slurp(ctx().csv_path("full.csv"));
    ASSERT_FALSE(full.empty());
    EXPECT_EQ(slurp(resumed.csv_path), full);
}

// Runs `spec` one cell per SweepRunner::run — max_cells = 1, then resume
// until nothing is pending — so every cell executes as its own work unit.
SweepSummary run_cell_by_cell(const SweepSpec& spec, const std::string& tag) {
    SweepOptions opts;
    opts.csv_name = tag + ".csv";
    opts.manifest_name = tag + ".jsonl";
    opts.max_cells = 1;
    SweepSummary summary = SweepRunner(ctx(), spec, opts).run();
    EXPECT_EQ(summary.cells_executed, 1);
    opts.resume = true;
    while (summary.cells_pending > 0) {
        summary = SweepRunner(ctx(), spec, opts).run();
        EXPECT_EQ(summary.cells_executed, 1);
    }
    return summary;
}

TEST(SweepRunner, AggregateCsvInvariantToShardCount) {
    // Two crossbar sizes, so the runner deals inference units out of
    // expansion order (largest crossbars first); the CSV must still equal
    // running every cell alone, at any shard count.
    SweepSpec spec = tiny_spec();
    spec.sizes = {16, 32};
    const std::string expected =
        slurp(run_cell_by_cell(spec, "shards_single").csv_path);
    ASSERT_FALSE(expected.empty());
    for (const std::int64_t shards : {1, 3, 7}) {
        SweepOptions opts;
        opts.shards = shards;
        opts.csv_name = "shards" + std::to_string(shards) + ".csv";
        opts.manifest_name = "shards" + std::to_string(shards) + ".jsonl";
        const SweepSummary summary = SweepRunner(ctx(), spec, opts).run();
        EXPECT_EQ(summary.cells_executed, 8);
        EXPECT_EQ(slurp(summary.csv_path), expected) << shards << " shards";
    }
}

// The sorted body lines of an aggregate CSV.
std::vector<std::string> sorted_rows(const std::string& csv_path) {
    std::istringstream lines(slurp(csv_path));
    std::vector<std::string> rows;
    std::string line;
    std::getline(lines, line);  // header
    while (std::getline(lines, line)) rows.push_back(line);
    std::sort(rows.begin(), rows.end());
    return rows;
}

// A union of products runs each cell once and aggregates the same rows as
// its parts run one by one; cut and resumed, it writes the same bytes.
TEST(SweepRunner, UnionRowsEqualPerPartRuns) {
    SweepSpec rearranged = tiny_spec();
    rearranged.mitigations = {{false, true}};
    SweepSpec overlap = tiny_spec();  // its 16x16 groups repeat the first part's
    overlap.sizes = {32, 16};
    SweepSpec spec = tiny_spec();
    spec.parts = {rearranged, overlap};

    std::set<std::string> expected;
    for (const SweepSpec& part : {tiny_spec(), rearranged, overlap}) {
        SweepOptions opts;
        opts.csv_name = "union_part" + std::to_string(expected.size()) + ".csv";
        opts.manifest_name = opts.csv_name + ".jsonl";
        for (std::string& row :
             sorted_rows(SweepRunner(ctx(), part, opts).run().csv_path))
            expected.insert(std::move(row));
    }
    SweepOptions opts;
    opts.csv_name = "union.csv";
    opts.manifest_name = "union.jsonl";
    const SweepSummary whole = SweepRunner(ctx(), spec, opts).run();
    EXPECT_EQ(whole.cells_executed, 12);
    EXPECT_EQ(sorted_rows(whole.csv_path),
              std::vector<std::string>(expected.begin(), expected.end()));

    opts.csv_name = "union_resumed.csv";
    opts.manifest_name = "union_resumed.jsonl";
    opts.max_cells = 5;  // inside the third group
    SweepRunner(ctx(), spec, opts).run();
    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed = SweepRunner(ctx(), spec, opts).run();
    EXPECT_EQ(resumed.cells_resumed, 5);
    EXPECT_EQ(resumed.cells_executed, 7);
    EXPECT_EQ(slurp(resumed.csv_path), slurp(whole.csv_path));
}

// The cell ids of a manifest's records, in file order.
std::vector<std::string> recorded_ids(const std::string& manifest_path) {
    std::istringstream lines(slurp(manifest_path));
    const std::string key = "{\"cell\":\"";
    std::vector<std::string> ids;
    for (std::string line; std::getline(lines, line);)
        if (line.compare(0, key.size(), key) == 0)
            ids.push_back(line.substr(key.size(),
                                      line.find('"', key.size()) - key.size()));
    return ids;
}

TEST(SweepRunner, DealsLargestCrossbarsFirst) {
    // One shard records cells in deal order: every 32×32 cell before any
    // 16×16 one, although expansion order puts a prune setting's 16×16
    // cells before its 32×32 ones. The CSV rows keep expansion order.
    SweepSpec spec = tiny_spec();
    spec.nf_only = true;
    spec.repeats = 1;
    spec.sizes = {16, 32};
    spec.parasitic_scales = {0.5, 1.0};
    SweepOptions opts;
    opts.shards = 1;
    opts.csv_name = "deal.csv";
    opts.manifest_name = "deal.jsonl";
    const SweepSummary summary = SweepRunner(ctx(), spec, opts).run();
    std::map<std::string, std::int64_t> size_of;
    for (const SweepCell& cell : spec.expand())
        size_of[cell.id()] = cell.xbar_size;
    const std::vector<std::string> ids = recorded_ids(summary.manifest_path);
    ASSERT_EQ(ids.size(), size_of.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        SCOPED_TRACE(ids[i]);
        ASSERT_EQ(size_of.count(ids[i]), 1u);
        EXPECT_EQ(size_of[ids[i]], i < ids.size() / 2 ? 32 : 16);
    }
    ASSERT_EQ(summary.rows.size(), 8u);
    for (std::size_t i = 0; i < summary.rows.size(); ++i)
        EXPECT_EQ(summary.rows[i].cell.xbar_size, i / 2 % 2 == 0 ? 16 : 32);
}

// Every manifest record of `a` and `b` agrees field by field (the wall-clock
// timing aside); doubles round-trip the manifest at 17 significant digits,
// so equality here is bit equality of the recorded values.
void expect_same_records(const std::string& a, const std::string& b,
                         std::size_t cells) {
    const auto ma = load_manifest(a);
    const auto mb = load_manifest(b);
    ASSERT_EQ(ma.size(), cells);
    ASSERT_EQ(mb.size(), cells);
    for (const auto& [id, x] : ma) {
        SCOPED_TRACE(id);
        const auto it = mb.find(id);
        ASSERT_NE(it, mb.end());
        const CellResult& y = it->second;
        EXPECT_EQ(x.backend, y.backend);
        EXPECT_EQ(x.status, y.status);
        EXPECT_EQ(x.tiles, y.tiles);
        EXPECT_EQ(x.solver_failures, y.solver_failures);
        EXPECT_EQ(x.accuracy, y.accuracy);
        EXPECT_EQ(x.nf_mean, y.nf_mean);
        EXPECT_EQ(x.energy_pj, y.energy_pj);
        EXPECT_EQ(x.software_acc, y.software_acc);
    }
}

TEST(SweepRunner, AggregateCsvInvariantToRepeatBatching) {
    // The lane-batched group path (repeats of a grid point share one
    // compiled-instance set and one batched inference pass) must produce the
    // same aggregate CSV, byte for byte, as executing every cell as its own
    // one-lane unit — per-repeat FNV seeding plus cold-start solves make
    // every lane independent of the group it rides in. The manifest records
    // must agree too, field by field, bit for bit (everything except the
    // wall-clock timing). Repeat counts: 1 is a lone lane either way, 3 a
    // partial group, 8 two full groups of four, run in turn.
    for (const std::int64_t repeats : {1, 3, 8}) {
        SCOPED_TRACE("repeats=" + std::to_string(repeats));
        const std::string tag = "rb" + std::to_string(repeats);
        SweepSpec spec = tiny_spec();
        spec.prunes = {{prune::Method::kNone, 0.0}};
        spec.repeats = repeats;

        const SweepSummary single = run_cell_by_cell(spec, tag + "_single");
        const std::string expected = slurp(single.csv_path);
        ASSERT_FALSE(expected.empty());

        SweepOptions grouped;
        grouped.csv_name = tag + "_grouped.csv";
        grouped.manifest_name = tag + "_grouped.jsonl";
        const SweepSummary batched = SweepRunner(ctx(), spec, grouped).run();
        EXPECT_EQ(batched.cells_executed, repeats);
        EXPECT_EQ(slurp(batched.csv_path), expected);
        expect_same_records(single.manifest_path, batched.manifest_path,
                            static_cast<std::size_t>(repeats));
    }

    // A partially-resumed group: after max_cells interrupts mid-group, the
    // remaining lanes batch as a smaller group with the same bytes.
    SweepSpec spec = tiny_spec();
    spec.prunes = {{prune::Method::kNone, 0.0}};
    spec.repeats = 3;
    const std::string expected =
        slurp(run_cell_by_cell(spec, "rb_resume_ref").csv_path);
    SweepOptions resume;
    resume.csv_name = "rb_resume.csv";
    resume.manifest_name = "rb_resume.jsonl";
    resume.max_cells = 1;  // interrupt with two of the group's lanes pending
    SweepRunner(ctx(), spec, resume).run();
    resume.max_cells = -1;
    resume.resume = true;
    const SweepSummary resumed = SweepRunner(ctx(), spec, resume).run();
    EXPECT_EQ(resumed.cells_resumed, 1);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_EQ(slurp(resumed.csv_path), expected);
}

TEST(SweepRunner, NfCsvInvariantToUnitGrouping) {
    // An nf-only unit measures up to four cells that share a mapping on one
    // MappingPlan and energy estimate; cells solve cold and keep their own
    // seeds, so grouping must not show in the CSV or in any manifest field.
    // Units here mix backends, so a unit that recorded its head cell's
    // backend for every cell fails the record comparison.
    SweepSpec spec = tiny_spec();
    spec.nf_only = true;
    spec.repeats = 1;
    spec.sizes = {16, 32};
    spec.parasitic_scales = {0.5, 1.0, 2.0};
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    const std::size_t cells = spec.expand().size();
    ASSERT_EQ(cells, 24u);

    const SweepSummary single = run_cell_by_cell(spec, "nfu_single");
    const std::string expected = slurp(single.csv_path);
    ASSERT_FALSE(expected.empty());
    for (const std::int64_t shards : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        SweepOptions opts;
        opts.shards = shards;
        opts.csv_name = "nfu_shards" + std::to_string(shards) + ".csv";
        opts.manifest_name = "nfu_shards" + std::to_string(shards) + ".jsonl";
        const SweepSummary grouped = SweepRunner(ctx(), spec, opts).run();
        EXPECT_EQ(grouped.cells_executed, static_cast<std::int64_t>(cells));
        EXPECT_EQ(slurp(grouped.csv_path), expected);
        expect_same_records(single.manifest_path, grouped.manifest_path, cells);
    }

    // Cut inside the first four-cell unit, then resume: the rest of that
    // mapping's cells form a unit of their own.
    SweepOptions resume;
    resume.shards = 1;
    resume.csv_name = "nfu_resume.csv";
    resume.manifest_name = "nfu_resume.jsonl";
    resume.max_cells = 3;
    SweepRunner(ctx(), spec, resume).run();
    resume.max_cells = -1;
    resume.resume = true;
    const SweepSummary resumed = SweepRunner(ctx(), spec, resume).run();
    EXPECT_EQ(resumed.cells_resumed, 3);
    EXPECT_EQ(resumed.cells_executed, static_cast<std::int64_t>(cells) - 3);
    EXPECT_EQ(slurp(resumed.csv_path), expected);
    expect_same_records(single.manifest_path, resumed.manifest_path, cells);
}

TEST(SweepRunner, NfOnlyCellsIgnoreSigma) {
    // NF is a parasitics metric: an nf-only cell runs with σ = 0 whatever
    // its sigma axis says, so cells that differ only in sigma (and hence in
    // seed) measure the same thing.
    SweepSpec spec = tiny_spec();
    spec.nf_only = true;
    spec.repeats = 1;
    spec.sigmas = {0.0, 0.1};
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    SweepOptions opts;
    opts.csv_name = "nf_sigma.csv";
    opts.manifest_name = "nf_sigma.jsonl";
    const SweepSummary summary = SweepRunner(ctx(), spec, opts).run();
    const std::vector<SweepCell> cells = spec.expand();
    ASSERT_EQ(cells.size(), 8u);
    const auto records = load_manifest(summary.manifest_path);
    ASSERT_EQ(records.size(), cells.size());
    int pairs = 0;
    for (const SweepCell& cell : cells) {
        if (cell.sigma == 0.0) continue;
        SweepCell twin = cell;
        twin.sigma = 0.0;
        SCOPED_TRACE(cell.id());
        const CellResult& a = records.at(cell.id());
        const CellResult& b = records.at(twin.id());
        EXPECT_GT(a.nf_mean, 0.0);
        EXPECT_EQ(a.nf_mean, b.nf_mean);
        EXPECT_EQ(a.energy_pj, b.energy_pj);
        EXPECT_EQ(a.tiles, b.tiles);
        EXPECT_EQ(a.solver_failures, b.solver_failures);
        ++pairs;
    }
    EXPECT_EQ(pairs, 4);
}

// Every work unit maps its model once: one MappingPlan serves the unit's
// evaluation or NF measurements, its energy estimate and its tile counts.
// map::extract_matrix counts each layer it unrolls in
// map.matrices_extracted, so a run on cached models raises the counter by
// units × mappable layers, for inference and nf-only units alike.
TEST(SweepRunner, EachUnitMapsItsModelOnce) {
    const auto extracted = [] {
        const util::metrics::Snapshot snap = util::metrics::snapshot();
        const auto it = snap.counters.find("map.matrices_extracted");
        return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t layers =
        map::mappable_layers(
            ctx().prepared(ctx().spec("vgg11", 10, prune::Method::kNone, 0.0))
                .model)
            .size();
    ASSERT_GT(layers, 0u);

    // Two grid points of two repeats: two lane-batched units.
    const SweepSpec inference = tiny_spec();
    // Two prunes × three parasitic scales on one shard: each prune's three
    // cells share a mapping and run as one unit.
    SweepSpec nf = tiny_spec();
    nf.nf_only = true;
    nf.repeats = 1;
    nf.parasitic_scales = {0.5, 1.0, 2.0};
    for (const SweepSpec& spec : {inference, nf}) {
        SCOPED_TRACE(spec.nf_only ? "nf-only" : "inference");
        const std::vector<SweepCell> cells = spec.expand();
        std::vector<std::size_t> all(cells.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        prepare_models(ctx(), cells, all);

        SweepOptions opts;
        opts.shards = 1;
        opts.csv_name = spec.nf_only ? "maps_nf.csv" : "maps_inference.csv";
        opts.manifest_name =
            spec.nf_only ? "maps_nf.jsonl" : "maps_inference.jsonl";
        const std::uint64_t before = extracted();
        const SweepSummary summary = SweepRunner(ctx(), spec, opts).run();
        EXPECT_EQ(summary.cells_executed, static_cast<std::int64_t>(cells.size()));
        const std::uint64_t units = 2;
        EXPECT_EQ(extracted() - before, units * layers);
    }
}

TEST(SweepRunner, ResumeRefusesDifferentConfiguration) {
    SweepOptions opts;
    opts.csv_name = "fp.csv";
    opts.manifest_name = "fp.jsonl";
    opts.max_cells = 1;
    run(opts);

    // Same out-dir, different training config: the recorded cells came from
    // another experiment, so resuming must fail loudly.
    std::vector<std::string> args = {
        "--width=0.0625",  "--train-count=96", "--test-count=48",
        "--epochs=2",      "--batch=16",       "--sizes=16",
        "--out-dir=" + test_dir(), "--cache-dir=" + test_dir() + "/models"};
    std::vector<char*> argv;
    static const char* name = "sweep_runner_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    const util::Flags flags(static_cast<int>(argv.size()), argv.data());
    core::ExperimentContext other(flags);

    opts.resume = true;
    opts.max_cells = -1;
    SweepRunner runner(other, tiny_spec(), opts);
    EXPECT_THROW(runner.run(), std::exception);

    // Same experiment, but recorded under warm-start solves: the config line
    // says "/warm" where every run now records "/cold". Such cells came from
    // a solve mode that no longer exists, so resuming must fail too.
    opts.csv_name = "fp_warm.csv";
    opts.manifest_name = "fp_warm.jsonl";
    opts.resume = false;
    opts.max_cells = 1;
    const SweepSummary fresh = run(opts);
    std::string manifest = slurp(fresh.manifest_path);
    const auto cold = manifest.find("/cold");
    ASSERT_LT(cold, manifest.find('\n')) << "no /cold in the config line";
    manifest.replace(cold, 5, "/warm");
    {
        std::ofstream out(fresh.manifest_path,
                          std::ios::binary | std::ios::trunc);
        out << manifest;
    }
    opts.resume = true;
    opts.max_cells = -1;
    EXPECT_THROW(run(opts), std::exception);
}

TEST(SweepRunner, BackendAxisRecordsBackendAndFastTracksCircuit) {
    SweepOptions opts;
    opts.csv_name = "backends.csv";
    opts.manifest_name = "backends.jsonl";
    SweepSpec spec = tiny_spec();
    spec.prunes = {{prune::Method::kNone, 0.0}};
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    SweepRunner runner(ctx(), spec, opts);
    const SweepSummary summary = runner.run();

    ASSERT_EQ(summary.rows.size(), 2u);
    const GroupRow& circuit = summary.rows[0];
    const GroupRow& fast = summary.rows[1];
    ASSERT_EQ(circuit.cell.backend, xbar::BackendKind::kCircuit);
    ASSERT_EQ(fast.cell.backend, xbar::BackendKind::kFast);
    EXPECT_TRUE(circuit.complete() && fast.complete());
    // Shared per-cell seeds make the gap pure surrogate error; on the tiny
    // 48-image test split one image is ≈2.1 pp, so allow two flips.
    EXPECT_NEAR(fast.acc_mean, circuit.acc_mean, 4.2);
    EXPECT_NEAR(fast.nf_mean, circuit.nf_mean,
                0.25 * circuit.nf_mean + 1e-3);

    // Backend lands in the manifest lines and the aggregate CSV column.
    const auto manifest = load_manifest(summary.manifest_path);
    ASSERT_EQ(manifest.size(), 4u);
    int fast_cells = 0;
    for (const auto& [id, r] : manifest) {
        EXPECT_TRUE(r.backend == "circuit" || r.backend == "fast") << id;
        if (r.backend == "fast") ++fast_cells;
    }
    EXPECT_EQ(fast_cells, 2);
    const std::string csv = slurp(summary.csv_path);
    EXPECT_NE(csv.find(",backend,"), std::string::npos);
    EXPECT_NE(csv.find("fast"), std::string::npos);
}

TEST(SweepRunner, CellBudgetCountsWarnsAndOptionallyAborts) {
    SweepOptions opts;
    opts.csv_name = "budget.csv";
    opts.manifest_name = "budget.jsonl";
    opts.cell_budget_ms = 1e-3;  // everything overruns
    const SweepSummary summary = run(opts);
    EXPECT_EQ(summary.cells_over_budget, summary.cells_executed);

    opts.manifest_name = "budget_abort.jsonl";
    opts.csv_name = "budget_abort.csv";
    opts.cell_budget_abort = true;
    SweepRunner aborting(ctx(), tiny_spec(), opts);
    EXPECT_THROW(aborting.run(), std::exception);

    // The abort happens only after every dispatched cell is recorded: a
    // budget-failed sweep resumes with nothing lost.
    opts.cell_budget_abort = false;
    opts.cell_budget_ms = 0.0;
    opts.resume = true;
    SweepRunner resumed(ctx(), tiny_spec(), opts);
    const SweepSummary after = resumed.run();
    EXPECT_EQ(after.cells_resumed, after.cells_total);
    EXPECT_EQ(after.cells_executed, 0);
    EXPECT_EQ(after.cells_over_budget, 0);
}

TEST(SweepRunner, DryRunReportListsGridWithoutExecuting) {
    SweepSpec spec = tiny_spec();
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    const std::string report = dry_run_report(ctx(), spec);
    EXPECT_NE(report.find("cells: 8 (4 groups x 2 repeats)"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("models to prepare: 2"), std::string::npos) << report;
    EXPECT_NE(report.find("backends = circuit,fast"), std::string::npos)
        << report;
    EXPECT_NE(report.find("prune = unpruned,cf:0.8"), std::string::npos)
        << report;
}

TEST(SweepRunner, ConcurrentPreparedReturnsOneModelInstance) {
    const core::ModelSpec spec =
        ctx().spec("vgg11", 10, prune::Method::kNone, 0.0);
    std::vector<core::PreparedModel*> seen(8, nullptr);
    util::parallel_for(0, seen.size(), [&](std::size_t i) {
        seen[i] = &ctx().prepared(spec);
    });
    for (const auto* model : seen) EXPECT_EQ(model, seen[0]);
}

// ---- SweepLedger, driven directly ----

SweepOptions ledger_opts(const std::string& name) {
    SweepOptions opts;
    opts.csv_name = name + ".csv";
    opts.manifest_name = name + ".jsonl";
    return opts;
}

// A made-up ok result: the ledger records whatever it is given.
CellResult made_up(double accuracy, double wall_ms = 10.0) {
    CellResult r;
    r.accuracy = accuracy;
    r.nf_mean = 0.01;
    r.tiles = 4;
    r.wall_ms = wall_ms;
    return r;
}

int manifest_lines_of(const std::string& path, const std::string& id) {
    std::istringstream in(slurp(path));
    int n = 0;
    for (std::string line; std::getline(in, line);)
        if (line.find("\"cell\":\"" + id + "\"") != std::string::npos) ++n;
    return n;
}

TEST(SweepLedger, RecordingACellTwiceKeepsTheFirstAndCountsOneDuplicate) {
    SweepLedger ledger(ctx(), tiny_spec(), ledger_opts("ledger_dup"));
    const std::string id = ledger.cells()[ledger.pending()[0]].id();
    EXPECT_EQ(ledger.record(id, made_up(50.0)), SweepLedger::Recorded::kNew);
    EXPECT_EQ(ledger.record(id, made_up(20.0)),
              SweepLedger::Recorded::kDuplicate);
    EXPECT_EQ(ledger.record("vgg11-c10/no-such-cell/r0", made_up(20.0)),
              SweepLedger::Recorded::kForeign);
    // A work unit's results in one append keep the same rules, also for a
    // cell repeated inside the unit.
    const std::string id2 = ledger.cells()[ledger.pending()[1]].id();
    using R = SweepLedger::Recorded;
    EXPECT_EQ(ledger.record({id, id2, id2, "vgg11-c10/no-such-cell/r1"},
                            {made_up(30.0), made_up(60.0), made_up(70.0),
                             made_up(80.0)}),
              (std::vector<R>{R::kDuplicate, R::kNew, R::kDuplicate,
                              R::kForeign}));
    const SweepSummary summary = ledger.finish();
    EXPECT_EQ(summary.cells_executed, 2);
    EXPECT_EQ(summary.duplicate_acks, 3);
    EXPECT_EQ(summary.cells_pending, 2);
    EXPECT_EQ(manifest_lines_of(summary.manifest_path, id), 1);
    EXPECT_EQ(manifest_lines_of(summary.manifest_path, id2), 1);
    const auto manifest = load_manifest(summary.manifest_path);
    EXPECT_EQ(manifest.size(), 2u);
    EXPECT_EQ(manifest.at(id).accuracy, 50.0);  // the first append won
    EXPECT_EQ(manifest.at(id2).accuracy, 60.0);
}

TEST(SweepLedger, LeaseOverrunThenSlowResultCountsOneOverrun) {
    SweepOptions opts = ledger_opts("ledger_overrun");
    opts.cell_budget_ms = 100.0;
    SweepLedger ledger(ctx(), tiny_spec(), opts);
    const std::vector<std::size_t>& pending = ledger.pending();
    ledger.lease_overrun(0);
    ledger.lease_overrun(0);  // expired again after its re-deal
    ledger.record(ledger.cells()[pending[0]].id(), made_up(50.0, 400.0));
    // A slow result with no expiry before it is an overrun of its own.
    ledger.record(ledger.cells()[pending[1]].id(), made_up(50.0, 400.0));
    ledger.record(ledger.cells()[pending[2]].id(), made_up(50.0, 40.0));
    EXPECT_EQ(ledger.finish().cells_over_budget, 2);
}

TEST(SweepLedger, QuarantineIsSkippedOnResumeAndKeptOutOfTheCsv) {
    SweepOptions opts = ledger_opts("ledger_quarantine");
    std::string quarantined_id;
    {
        SweepLedger ledger(ctx(), tiny_spec(), opts);
        ASSERT_EQ(ledger.pending().size(), 4u);
        quarantined_id = ledger.cells()[ledger.pending()[1]].id();
        ledger.quarantine(1, 3, "worker killed by signal 9");
        for (const std::size_t p : {0, 2, 3})
            ledger.record(ledger.cells()[ledger.pending()[p]].id(),
                          made_up(40.0 + static_cast<double>(p)));
        const SweepSummary summary = ledger.finish();
        EXPECT_EQ(summary.cells_executed, 3);
        EXPECT_EQ(summary.cells_failed, 1);
    }
    const auto manifest = load_manifest(ctx().csv_path(opts.manifest_name));
    ASSERT_EQ(manifest.count(quarantined_id), 1u);
    EXPECT_EQ(manifest.at(quarantined_id).status, "failed");
    EXPECT_EQ(manifest.at(quarantined_id).attempts, 3);

    opts.resume = true;
    SweepLedger resumed(ctx(), tiny_spec(), opts);
    EXPECT_TRUE(resumed.pending().empty());  // the quarantine is settled
    EXPECT_EQ(resumed.position(quarantined_id), -1);
    const SweepSummary summary = resumed.finish();
    EXPECT_EQ(summary.cells_resumed, 4);
    EXPECT_EQ(summary.cells_pending, 0);
    EXPECT_EQ(summary.cells_failed, 1);
    ASSERT_EQ(summary.failed_cells.size(), 1u);
    EXPECT_EQ(summary.failed_cells[0], quarantined_id);
    // The quarantined cell's group is incomplete and off the CSV: header
    // plus the other group.
    ASSERT_EQ(summary.rows.size(), 2u);
    EXPECT_FALSE(summary.rows[0].complete());
    EXPECT_EQ(summary.rows[0].repeats_failed, 1);
    EXPECT_TRUE(summary.rows[1].complete());
    std::istringstream csv(slurp(summary.csv_path));
    int lines = 0;
    for (std::string line; std::getline(csv, line);) ++lines;
    EXPECT_EQ(lines, 2);
}

std::uint64_t counter(const SweepSummary& summary, const std::string& name) {
    util::metrics::Snapshot snap;
    EXPECT_TRUE(util::metrics::from_json(summary.metrics_json, snap));
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(SweepLedger, CellsDoneCountsTheOkRecords) {
    util::metrics::reset();
    SweepLedger ledger(ctx(), tiny_spec(), ledger_opts("ledger_done"));
    const auto id = [&](std::size_t p) {
        return ledger.cells()[ledger.pending()[p]].id();
    };
    ledger.record(id(0), made_up(50.0));
    ledger.record(id(0), made_up(50.0));  // a duplicate is not done twice
    ledger.quarantine(1, 3, "poison");    // nor is a quarantine done at all
    ledger.record(id(2), made_up(50.0));
    const SweepSummary summary = ledger.finish();
    std::uint64_t ok = 0;
    for (const auto& [cell, r] : load_manifest(summary.manifest_path))
        if (!r.failed()) ++ok;
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(counter(summary, "sweep.cells.done"), ok);
}

// A resumed run folds the manifest's prior metrics record into its own, so
// the newest record carries the whole sweep's totals; an unparsable prior
// record only restarts the totals — telemetry never fails a sweep.
TEST(SweepLedger, ResumeFoldsThePriorMetricsRecordAndSurvivesGarbage) {
    util::metrics::Snapshot prior;
    prior.counters["sweep.cells.done"] = 2;
    prior.counters["only.in.prior"] = 7;
    for (const bool garbage : {false, true}) {
        SCOPED_TRACE(garbage ? "garbage" : "prior record");
        SweepOptions opts = ledger_opts("ledger_prior");
        {
            ManifestWriter w(ctx().csv_path(opts.manifest_name), false);
            w.record_config(sweep_config_fingerprint(ctx(), tiny_spec()));
            w.record_metrics(garbage ? "{not json}"
                                     : util::metrics::to_json(prior));
            ASSERT_TRUE(w.ok());
        }
        util::metrics::reset();  // a restarted process
        opts.resume = true;
        SweepLedger ledger(ctx(), tiny_spec(), opts);
        ASSERT_EQ(ledger.pending().size(), 4u);
        for (const std::size_t p : {0, 1})
            ledger.record(ledger.cells()[ledger.pending()[p]].id(),
                          made_up(50.0));
        const SweepSummary summary = ledger.finish();
        EXPECT_EQ(counter(summary, "sweep.cells.done"), garbage ? 2u : 4u);
        EXPECT_EQ(counter(summary, "only.in.prior"), garbage ? 0u : 7u);
    }
}

}  // namespace
}  // namespace xs::sweep
