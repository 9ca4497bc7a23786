// End-to-end SweepRunner coverage on a deliberately tiny grid: manifest
// resume after a mid-sweep interruption reproduces the uninterrupted
// aggregate CSV byte for byte, the CSV is invariant to the shard count, and
// the thread-safe ExperimentContext prepares each shared model exactly once.
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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

TEST(SweepRunner, AggregateCsvInvariantToShardCount) {
    // Self-sufficient under --gtest_filter: (re)generate the baseline here.
    SweepOptions baseline;
    baseline.csv_name = "full.csv";
    baseline.manifest_name = "full.jsonl";
    run(baseline);
    const std::string full = slurp(ctx().csv_path("full.csv"));
    ASSERT_FALSE(full.empty());
    for (const std::int64_t shards : {1, 3, 7}) {
        SweepOptions opts;
        opts.shards = shards;
        opts.csv_name = "shards" + std::to_string(shards) + ".csv";
        opts.manifest_name = "shards" + std::to_string(shards) + ".jsonl";
        const SweepSummary summary = run(opts);
        EXPECT_EQ(summary.cells_executed, 4);
        EXPECT_EQ(slurp(summary.csv_path), full) << shards << " shards";
    }
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

TEST(SweepRunner, AggregateCsvInvariantToRepeatBatching) {
    // The lane-batched group path (repeats of a grid point share one
    // compiled-instance set and one batched inference pass) must produce the
    // same aggregate CSV, byte for byte, as executing every cell as its own
    // one-lane unit — per-repeat FNV seeding plus cold-start solves make
    // every lane independent of the group it rides in. The manifest records
    // must agree too, field by field, bit for bit (everything except the
    // wall-clock timing). Repeat counts: 1 is a lone lane either way, 3 a
    // partial group, 8 two full groups through the evaluator's
    // producer/consumer pipeline.
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

        const auto seq_man = load_manifest(single.manifest_path);
        const auto bat_man = load_manifest(batched.manifest_path);
        ASSERT_EQ(seq_man.size(), static_cast<std::size_t>(repeats));
        ASSERT_EQ(bat_man.size(), seq_man.size());
        for (const auto& [id, seq] : seq_man) {
            SCOPED_TRACE(id);
            const auto it = bat_man.find(id);
            ASSERT_NE(it, bat_man.end());
            const CellResult& bat = it->second;
            EXPECT_EQ(bat.backend, seq.backend);
            EXPECT_EQ(bat.status, seq.status);
            EXPECT_EQ(bat.tiles, seq.tiles);
            EXPECT_EQ(bat.solver_failures, seq.solver_failures);
            // Doubles round-trip the manifest at 17 significant digits, so
            // equality here is bit equality of the recorded values.
            EXPECT_EQ(bat.accuracy, seq.accuracy);
            EXPECT_EQ(bat.nf_mean, seq.nf_mean);
            EXPECT_EQ(bat.energy_pj, seq.energy_pj);
            EXPECT_EQ(bat.software_acc, seq.software_acc);
        }
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

}  // namespace
}  // namespace xs::sweep
