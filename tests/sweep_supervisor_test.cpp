// Process-supervision coverage (sweep/supervisor.h) on the tiny grid, with
// real faults injected through XS_FAULT: worker crashes are respawned and
// re-dealt, hung cells are watchdog-SIGKILLed, poison cells are quarantined
// instead of aborting, torn manifest records are skipped and re-executed —
// and through all of it the aggregate CSV stays byte-identical to an
// uninterrupted single-process run (minus quarantined cells' groups).
//
// This binary is its own worker: it provides main() (CMake links it without
// gtest_main) and re-execs itself with --worker, exactly like the
// sweep_runner driver does in production.
#include "core/experiments.h"
#include "sweep/pool.h"
#include "sweep/runner.h"
#include "sweep/supervisor.h"
#include "util/faultinject.h"
#include "util/flags.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace xs::sweep {
namespace {

std::string test_dir() {
    const auto dir =
        std::filesystem::temp_directory_path() / "xs_sweep_supervisor";
    std::filesystem::create_directories(dir);
    return dir.string();
}

// One flag list drives everything: the test-side context/spec AND the
// worker command line, so the coordinator and its worker processes parse
// identical configurations by construction.
std::vector<std::string> base_args() {
    return {"--width=0.0625",
            "--train-count=96",
            "--test-count=48",
            "--epochs=1",
            "--batch=16",
            "--sizes=16",
            "--prune=none,cf:0.8",
            "--sweep-repeats=2",
            "--out-dir=" + test_dir(),
            "--cache-dir=" + test_dir() + "/models"};
}

util::Flags tiny_flags() {
    static std::vector<std::string> args = base_args();
    std::vector<char*> argv;
    static const char* name = "sweep_supervisor_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

core::ExperimentContext& ctx() {
    static const bool cleaned = [] {
        std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                    "xs_sweep_supervisor");
        return true;
    }();
    (void)cleaned;
    static util::Flags flags = tiny_flags();
    static core::ExperimentContext context(flags);
    return context;
}

SweepSpec tiny_spec() { return parse_sweep_spec(tiny_flags()); }

SupervisorOptions sup_opts() {
    SupervisorOptions sup;
    sup.workers = 2;
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    EXPECT_GT(n, 0);
    exe[n] = '\0';
    sup.worker_cmd.push_back(exe);
    for (const std::string& a : base_args()) sup.worker_cmd.push_back(a);
    sup.retry_backoff_ms = 20.0;  // keep retry latency out of test time
    return sup;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// Uninterrupted single-process reference run (once per process): the bytes
// every supervised variant must reproduce.
const std::string& baseline_csv() {
    static const std::string csv = [] {
        SweepOptions opts;
        opts.csv_name = "baseline.csv";
        opts.manifest_name = "baseline.jsonl";
        SweepRunner runner(ctx(), tiny_spec(), opts);
        const SweepSummary summary = runner.run();
        EXPECT_EQ(summary.cells_executed, 4);
        return slurp(summary.csv_path);
    }();
    EXPECT_FALSE(csv.empty());
    return csv;
}

// Export a fault plan to the *worker processes* via the environment. The
// coordinator's own (cached) plan is cleared so only children act on it.
struct EnvFault {
    explicit EnvFault(const std::string& plan) {
        ::setenv("XS_FAULT", plan.c_str(), 1);
        util::fault::install_plan("");
    }
    ~EnvFault() {
        ::unsetenv("XS_FAULT");
        util::fault::install_plan("");
    }
};

std::string drop_lines_containing(const std::string& text,
                                  const std::string& needle) {
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line))
        if (line.find(needle) == std::string::npos) out += line + "\n";
    return out;
}

TEST(SweepSupervisor, MatchesSingleProcessByteForByte) {
    SweepOptions opts;
    opts.csv_name = "sup_clean.csv";
    opts.manifest_name = "sup_clean.jsonl";
    const SweepSummary summary =
        run_supervised(ctx(), tiny_spec(), opts, sup_opts());
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.worker_restarts, 0);
    EXPECT_EQ(summary.watchdog_kills, 0);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
}

TEST(SweepSupervisor, CrashedWorkerIsRespawnedAndCellRedealt) {
    baseline_csv();
    EnvFault fault("crash@cell:2");  // SIGKILL mid-cell, first attempt only
    SweepOptions opts;
    opts.csv_name = "sup_crash.csv";
    opts.manifest_name = "sup_crash.jsonl";
    const SweepSummary summary =
        run_supervised(ctx(), tiny_spec(), opts, sup_opts());
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.worker_restarts, 1);
    // The retried cell recomputes the same deterministic bytes.
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());

    // The recovered cell's manifest line records the extra attempt.
    const auto manifest = load_manifest(summary.manifest_path);
    ASSERT_EQ(manifest.size(), 4u);
    std::int64_t retried = 0;
    for (const auto& [id, r] : manifest) {
        EXPECT_EQ(r.status, "ok") << id;
        if (r.attempts > 1) ++retried;
    }
    EXPECT_EQ(retried, 1);
}

TEST(SweepSupervisor, KilledMidSweepResumesByteIdentical) {
    baseline_csv();
    SweepOptions opts;
    opts.csv_name = "sup_resume.csv";
    opts.manifest_name = "sup_resume.jsonl";
    opts.max_cells = 2;  // deterministic mid-sweep "kill"
    const SweepSummary partial =
        run_supervised(ctx(), tiny_spec(), opts, sup_opts());
    EXPECT_EQ(partial.cells_executed, 2);
    EXPECT_EQ(partial.cells_pending, 2);

    // Resume under supervision with a crash injected into one of the two
    // remaining cells: kill + resume + retry, one CSV, same bytes.
    EnvFault fault("crash@cell:3");
    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed =
        run_supervised(ctx(), tiny_spec(), opts, sup_opts());
    EXPECT_EQ(resumed.cells_resumed, 2);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_GE(resumed.worker_restarts, 1);
    EXPECT_EQ(slurp(resumed.csv_path), baseline_csv());
}

TEST(SweepSupervisor, WatchdogKillsHungWorkerAndSweepRecovers) {
    baseline_csv();
    EnvFault fault("hang@cell:1");  // blocks forever on the first attempt
    SweepOptions opts;
    opts.csv_name = "sup_hang.csv";
    opts.manifest_name = "sup_hang.jsonl";
    opts.cell_budget_ms = 5000.0;  // watchdog deadline (tiny cells run ≪ 5 s)
    const SweepSummary summary =
        run_supervised(ctx(), tiny_spec(), opts, sup_opts());
    EXPECT_GE(summary.watchdog_kills, 1);
    EXPECT_GE(summary.worker_restarts, 1);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    // A watchdog kill is a budget overrun: the supervised path must count
    // it into cells_over_budget exactly like the in-process runner counts
    // a slow cell (it used to report 0 here).
    EXPECT_GE(summary.cells_over_budget, 1);
    EXPECT_GE(summary.cell_retries, 1);  // the killed cell was re-dealt
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
}

// The shutdown telemetry handshake end to end: every worker answers
// kShutdown with a kMetrics frame, the coordinator merges the frames with
// its own snapshot, and the result lands in SweepSummary::metrics_json plus
// an uncounted {"metrics":...} manifest record that the resume loader
// skips without flagging corruption.
TEST(SweepSupervisor, MetricsSnapshotMergesWorkersAndCoordinator) {
    baseline_csv();
    util::metrics::reset();  // drop earlier tests' coordinator-side counts
    SweepOptions opts;
    opts.csv_name = "sup_metrics.csv";
    opts.manifest_name = "sup_metrics.jsonl";
    const SweepSummary summary =
        run_supervised(ctx(), tiny_spec(), opts, sup_opts());
    EXPECT_EQ(summary.cells_executed, 4);

    ASSERT_FALSE(summary.metrics_json.empty());
    util::metrics::Snapshot snap;
    ASSERT_TRUE(util::metrics::from_json(summary.metrics_json, snap));
    // Coordinator-side: one sweep.cells.done per durable ack.
    EXPECT_EQ(snap.counters.at("sweep.cells.done"), 4u);
    // Worker-side, summed over both workers' kMetrics frames.
    EXPECT_EQ(snap.counters.at("sweep.cells.executed"), 4u);
    // Hot-path telemetry only the workers produced — proof the wire merge
    // actually folded their frames in (the coordinator ran no solves after
    // the reset).
    EXPECT_GT(snap.counters.at("xbar.solve.solves"), 0u);
    EXPECT_EQ(snap.histograms.at("sweep.cell.ns").count, 4u);

    // The manifest carries the record, and reloads without corruption.
    const std::string raw = slurp(summary.manifest_path);
    EXPECT_NE(raw.find("{\"metrics\":{"), std::string::npos);
    const ManifestLoad load = load_manifest_file(summary.manifest_path);
    EXPECT_EQ(load.skipped_lines, 0);
    EXPECT_EQ(load.results.size(), 4u);
}

TEST(SweepSupervisor, PoisonCellIsQuarantinedNotFatal) {
    baseline_csv();
    EnvFault fault("fail@cell:3*");  // throws on every attempt
    SweepOptions opts;
    opts.csv_name = "sup_poison.csv";
    opts.manifest_name = "sup_poison.jsonl";
    SupervisorOptions sup = sup_opts();
    sup.max_cell_retries = 1;  // 2 attempts, then quarantine
    const SweepSummary summary =
        run_supervised(ctx(), tiny_spec(), opts, sup);
    EXPECT_EQ(summary.cells_executed, 3);
    EXPECT_EQ(summary.cells_failed, 1);
    const std::vector<SweepCell> cells = tiny_spec().expand();
    ASSERT_EQ(summary.failed_cells.size(), 1u);
    EXPECT_EQ(summary.failed_cells[0], cells[3].id());

    // The CSV is the baseline minus the poisoned cell's (cf) group — the
    // healthy groups' bytes are untouched.
    EXPECT_EQ(slurp(summary.csv_path),
              drop_lines_containing(baseline_csv(), ",cf,"));

    // The manifest records the failure taxonomy.
    const auto manifest = load_manifest(summary.manifest_path);
    const CellResult& failed = manifest.at(cells[3].id());
    EXPECT_TRUE(failed.failed());
    EXPECT_EQ(failed.attempts, 2);
    EXPECT_NE(failed.reason.find("injected fault"), std::string::npos);

    // A resume skips the quarantined cell (recorded = settled) instead of
    // hammering it again.
    opts.resume = true;
    const SweepSummary again = run_supervised(ctx(), tiny_spec(), opts, sup);
    EXPECT_EQ(again.cells_resumed, 4);
    EXPECT_EQ(again.cells_executed, 0);
    EXPECT_EQ(again.cells_failed, 1);
}

TEST(SweepSupervisor, PoolExhaustionAbortsResumably) {
    baseline_csv();
    EnvFault fault("crash@cell:0*");  // every attempt crashes the worker
    SweepOptions opts;
    opts.csv_name = "sup_dead.csv";
    opts.manifest_name = "sup_dead.jsonl";
    SupervisorOptions sup = sup_opts();
    sup.workers = 1;
    sup.max_worker_restarts = 0;  // first death retires the only slot
    EXPECT_THROW(run_supervised(ctx(), tiny_spec(), opts, sup),
                 std::exception);
}

// Retired slots shrink the in-process host, so the coordinator never deals
// a cell that no live worker can start. Here the worker on cell 0 crashes
// and retires while the other hangs on cell 1 until its lease runs out and
// it is killed too. Only those two cells ran, so only they are quarantined;
// cells 2 and 3 stay unrecorded for the --resume the abort asks for.
TEST(SweepSupervisor, PoolDeathQuarantinesOnlyCellsThatRan) {
    baseline_csv();
    EnvFault fault("crash@cell:0*,hang@cell:1");
    SweepOptions opts;
    opts.csv_name = "sup_shrink.csv";
    opts.manifest_name = "sup_shrink.jsonl";
    opts.cell_budget_ms = 1000.0;
    SupervisorOptions sup = sup_opts();  // two workers, both dealt at once
    sup.max_worker_restarts = 0;
    sup.max_cell_retries = 0;
    EXPECT_THROW(run_supervised(ctx(), tiny_spec(), opts, sup),
                 std::exception);

    const std::vector<SweepCell> cells = tiny_spec().expand();
    const auto manifest =
        load_manifest(ctx().csv_path(opts.manifest_name));
    EXPECT_EQ(manifest.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_TRUE(manifest.count(cells[i].id()) == 1 &&
                    manifest.at(cells[i].id()).failed())
            << cells[i].id();
}

// Each forked worker's share of the parent's CPUs: contiguous slices that
// partition the mask while there are no more workers than CPUs, one CPU
// each, round-robin, past that.
TEST(SweepSupervisor, WorkerSlotsGetDisjointCpuSlices) {
    using Cpus = std::vector<int>;
    const Cpus four = {0, 1, 2, 3};
    EXPECT_EQ(slot_cpus(four, 0, 1), four);
    EXPECT_EQ(slot_cpus(four, 0, 2), (Cpus{0, 1}));
    EXPECT_EQ(slot_cpus(four, 1, 2), (Cpus{2, 3}));
    EXPECT_EQ(slot_cpus(four, 0, 3), (Cpus{0}));
    EXPECT_EQ(slot_cpus(four, 1, 3), (Cpus{1}));
    EXPECT_EQ(slot_cpus(four, 2, 3), (Cpus{2, 3}));
    // CPU ids are the mask's, not 0..C-1.
    EXPECT_EQ(slot_cpus({1, 3, 5, 7, 9, 11}, 1, 4), (Cpus{3, 5}));
    // More workers than CPUs.
    for (std::size_t k = 0; k < 5; ++k)
        EXPECT_EQ(slot_cpus({5, 7}, k, 5), (Cpus{k % 2 == 0 ? 5 : 7})) << k;
    // An unreadable mask leaves the worker on the parent's.
    EXPECT_TRUE(slot_cpus({}, 0, 2).empty());
    // Every split of 7 CPUs among 1..7 workers partitions them.
    Cpus seven(7);
    for (int c = 0; c < 7; ++c) seven[static_cast<std::size_t>(c)] = 10 + c;
    for (std::size_t n = 1; n <= seven.size(); ++n) {
        Cpus joined;
        for (std::size_t k = 0; k < n; ++k) {
            const Cpus slice = slot_cpus(seven, k, n);
            EXPECT_FALSE(slice.empty()) << k << " of " << n;
            joined.insert(joined.end(), slice.begin(), slice.end());
        }
        EXPECT_EQ(joined, seven) << n << " workers";
    }
}

TEST(SweepSupervisor, TornManifestRecordIsSkippedAndReExecuted) {
    baseline_csv();
    // Tear the 2nd data record mid-append (single-process runner, so the
    // fault plan must live in *this* process): the 3rd record glues onto
    // the torn half — classic mid-line corruption, not just a lost tail.
    util::fault::install_plan("truncate-manifest@record:1");
    SweepOptions opts;
    opts.csv_name = "torn.csv";
    opts.manifest_name = "torn.jsonl";
    {
        SweepRunner runner(ctx(), tiny_spec(), opts);
        runner.run();
    }
    util::fault::install_plan("");

    opts.resume = true;
    SweepRunner resumed(ctx(), tiny_spec(), opts);
    const SweepSummary summary = resumed.run();
    // One physical line lost two records: both cells re-execute.
    EXPECT_EQ(summary.manifest_lines_skipped, 1);
    EXPECT_EQ(summary.cells_resumed, 2);
    EXPECT_EQ(summary.cells_executed, 2);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
}

}  // namespace
}  // namespace xs::sweep

// Own main: a --worker invocation never reaches gtest — it becomes a sweep
// worker process wired to the pipes the coordinator passed down.
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--worker") {
            const xs::util::Flags flags(argc, argv);
            xs::core::ExperimentContext ctx(flags);
            const xs::sweep::SweepSpec spec = xs::sweep::parse_sweep_spec(flags);
            return xs::sweep::worker_main(
                ctx, spec, static_cast<int>(flags.get_int("wire-in", -1)),
                static_cast<int>(flags.get_int("wire-out", -1)));
        }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
