// Pool-size invariance: the thread pool is as wide as the process's CPU
// affinity mask, and nothing a sweep writes may depend on that width. Two
// child processes, confined to 1 CPU and to min(3, available) CPUs, each
// train and sweep the same mini grid into their own directories; every
// model file and the aggregate CSV must match byte for byte.
//
// This binary is its own child: it provides main() (CMake links it without
// gtest_main) and re-execs itself with --child, which runs the grid instead
// of the tests.
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/flags.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

namespace xs::sweep {
namespace {

namespace fs = std::filesystem;

// The sweep fixtures' scale: three models, twelve cells on both backends.
std::vector<std::string> grid_args(const fs::path& dir) {
    return {"--width=0.0625",
            "--train-count=96",
            "--test-count=48",
            "--epochs=1",
            "--batch=16",
            "--sizes=16",
            "--prune=none,cf:0.8,xcs:0.8",
            "--backends=circuit,fast",
            "--sweep-repeats=2",
            "--out-dir=" + dir.string(),
            "--cache-dir=" + (dir / "models").string()};
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// Fork this binary as a --child confined to `cpus`. The CPU set and argv
// are built before fork; the child only sets its mask and execs.
pid_t spawn_child(const std::vector<int>& cpus, const fs::path& dir) {
    std::vector<std::string> args = {fs::read_symlink("/proc/self/exe").string(),
                                     "--child"};
    for (const std::string& a : grid_args(dir)) args.push_back(a);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    const pid_t pid = ::fork();
    if (pid == 0) {
        if (::sched_setaffinity(0, sizeof set, &set) != 0) ::_exit(126);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    return pid;
}

int wait_exit_code(pid_t pid) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
}

TEST(PoolSize, ModelsAndCsvDoNotDependOnTheAffinityMask) {
    const std::vector<int> cpus = util::affinity_cpus();
    if (cpus.size() < 2)
        GTEST_SKIP() << "needs 2 CPUs in the affinity mask, has "
                     << cpus.size();
    const fs::path root = fs::temp_directory_path() / "xs_sweep_pool_size";
    fs::remove_all(root);
    // The one-CPU child takes the last CPU, so on 4 CPUs the two run side
    // by side without sharing one.
    const std::vector<int> one = {cpus.back()};
    const std::vector<int> wide(cpus.begin(),
                                cpus.begin() + std::min<std::ptrdiff_t>(
                                                   3, static_cast<std::ptrdiff_t>(cpus.size())));
    const pid_t a = spawn_child(one, root / "one");
    const pid_t b = spawn_child(wide, root / "wide");
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    EXPECT_EQ(wait_exit_code(a), 0);
    EXPECT_EQ(wait_exit_code(b), 0);

    // Each child's pool was as wide as its mask.
    EXPECT_EQ(slurp(root / "one" / "worker_count"), "1");
    EXPECT_EQ(slurp(root / "wide" / "worker_count"), std::to_string(wide.size()));

    const std::string csv = slurp(root / "one" / "sweep.csv");
    EXPECT_FALSE(csv.empty());
    EXPECT_EQ(csv, slurp(root / "wide" / "sweep.csv"));

    std::size_t models = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(root / "one" / "models")) {
        const fs::path twin = root / "wide" / "models" / e.path().filename();
        ASSERT_TRUE(fs::exists(twin)) << twin;
        EXPECT_EQ(slurp(e.path()), slurp(twin)) << e.path().filename();
        if (e.path().extension() == ".bin") ++models;
    }
    EXPECT_EQ(models, 3u);
    EXPECT_EQ(std::distance(fs::directory_iterator(root / "one" / "models"),
                            fs::directory_iterator{}),
              std::distance(fs::directory_iterator(root / "wide" / "models"),
                            fs::directory_iterator{}));
}

// The child: train and sweep the grid, and record the pool's width.
int run_child(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const SweepSummary summary =
        SweepRunner(ctx, parse_sweep_spec(flags), SweepOptions{}).run();
    std::ofstream(fs::path(flags.get_string("out-dir", ".")) / "worker_count")
        << util::worker_count();
    return summary.cells_failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xs::sweep

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--child")
            return xs::sweep::run_child(argc, argv);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
