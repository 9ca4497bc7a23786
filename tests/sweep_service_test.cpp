// Multi-host sweep service coverage (sweep/service.h) over loopback TCP:
// the coordinator runs in-process on a pre-bound ephemeral port while agent
// hosts are real forked copies of this binary (--agent=127.0.0.1:<port>),
// each running its own forked worker pool — three process layers deep,
// exactly the production topology of examples/sweep_serve.cpp.
//
// The invariant under test is the paper-repro one: the aggregate CSV is
// byte-identical to an uninterrupted single-process run at any host count,
// through host kills mid-cell, torn socket frames, agent disconnects with
// reconnect+replay, expired leases with late duplicate acks, and
// coordinator restarts (--resume). Faults are injected into the *agent*
// processes via their environment (XS_FAULT), never into the coordinator.
// Protocol races no real agent hits on cue are played by a hand-driven
// agent over loopback (HandAgent).
//
// This binary is its own worker AND its own agent: it provides main()
// (CMake links it without gtest_main) and re-execs itself, exactly like the
// sweep_runner driver does in production.
#include "core/experiments.h"
#include "sweep/manifest.h"
#include "sweep/net.h"
#include "sweep/runner.h"
#include "sweep/service.h"
#include "sweep/supervisor.h"
#include "sweep/wire.h"
#include "util/flags.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace xs::sweep {
namespace {

std::string test_dir() {
    const auto dir =
        std::filesystem::temp_directory_path() / "xs_sweep_service";
    std::filesystem::create_directories(dir);
    return dir.string();
}

// One flag list drives everything: the test-side context/spec AND the agent
// command lines, so the coordinator and every agent (and every agent's
// workers) parse identical configurations — and identical fingerprints —
// by construction.
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
    static const char* name = "sweep_service_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

core::ExperimentContext& ctx() {
    static const bool cleaned = [] {
        std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                    "xs_sweep_service");
        return true;
    }();
    (void)cleaned;
    static util::Flags flags = tiny_flags();
    static core::ExperimentContext context(flags);
    return context;
}

SweepSpec tiny_spec() { return parse_sweep_spec(tiny_flags()); }

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// Uninterrupted single-process reference run (once per process): the bytes
// every service topology must reproduce — and the warm model cache every
// agent child resolves its prepared models from.
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

int count_occurrences(const std::string& hay, const std::string& needle) {
    int n = 0;
    for (auto pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

// Fork+exec this binary as an agent host joining 127.0.0.1:<port>. The
// fault plan travels in the child's environment only — the coordinator
// (this process) never sees it. argv/envp are fully built before fork:
// the test process is threaded, so the child runs only async-signal-safe
// calls between fork and exec.
pid_t spawn_agent(int port, std::int64_t workers,
                  const std::string& fault = "",
                  const std::string& delay_ms = "",
                  const std::vector<std::string>* base_override = nullptr,
                  const std::string& backoff_ms = "50") {
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    EXPECT_GT(n, 0);
    exe[n] = '\0';

    std::vector<std::string> args;
    args.push_back(exe);
    for (const std::string& a : base_override ? *base_override : base_args())
        args.push_back(a);
    args.push_back("--agent=127.0.0.1:" + std::to_string(port));
    args.push_back("--workers=" + std::to_string(workers));
    args.push_back("--agent-backoff-ms=" + backoff_ms);  // fast test rejoins
    args.push_back("--agent-reconnects=6");    // bounded: a dead service
                                               // must not leak a child

    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
        if (std::string(*e).rfind("XS_FAULT", 0) != 0) env.push_back(*e);
    if (!fault.empty()) env.push_back("XS_FAULT=" + fault);
    if (!delay_ms.empty())
        env.push_back("XS_FAULT_NET_DELAY_MS=" + delay_ms);

    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    return pid;
}

// Owns an agent child: tests that pass collect the exit status; tests that
// throw out of run_service still reap (SIGKILL) instead of leaking it.
struct AgentProc {
    pid_t pid = -1;
    explicit AgentProc(pid_t p) : pid(p) {}
    AgentProc(AgentProc&& o) noexcept : pid(o.pid) { o.pid = -1; }
    AgentProc(const AgentProc&) = delete;
    ~AgentProc() {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    int wait() {
        int st = 0;
        ::waitpid(pid, &st, 0);
        pid = -1;
        return st;
    }
};

bool exited_ok(int status) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Service options on a fresh ephemeral port (run_service owns and closes
// the fd), tuned for test latency: fast beacons, fast re-deals, and a
// silence tolerance generous enough that scheduling jitter never declares
// a healthy loopback host dead.
ServiceOptions fast_svc(int& port) {
    ServiceOptions svc;
    std::string err;
    svc.listen_fd = net::listen_on(0, &err);
    EXPECT_GE(svc.listen_fd, 0) << err;
    port = net::bound_port(svc.listen_fd);
    EXPECT_GT(port, 0);
    svc.heartbeat_ms = 250.0;
    svc.heartbeat_misses = 8;  // 2 s of silence = dead
    svc.retry_backoff_ms = 20.0;
    return svc;
}

TEST(SweepService, SingleHostMatchesSingleProcessByteForByte) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    AgentProc agent(spawn_agent(port, 2));

    SweepOptions opts;
    opts.csv_name = "svc_one.csv";
    opts.manifest_name = "svc_one.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.hosts_joined, 1);
    EXPECT_EQ(summary.duplicate_acks, 0);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));  // shut down by the service
}

TEST(SweepService, ThreeHostsMatchSingleProcessByteForByte) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    std::vector<AgentProc> agents;
    for (int i = 0; i < 3; ++i)
        agents.emplace_back(spawn_agent(port, 1));

    SweepOptions opts;
    opts.csv_name = "svc_three.csv";
    opts.manifest_name = "svc_three.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.hosts_joined, 3);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    for (auto& a : agents) EXPECT_TRUE(exited_ok(a.wait()));
}

TEST(SweepService, HostKilledMidCellHasItsLeaseReDealt) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // Both agents carry the same plan, but cell 1's first deal lands on
    // exactly one of them — that whole host (workers and all) dies mid-cell
    // (SIGKILL, no goodbye), and the survivor, which never sees cell 1 at
    // attempt 0 again, finishes the sweep.
    std::vector<AgentProc> agents;
    agents.emplace_back(spawn_agent(port, 1, "crash@agent-deal:1"));
    agents.emplace_back(spawn_agent(port, 1, "crash@agent-deal:1"));

    SweepOptions opts;
    opts.csv_name = "svc_kill.csv";
    opts.manifest_name = "svc_kill.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.cell_retries, 1);  // the orphaned lease re-dealt
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());

    const int st0 = agents[0].wait();
    const int st1 = agents[1].wait();
    EXPECT_TRUE(WIFSIGNALED(st0) != WIFSIGNALED(st1))
        << "exactly one host should have died";
    EXPECT_TRUE(exited_ok(WIFSIGNALED(st0) ? st1 : st0));
}

// The two reconnect tests run ONE agent, the faulted one, so it is dealt
// every cell: its second ack — aimed at via the net-send-ack site, whose
// ordinal counts acks only (machine load decides whether a raw frame
// ordinal is an ack or an idle heartbeat) — always exists, and the fault
// always fires. With no other host to take over, the sweep can only finish
// once the agent has rejoined (on a 10 ms backoff), so the rejoin is
// asserted unconditionally.
TEST(SweepService, TornFrameDropsTheHostAndTheSweepRecovers) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // The agent's second ack is torn in half and its connection severed.
    // The service must read the torn prefix as a dead host, never as a
    // frame; the agent parks the ack in its outbox, reconnects with a
    // fresh join, and replays it.
    AgentProc agent(spawn_agent(port, 1, "net-partial-write@net-send-ack:1",
                                "", nullptr, "10"));

    SweepOptions opts;
    opts.csv_name = "svc_torn.csv";
    opts.manifest_name = "svc_torn.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.hosts_joined, 2);  // the join plus the rejoin
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
}

TEST(SweepService, DisconnectedAgentReconnectsAndReplaysItsOutbox) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // The agent's connection severs as it sends its second ack, without a
    // byte written (a network blip): the ack is parked in its outbox and
    // replayed after the reconnect handshake. The service either records
    // it (cell still unrecorded) or dedups it — both keep the CSV bytes.
    AgentProc agent(spawn_agent(port, 1, "net-disconnect@net-send-ack:1", "",
                                nullptr, "10"));

    SweepOptions opts;
    opts.csv_name = "svc_blip.csv";
    opts.manifest_name = "svc_blip.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.hosts_joined, 2);  // the join plus the rejoin
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
}

TEST(SweepService, LateDuplicateAckIsDedupedNeverDoubleRecorded) {
    baseline_csv();
    int port = 0;
    ServiceOptions svc = fast_svc(port);
    svc.heartbeat_ms = 1000.0;
    svc.heartbeat_misses = 10;  // 10 s of tolerance — the stalled host must
                                // NOT be declared dead (slow-but-alive)
    svc.max_cell_retries = 4;   // lease expiries must never reach quarantine
    // One agent stalls 5 s inside sending its first ack. The stall is
    // longer than the 1.5 s lease, and the lease clock started at the deal,
    // before the worker even finished — so the service re-deals the cell to
    // the other host whatever the timing. Whichever copy lands second (the
    // stalled ack typically arrives during the shutdown grace) must be
    // counted and dropped, never appended twice.
    std::vector<AgentProc> agents;
    agents.emplace_back(
        spawn_agent(port, 1, "net-delay@net-send-ack:0", "5000"));
    agents.emplace_back(spawn_agent(port, 1));

    SweepOptions opts;
    opts.csv_name = "svc_dup.csv";
    opts.manifest_name = "svc_dup.jsonl";
    opts.cell_budget_ms = 1500.0;  // the lease
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.cell_retries, 1);     // a lease expired and re-dealt
    EXPECT_GE(summary.duplicate_acks, 1);   // the late copy was deduped
    // A lease expiry is the watchdog, and a budget overrun, on this front
    // end as under run_supervised.
    EXPECT_GE(summary.watchdog_kills, 1);
    EXPECT_GE(summary.cells_over_budget, 1);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());

    // The dedup claim, verified against the bytes on disk: every cell has
    // exactly one manifest record — the first durable append won.
    const std::string manifest_raw = slurp(summary.manifest_path);
    for (const SweepCell& cell : tiny_spec().expand())
        EXPECT_EQ(count_occurrences(manifest_raw,
                                    "\"cell\":\"" + cell.id() + "\""),
                  1)
            << cell.id();
    for (auto& a : agents) EXPECT_TRUE(exited_ok(a.wait()));
}

// Pop the next frame that is not a heartbeat, beating back while waiting
// so the service never declares the hand-driven host silent. False on EOF
// or once `wait` has passed.
bool next_frame(int fd, wire::MessageReader& in, wire::Message& msg,
                std::chrono::milliseconds wait = std::chrono::seconds(10)) {
    const auto deadline = std::chrono::steady_clock::now() + wait;
    while (std::chrono::steady_clock::now() < deadline) {
        while (in.pop(msg))
            if (msg.type != wire::MsgType::kHeartbeat) return true;
        if (in.finished()) return false;
        pollfd pfd{fd, POLLIN, 0};
        ::poll(&pfd, 1, 50);
        in.fill();
        net::send_frame(fd, wire::MsgType::kHeartbeat, "");
    }
    return false;
}

// An agent played by hand over loopback, for protocol races a real agent
// cannot be made to hit on cue.
struct HandAgent {
    int fd = -1;
    wire::MessageReader in;

    // Connect and join with `capacity`.
    HandAgent(int port, const std::string& join_fp, std::int64_t capacity) {
        std::string err;
        fd = net::connect_to("127.0.0.1", static_cast<std::uint16_t>(port),
                             &err);
        EXPECT_GE(fd, 0) << err;
        in.reset(fd);
        send(wire::MsgType::kJoin, net::encode_join(join_fp, capacity));
        EXPECT_EQ(next_type(), wire::MsgType::kJoin);
    }
    ~HandAgent() { ::close(fd); }

    // The type of the next frame that is not a heartbeat; kHeartbeat
    // stands for "none came".
    wire::MsgType next_type() {
        wire::Message msg;
        return next_frame(fd, in, msg) ? msg.type : wire::MsgType::kHeartbeat;
    }
    // The next frame must deal `cell` at `attempt`.
    void expect_deal(std::int64_t cell, std::int64_t attempt) {
        wire::Message msg;
        std::int64_t ci = -1, at = -1;
        ASSERT_TRUE(next_frame(fd, in, msg));
        ASSERT_EQ(msg.type, wire::MsgType::kDeal);
        ASSERT_TRUE(wire::decode_deal(msg.payload, ci, at));
        EXPECT_EQ(ci, cell);
        EXPECT_EQ(at, attempt);
    }
    void send(wire::MsgType type, const std::string& payload) {
        EXPECT_TRUE(net::send_frame(fd, type, payload));
    }
};

// The first cells of the grid, played against a hand-driven agent: the
// join fingerprint, the options, and real results to ack with.
struct HandSweep {
    SweepSpec spec = tiny_spec();
    std::vector<SweepCell> cells = spec.expand();
    std::string join_fp =
        join_fingerprint(sweep_config_fingerprint(ctx(), spec), cells);
    SweepOptions opts;

    HandSweep(const std::string& name, std::int64_t ncells) {
        opts.csv_name = name + ".csv";
        opts.manifest_name = name + ".jsonl";
        opts.max_cells = ncells;
    }
    // Cell i's kAck payload, as its worker would send it for attempt
    // `attempts - 1`.
    std::string ack(std::size_t i, std::int64_t attempts,
                    double wall_ms = -1.0) const {
        CellResult r = run_sweep_cell(ctx(), spec, cells[i]);
        r.attempts = attempts;
        if (wall_ms >= 0.0) r.wall_ms = wall_ms;
        return encode_manifest_line(cells[i].id(), r);
    }
};

// A fail names its attempt. A lone host is always re-dealt its own expired
// cells, so the expired attempt's late fail (a watchdog kill, a crash)
// reaches the host that runs the re-deal — and must not fail it: with one
// retry that would quarantine the cell, and its real result would then be
// dropped as a duplicate.
TEST(SweepService, FailOfAnExpiredAttemptDoesNotFailTheReDeal) {
    baseline_csv();
    HandSweep sweep("svc_stale", 1);
    sweep.opts.cell_budget_ms = 300.0;  // the lease
    const std::string ack = sweep.ack(0, 2);
    int port = 0;
    ServiceOptions svc = fast_svc(port);
    svc.max_cell_retries = 1;

    std::thread agent([&] {
        HandAgent a(port, sweep.join_fp, 2);
        a.expect_deal(0, 0);  // held past its lease...
        a.expect_deal(0, 1);  // ...so the service re-deals it here
        // Attempt 0's late fail, then attempt 1's result.
        a.send(wire::MsgType::kFail,
               net::encode_fail(0, 0, "worker watchdog-killed"));
        a.send(wire::MsgType::kAck, ack);
        EXPECT_EQ(a.next_type(), wire::MsgType::kShutdown);
    });
    const SweepSummary summary =
        run_service(ctx(), sweep.spec, sweep.opts, svc);
    agent.join();
    EXPECT_EQ(summary.cells_executed, 1);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.cell_retries, 1);
    EXPECT_EQ(summary.watchdog_kills, 1);
    EXPECT_EQ(summary.cells_over_budget, 1);
    EXPECT_EQ(load_manifest(summary.manifest_path)
                  .at(sweep.cells[0].id())
                  .status,
              "ok");
}

// The lease expiry already counted the cell's budget overrun. When the
// expired attempt's slow ack then lands before its re-deal's, it is
// recorded, but the same cell is not counted over budget twice.
TEST(SweepService, SlowAckOfAnExpiredLeaseCountsOneOverrun) {
    baseline_csv();
    HandSweep sweep("svc_overrun", 1);
    sweep.opts.cell_budget_ms = 300.0;
    const std::string slow_ack = sweep.ack(0, 1, 400.0);  // over budget
    int port = 0;
    const ServiceOptions svc = fast_svc(port);

    std::thread agent([&] {
        HandAgent a(port, sweep.join_fp, 2);
        a.expect_deal(0, 0);
        a.expect_deal(0, 1);
        a.send(wire::MsgType::kAck, slow_ack);  // attempt 0's
        EXPECT_EQ(a.next_type(), wire::MsgType::kShutdown);
    });
    const SweepSummary summary =
        run_service(ctx(), sweep.spec, sweep.opts, svc);
    agent.join();
    EXPECT_EQ(summary.cells_executed, 1);
    EXPECT_EQ(summary.watchdog_kills, 1);
    EXPECT_EQ(summary.cells_over_budget, 1);
}

// A worker slot that retires shrinks its host: after kCapacity the service
// deals the host no more cells than it has live workers, so no lease waits
// on a worker that is gone.
TEST(SweepService, RetiredWorkerSlotShrinksTheHost) {
    baseline_csv();
    HandSweep sweep("svc_shrink", 2);
    const std::string ack0 = sweep.ack(0, 2), ack1 = sweep.ack(1, 1);
    int port = 0;
    const ServiceOptions svc = fast_svc(port);

    std::thread agent([&] {
        HandAgent a(port, sweep.join_fp, 2);
        a.expect_deal(0, 0);
        a.expect_deal(1, 0);
        // Cell 0's worker dies and its slot retires.
        a.send(wire::MsgType::kCapacity, "1");
        a.send(wire::MsgType::kFail,
               net::encode_fail(0, 0, "worker killed by signal 9"));
        // Cell 0 is due again after a 20 ms backoff, but the one live
        // worker still holds cell 1: nothing may be dealt until it acks.
        wire::Message msg;
        EXPECT_FALSE(
            next_frame(a.fd, a.in, msg, std::chrono::milliseconds(500)));
        a.send(wire::MsgType::kAck, ack1);
        a.expect_deal(0, 1);
        a.send(wire::MsgType::kAck, ack0);
        EXPECT_EQ(a.next_type(), wire::MsgType::kShutdown);
    });
    const SweepSummary summary =
        run_service(ctx(), sweep.spec, sweep.opts, svc);
    agent.join();
    EXPECT_EQ(summary.cells_executed, 2);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_EQ(summary.cell_retries, 1);
}

// kCapacity is outside input like any frame: a payload that is not a
// non-negative decimal drops the host, as an undecodable ack or fail does,
// instead of setting a capacity that is never dealt to again while the
// host's heartbeats keep it alive. Its lease goes to the next host.
TEST(SweepService, MalformedCapacityDropsTheHost) {
    baseline_csv();
    HandSweep sweep("svc_badcap", 1);
    const std::string ack = sweep.ack(0, 2);
    int port = 0;
    const ServiceOptions svc = fast_svc(port);

    std::thread agent([&] {
        {
            HandAgent a(port, sweep.join_fp, 1);
            a.expect_deal(0, 0);
            a.send(wire::MsgType::kCapacity, "two");
            wire::Message msg;
            EXPECT_FALSE(
                next_frame(a.fd, a.in, msg, std::chrono::milliseconds(2000)));
            EXPECT_TRUE(a.in.finished()) << "the service kept the link open";
        }
        HandAgent b(port, sweep.join_fp, 1);
        b.expect_deal(0, 1);
        b.send(wire::MsgType::kAck, ack);
        EXPECT_EQ(b.next_type(), wire::MsgType::kShutdown);
    });
    const SweepSummary summary =
        run_service(ctx(), sweep.spec, sweep.opts, svc);
    agent.join();
    EXPECT_EQ(summary.cells_executed, 1);
    EXPECT_EQ(summary.hosts_joined, 2);
    EXPECT_EQ(summary.cell_retries, 1);
}

// The shutdown grace takes the main loop's ack path: an ack for a cell
// outside this sweep drops the host there too, instead of waiting out the
// grace for its kMetrics frame.
TEST(SweepService, ForeignAckDuringShutdownDropsTheHost) {
    baseline_csv();
    HandSweep sweep("svc_grace", 1);
    const std::string ack = sweep.ack(0, 1);
    int port = 0;
    const ServiceOptions svc = fast_svc(port);

    std::thread agent([&] {
        HandAgent a(port, sweep.join_fp, 1);
        a.expect_deal(0, 0);
        a.send(wire::MsgType::kAck, ack);
        EXPECT_EQ(a.next_type(), wire::MsgType::kShutdown);
        a.send(wire::MsgType::kAck,
               encode_manifest_line("vgg11-c10/not-a-cell/r0", CellResult{}));
        wire::Message msg;
        EXPECT_FALSE(
            next_frame(a.fd, a.in, msg, std::chrono::milliseconds(2000)));
        EXPECT_TRUE(a.in.finished()) << "the service kept the link open";
    });
    const SweepSummary summary =
        run_service(ctx(), sweep.spec, sweep.opts, svc);
    agent.join();
    EXPECT_EQ(summary.cells_executed, 1);
    EXPECT_EQ(load_manifest(summary.manifest_path).size(), 1u);
}

// An agent that rejoins mid-cell is re-dealt the cell its worker still
// runs: the service failed that attempt with the lost link, not with the
// worker. The worker must run on — no kill, no respawn — while the re-deal
// runs on the agent's other worker.
TEST(SweepService, RejoinedAgentKeepsItsBusyWorkers) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // Whichever worker takes cell 0 hangs on attempt 0. Deals are handed
    // out in order, so cell 0 is on a worker before the other one acks
    // cell 1, and sending that first ack severs the link. The hung worker
    // is only reaped by the agent's shutdown grace (5 s).
    AgentProc agent(spawn_agent(port, 2,
                                "hang@cell:0,net-disconnect@net-send-ack:0",
                                "", nullptr, "10"));

    SweepOptions opts;
    opts.csv_name = "svc_rejoin.csv";
    opts.manifest_name = "svc_rejoin.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_failed, 0);
    EXPECT_GE(summary.hosts_joined, 2);  // the join plus the rejoin
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
    // The agent's own counters ride in its kMetrics frame.
    util::metrics::Snapshot snap;
    ASSERT_TRUE(util::metrics::from_json(summary.metrics_json, snap));
    const auto lost = snap.counters.find("sweep.workers.lost");
    EXPECT_EQ(lost == snap.counters.end() ? 0u : lost->second, 0u);
}

TEST(SweepService, CoordinatorResumeIsByteIdenticalAndCarriesMetrics) {
    baseline_csv();
    util::metrics::reset();  // a clean slate makes the totals checkable

    // Run 1: the coordinator stops after 2 cells (max_cells stands in for
    // a coordinator crash — the manifest is the only state that survives
    // either way) and shuts its agent down.
    SweepOptions opts;
    opts.csv_name = "svc_resume.csv";
    opts.manifest_name = "svc_resume.jsonl";
    opts.max_cells = 2;
    {
        int port = 0;
        const ServiceOptions svc = fast_svc(port);
        AgentProc agent(spawn_agent(port, 2));
        const SweepSummary partial =
            run_service(ctx(), tiny_spec(), opts, svc);
        EXPECT_EQ(partial.cells_executed, 2);
        EXPECT_EQ(partial.cells_pending, 2);
        EXPECT_TRUE(exited_ok(agent.wait()));
    }

    // Run 2: a fresh coordinator and a fresh agent resume from the
    // manifest. In production the restarted coordinator is a new process
    // with zeroed counters; reset() gives this in-process rerun the same
    // starting point so the carried-forward totals are exact.
    util::metrics::reset();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    AgentProc agent(spawn_agent(port, 2));
    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(resumed.cells_resumed, 2);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_EQ(resumed.cells_pending, 0);
    EXPECT_EQ(slurp(resumed.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));

    // Satellite: the final metrics record carries the totals across the
    // restart — run 1's counts folded into run 2's, coordinator-side
    // (cells.done) and host-side (cells.executed from the agents' worker
    // pools) alike.
    ASSERT_FALSE(resumed.metrics_json.empty());
    util::metrics::Snapshot snap;
    ASSERT_TRUE(util::metrics::from_json(resumed.metrics_json, snap));
    EXPECT_EQ(snap.counters.at("sweep.cells.done"), 4u);
    EXPECT_EQ(snap.counters.at("sweep.cells.executed"), 4u);
}

TEST(SweepService, MismatchedFingerprintJoinIsRejectedLoudly) {
    baseline_csv();
    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    // The imposter runs a different grid (--sweep-repeats=4) under the SAME
    // experiment config — the config fingerprint alone cannot tell them
    // apart (grid axes are spec-only), so this is exactly the join the
    // grid-hash component exists to reject: fatally, since reconnecting
    // cannot fix a wrong grid, and before any of its foreign cell ids can
    // blend into this sweep's manifest.
    std::vector<std::string> wrong = base_args();
    for (std::string& a : wrong)
        if (a == "--sweep-repeats=2") a = "--sweep-repeats=4";
    AgentProc imposter(spawn_agent(port, 1, "", "", &wrong));
    AgentProc agent(spawn_agent(port, 2));

    SweepOptions opts;
    opts.csv_name = "svc_fp.csv";
    opts.manifest_name = "svc_fp.jsonl";
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.hosts_joined, 1);  // the imposter never joined
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
    const int st = imposter.wait();
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) != 0);
}

TEST(SweepService, DrainDealsNothingAndStaysResumable) {
    baseline_csv();
    SweepOptions opts;
    opts.csv_name = "svc_drain.csv";
    opts.manifest_name = "svc_drain.jsonl";
    {
        // --drain from the start (the SIGTERM path flips the same switch):
        // deal nothing, wait out in-flight leases (none), exit resumable.
        int port = 0;
        ServiceOptions svc = fast_svc(port);
        svc.drain = true;
        const SweepSummary drained =
            run_service(ctx(), tiny_spec(), opts, svc);
        EXPECT_EQ(drained.cells_executed, 0);
        EXPECT_EQ(drained.cells_pending, 4);
    }

    int port = 0;
    const ServiceOptions svc = fast_svc(port);
    AgentProc agent(spawn_agent(port, 2));
    opts.resume = true;
    const SweepSummary summary = run_service(ctx(), tiny_spec(), opts, svc);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_pending, 0);
    EXPECT_EQ(slurp(summary.csv_path), baseline_csv());
    EXPECT_TRUE(exited_ok(agent.wait()));
}

}  // namespace
}  // namespace xs::sweep

// Own main: --worker invocations become sweep worker processes, --agent
// invocations become agent hosts (the children this suite forks), and
// everything else runs gtest.
int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--worker") {
            const xs::util::Flags flags(argc, argv);
            xs::core::ExperimentContext ctx(flags);
            const xs::sweep::SweepSpec spec =
                xs::sweep::parse_sweep_spec(flags);
            return xs::sweep::worker_main(
                ctx, spec, static_cast<int>(flags.get_int("wire-in", -1)),
                static_cast<int>(flags.get_int("wire-out", -1)));
        }
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--agent=", 0) == 0) {
            const xs::util::Flags flags(argc, argv);
            xs::core::ExperimentContext ctx(flags);
            const xs::sweep::SweepSpec spec =
                xs::sweep::parse_sweep_spec(flags);
            xs::sweep::AgentOptions a;
            if (!xs::sweep::net::parse_hostport(
                    flags.get_string("agent", ""), a.host, a.port))
                return 2;
            a.workers = flags.get_int("workers", 1);
            a.worker_cmd = xs::sweep::worker_command_from_argv(argc, argv);
            a.reconnect_backoff_ms =
                flags.get_double("agent-backoff-ms", 250.0);
            a.max_reconnects = flags.get_int("agent-reconnects", -1);
            return xs::sweep::run_agent(ctx, spec, a);
        }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
