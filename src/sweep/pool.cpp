#include "sweep/pool.h"

#include "util/log.h"
#include "util/parallel.h"

#include <chrono>
#include <cmath>
#include <csignal>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

namespace xs::sweep {

namespace {

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

std::string describe_exit(int wstatus) {
    if (WIFSIGNALED(wstatus))
        return std::string("killed by signal ") +
               std::to_string(WTERMSIG(wstatus));
    if (WIFEXITED(wstatus))
        return "exited with status " + std::to_string(WEXITSTATUS(wstatus));
    return "died (status " + std::to_string(wstatus) + ")";
}

}  // namespace

std::vector<int> slot_cpus(const std::vector<int>& cpus, std::size_t slot,
                           std::size_t slots) {
    const std::size_t c = cpus.size();
    if (c == 0) return {};
    if (slots > c) return {cpus[slot % c]};
    const auto at = [&](std::size_t k) {
        return cpus.begin() + static_cast<std::ptrdiff_t>(k * c / slots);
    };
    return std::vector<int>(at(slot), at(slot + 1));
}

WorkerPool::WorkerPool(std::vector<std::string> cmd,
                       std::int64_t restart_budget)
    : cmd_(std::move(cmd)),
      cpus_(util::affinity_cpus()),
      restarts_left_(restart_budget) {}

WorkerPool::~WorkerPool() {
    for (PoolWorker& w : workers_) {
        if (!w.alive) continue;
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        close_fd(w.deal_fd);
        close_fd(w.ack_fd);
        w.alive = false;
    }
}

// Fork+exec one worker wired to fresh deal/ack pipes. The parent-held pipe
// ends are CLOEXEC so later-spawned siblings don't inherit them — a worker
// holding another worker's pipe would mask that worker's EOF-on-death.
// Everything the child needs (argv buffers and its CPU set included) is
// built before fork: between fork and exec only async-signal-safe calls
// run, which a forked child of a threaded process is restricted to. The
// child takes its slot's CPU slice before exec, so a respawn gets the same
// slice and `--workers=2` on 4 CPUs runs two 2-thread pools.
bool WorkerPool::spawn_slot(PoolWorker& w) {
    int deal[2];  // [0] = child read, [1] = parent write
    int ack[2];   // [0] = parent read, [1] = child write
    if (::pipe(deal) != 0) return false;
    if (::pipe(ack) != 0) {
        ::close(deal[0]);
        ::close(deal[1]);
        return false;
    }
    ::fcntl(deal[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(ack[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(ack[0], F_SETFL, O_NONBLOCK);

    std::vector<std::string> args = cmd_;
    args.push_back("--worker");
    args.push_back("--wire-in=" + std::to_string(deal[0]));
    args.push_back("--wire-out=" + std::to_string(ack[1]));
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::vector<int> cpus = slot_cpus(
        cpus_, static_cast<std::size_t>(&w - workers_.data()), workers_.size());
    cpu_set_t cpu_set;
    CPU_ZERO(&cpu_set);
    for (const int cpu : cpus) CPU_SET(cpu, &cpu_set);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(deal[0]);
        ::close(deal[1]);
        ::close(ack[0]);
        ::close(ack[1]);
        return false;
    }
    if (pid == 0) {
        if (!cpus.empty()) ::sched_setaffinity(0, sizeof cpu_set, &cpu_set);
        ::execv(argv[0], argv.data());
        ::_exit(127);  // exec failed; the parent sees EOF + exit 127
    }
    ::close(deal[0]);
    ::close(ack[1]);
    w.pid = pid;
    w.deal_fd = deal[1];
    w.ack_fd = ack[0];
    w.reader.reset(w.ack_fd);
    w.alive = true;
    w.ready = false;
    w.dealt = -1;
    w.deadline = 0.0;
    return true;
}

bool WorkerPool::spawn(std::size_t n) {
    workers_.resize(n);
    for (PoolWorker& w : workers_)
        if (!w.alive && !spawn_slot(w)) return false;
    return true;
}

std::size_t WorkerPool::alive_count() const {
    std::size_t n = 0;
    for (const PoolWorker& w : workers_)
        if (w.alive) ++n;
    return n;
}

void WorkerPool::kill(std::size_t i) {
    if (workers_[i].alive) ::kill(workers_[i].pid, SIGKILL);
}

std::string WorkerPool::reap_and_respawn(std::size_t i, bool& respawned) {
    PoolWorker& w = workers_[i];
    int wstatus = 0;
    ::waitpid(w.pid, &wstatus, 0);
    const std::string detail = describe_exit(wstatus);
    close_fd(w.deal_fd);
    close_fd(w.ack_fd);
    w.alive = false;
    w.dealt = -1;
    w.deadline = 0.0;
    respawned = false;
    if (restarts_left_ > 0) {
        --restarts_left_;
        if (spawn_slot(w)) {
            ++restarts_;
            respawned = true;
        }
    }
    return detail;
}

void WorkerPool::shutdown(double grace_ms, util::metrics::Snapshot* merged) {
    // Ask nicely, give the pool a moment, then insist.
    for (PoolWorker& w : workers_) {
        if (!w.alive) continue;
        wire::write_message(w.deal_fd, wire::MsgType::kShutdown, "");
        close_fd(w.deal_fd);
    }
    const double grace_deadline = now_ms() + grace_ms;
    // Each worker answers kShutdown with one kMetrics frame before exiting;
    // fold those into `merged` under the same grace deadline the reaper
    // uses. A worker that dies without the frame just contributes nothing —
    // telemetry never blocks shutdown past the grace.
    if (merged != nullptr) {
        for (PoolWorker& w : workers_) {
            if (!w.alive) continue;
            wire::Message msg;
            while (true) {
                if (w.reader.pop(msg)) {  // buffered frames survive EOF
                    if (msg.type == wire::MsgType::kMetrics) {
                        util::metrics::Snapshot snap;
                        if (util::metrics::from_json(msg.payload, snap))
                            util::metrics::merge(*merged, snap);
                        else
                            util::log_warn(
                                "pool: discarding an unparsable metrics "
                                "frame from worker pid " +
                                std::to_string(w.pid));
                    }
                    continue;  // late hellos/acks carry nothing actionable
                }
                if (w.reader.finished()) break;
                const double left = grace_deadline - now_ms();
                if (left <= 0.0) break;
                pollfd pfd{w.ack_fd, POLLIN, 0};
                ::poll(&pfd, 1, static_cast<int>(std::ceil(left)));
                w.reader.fill();
            }
        }
    }
    for (PoolWorker& w : workers_) {
        if (!w.alive) continue;
        int wstatus = 0;
        while (true) {
            const pid_t got = ::waitpid(w.pid, &wstatus, WNOHANG);
            if (got == w.pid || got < 0) break;
            if (now_ms() > grace_deadline) {
                ::kill(w.pid, SIGKILL);
                ::waitpid(w.pid, &wstatus, 0);
                break;
            }
            ::usleep(10 * 1000);
        }
        close_fd(w.ack_fd);
        w.alive = false;
    }
}

}  // namespace xs::sweep
