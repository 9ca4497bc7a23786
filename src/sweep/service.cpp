#include "sweep/service.h"

#include "sweep/lease.h"
#include "sweep/net.h"
#include "sweep/pool.h"
#include "sweep/supervisor.h"
#include "sweep/wire.h"
#include "tensor/tensor.h"
#include "util/csv.h"
#include "util/faultinject.h"
#include "util/log.h"
#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace xs::sweep {

namespace {

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::atomic<bool> g_drain{false};

// An fd closed on every exit path, exceptions included.
struct OwnedFd {
    explicit OwnedFd(int f = -1) : fd(f) {}
    OwnedFd(const OwnedFd&) = delete;
    OwnedFd& operator=(const OwnedFd&) = delete;
    ~OwnedFd() { close(); }
    void close() {
        if (fd >= 0) ::close(fd);
        fd = -1;
    }
    int fd;
};

// One connected agent host, joined or not. The host id is the lease owner
// token; a reconnecting agent gets a fresh id, so acks and fails from its
// previous incarnation can never be mistaken for the current lease holder.
struct Host {
    std::int64_t id = -1;
    OwnedFd sock;
    wire::MessageReader reader;
    bool joined = false;
    std::int64_t capacity = 0;
    // (scheduler position, attempt) of each deal made here and not yet
    // acked or failed back by this host. A lease that expires and is
    // re-dealt stays in this list — the slow host's worker is still
    // genuinely busy on it — so a cell re-dealt to the same host appears
    // twice, once per attempt.
    std::vector<std::pair<std::size_t, std::int64_t>> leased;
    double last_heard = 0.0;
    std::int64_t cells_done = 0;

    // An ack or fail frees the slot of the attempt it names, if held here.
    void release(std::size_t p, std::int64_t attempt) {
        const auto it =
            std::find(leased.begin(), leased.end(), std::make_pair(p, attempt));
        if (it != leased.end()) leased.erase(it);
    }
    std::string name() const { return "host" + std::to_string(id); }
};

// ---- the agent side ----

// What an agent keeps across links to its coordinator: the grid, its
// forked workers, and the frames it still owes the service.
struct AgentState {
    AgentState(const std::vector<SweepCell>& grid, const AgentOptions& opts,
               std::size_t workers, bool with_own_metrics)
        : cells(grid),
          pool(opts.worker_cmd, opts.max_worker_restarts),
          own_metrics(with_own_metrics) {
        tensor::check(pool.spawn(workers),
                      "agent: failed to spawn worker process");
    }

    const std::vector<SweepCell>& cells;
    WorkerPool pool;
    // Frames no link could carry yet, replayed first on the next link —
    // acks survive disconnects, and replaying them is safe because the
    // service dedups against recorded results.
    std::deque<std::pair<wire::MsgType, std::string>> outbox;
    // Whether the parting kMetrics frame holds this process's snapshot
    // besides the workers'. The in-process agent leaves it out: the
    // coordinator's snapshot already counts this thread.
    bool own_metrics;
    std::int64_t links = 0;  // links joined so far (PoolWorker::link)
};

enum class Joined { kOk, kLost, kRejected };

// The kJoin handshake on a fresh link: offer `capacity`, then wait (10 s at
// most) for the reply that dictates the heartbeat cadence and the lease. A
// kFail reply is a rejection — a fingerprint mismatch no retry can fix.
Joined agent_join(int fd, wire::MessageReader& sock, const std::string& join_fp,
                  std::int64_t capacity, double& heartbeat_ms,
                  double& lease_ms) {
    if (!net::send_frame(fd, wire::MsgType::kJoin,
                         net::encode_join(join_fp, capacity)))
        return Joined::kLost;
    const double deadline = now_ms() + 10000.0;
    for (;;) {
        wire::Message msg;
        if (sock.pop(msg)) {
            if (msg.type == wire::MsgType::kJoin &&
                net::decode_join_ok(msg.payload, heartbeat_ms, lease_ms))
                return Joined::kOk;
            util::log_error(
                "agent: " + (msg.type == wire::MsgType::kFail
                                 ? msg.payload
                                 : "unexpected join reply type " +
                                       std::to_string(
                                           static_cast<int>(msg.type))));
            return Joined::kRejected;
        }
        const double left = deadline - now_ms();
        if (sock.finished() || left <= 0.0) return Joined::kLost;
        pollfd pfd{fd, POLLIN, 0};
        ::poll(&pfd, 1, static_cast<int>(std::ceil(left)));
        sock.fill();
    }
}

enum class LinkEnd { kShutdown, kLost, kPoolDead };

// The agent's event loop over one joined link: hand queued deals to idle
// workers, forward their acks and fails (a fail names the attempt its
// worker was dealt), beat, and run the local watchdog — until the service
// sends kShutdown, the link is lost, or no worker is left. The caller owns
// and closes `fd`.
LinkEnd agent_loop(AgentState& st, int fd, wire::MessageReader& sock,
                   double heartbeat_ms, double lease_ms) {
    WorkerPool& pool = st.pool;
    const std::int64_t link = ++st.links;
    std::deque<std::pair<std::int64_t, std::int64_t>> deals;  // cell, attempt
    bool linked = true;
    const auto lose_link = [&](const std::string& why) {
        if (linked) util::log_warn("agent: connection lost (" + why + ")");
        linked = false;
    };
    const auto send = [&](wire::MsgType type, const std::string& payload) {
        if (linked && net::send_frame(fd, type, payload)) return;
        st.outbox.emplace_back(type, payload);
        lose_link("send failed");
    };
    // Reap worker wi (respawning it while the budget lasts) and fail the
    // cell it held, if any, back to the service. A retired slot shrinks
    // this host, and kCapacity says so before the fail frees the cell's
    // lease slot, so the service never deals a cell no live worker can take.
    const auto worker_lost = [&](std::size_t wi, const std::string& why) {
        const std::int64_t cell = pool[wi].dealt, attempt = pool[wi].attempt;
        bool respawned = false;
        const std::string how = pool.reap_and_respawn(wi, respawned);
        const std::string reason = why.empty() ? "worker " + how : why;
        XS_COUNT("sweep.workers.lost", 1);
        util::log_warn("agent: " + reason +
                       (respawned ? "; respawned" : "; retired"));
        if (!respawned)
            send(wire::MsgType::kCapacity, std::to_string(pool.alive_count()));
        if (cell >= 0)
            send(wire::MsgType::kFail, net::encode_fail(cell, attempt, reason));
    };
    // Forward what worker wi has written — hellos, acks, fails — and reap
    // it on EOF.
    const auto drain = [&](std::size_t wi) {
        PoolWorker& w = pool[wi];
        w.reader.fill();
        wire::Message msg;
        while (w.reader.pop(msg)) {
            switch (msg.type) {
                case wire::MsgType::kHello:
                    break;
                case wire::MsgType::kAck:
                    send(wire::MsgType::kAck, msg.payload);
                    break;
                case wire::MsgType::kFail:
                    if (w.dealt >= 0)
                        send(wire::MsgType::kFail,
                             net::encode_fail(w.dealt, w.attempt, msg.payload));
                    break;  // the worker itself is fine
                default:
                    util::log_warn("agent: unexpected worker message type " +
                                   std::to_string(static_cast<int>(msg.type)));
                    continue;
            }
            w.dealt = -1;
            w.deadline = 0.0;
            w.ready = true;
        }
        if (w.reader.finished()) worker_lost(wi, "");
    };

    while (linked && !st.outbox.empty()) {
        if (net::send_frame(fd, st.outbox.front().first,
                            st.outbox.front().second))
            st.outbox.pop_front();
        else
            lose_link("outbox replay failed");
    }
    double last_heard = now_ms();
    double next_hb = last_heard + heartbeat_ms;
    while (linked) {
        // Service frames first: deals and shutdowns beat local bookkeeping.
        // They are popped before any poll, since the reader can hold frames
        // no poll announces: the join reply's read may carry the first deals.
        wire::Message msg;
        while (linked && sock.pop(msg)) {
            switch (msg.type) {
                case wire::MsgType::kDeal: {
                    std::int64_t ci = -1, attempt = 0;
                    if (!wire::decode_deal(msg.payload, ci, attempt) ||
                        ci < 0 ||
                        ci >= static_cast<std::int64_t>(st.cells.size())) {
                        util::log_error("agent: malformed deal '" +
                                        msg.payload + "'");
                        break;
                    }
                    // Fault seam: kill/hang the whole host here, mid deal, on
                    // the configured attempt — the service's host-death
                    // recovery is exercised by a real dead process.
                    util::fault::execute(
                        util::fault::at("agent-deal", ci, attempt),
                        "agent-deal", ci);
                    deals.emplace_back(ci, attempt);
                    // Over the link that dealt it, a re-deal of a cell a worker
                    // still runs means the service took that attempt back when
                    // its lease expired (a lone host is always re-dealt its own
                    // expired cells): stop the worker, unless its result is
                    // already in the pipe — an ack that has arrived beats the
                    // axe. An attempt from an earlier link runs on: the service
                    // failed it with that link, not with the worker, and its
                    // result is recorded or deduped.
                    for (std::size_t wi = 0; wi < pool.size(); ++wi) {
                        if (!pool[wi].alive || pool[wi].dealt != ci ||
                            pool[wi].link != link)
                            continue;
                        drain(wi);
                        if (pool[wi].alive && pool[wi].dealt == ci) {
                            pool.kill(wi);
                            worker_lost(wi, "worker stopped: its lease expired "
                                            "and the cell was re-dealt");
                        }
                    }
                    break;
                }
                case wire::MsgType::kHeartbeat:
                    break;  // last_heard already refreshed
                case wire::MsgType::kShutdown: {
                    util::metrics::Snapshot merged;
                    if (st.own_metrics) merged = util::metrics::snapshot();
                    pool.shutdown(5000.0, &merged);
                    net::send_frame(fd, wire::MsgType::kMetrics,
                                    util::metrics::to_json(merged));
                    return LinkEnd::kShutdown;
                }
                default:
                    util::log_warn("agent: unexpected message type " +
                                   std::to_string(static_cast<int>(msg.type)));
            }
        }
        if (sock.finished()) lose_link("service closed");

        // An agent with no live workers can't execute anything, nor rejoin:
        // end the link so the service's host-death path takes our leases.
        if (pool.alive_count() == 0) {
            util::log_error(
                "agent: all workers dead (restart budget exhausted)");
            return LinkEnd::kPoolDead;
        }
        if (!linked) break;

        for (std::size_t wi = 0; wi < pool.size() && !deals.empty(); ++wi) {
            PoolWorker& w = pool[wi];
            if (!w.alive || !w.ready || w.dealt >= 0) continue;
            const auto [ci, attempt] = deals.front();
            if (!wire::write_message(w.deal_fd, wire::MsgType::kDeal,
                                     wire::encode_deal(ci, attempt))) {
                pool.kill(wi);
                worker_lost(wi, "worker rejected a deal");
                continue;
            }
            deals.pop_front();
            w.dealt = ci;
            w.attempt = attempt;
            w.link = link;
            w.ready = false;
            // Local watchdog, one heartbeat behind the service's lease: a
            // hung worker is killed here and failed back instead of pinning
            // a capacity slot, after the service's own expiry — which counts
            // the watchdog kill and re-deals the cell — has landed.
            w.deadline =
                lease_ms > 0.0 ? now_ms() + lease_ms + heartbeat_ms : 0.0;
        }

        const double now = now_ms();
        double timeout = std::min(next_hb - now, 250.0);
        for (std::size_t wi = 0; wi < pool.size(); ++wi) {
            const PoolWorker& w = pool[wi];
            if (w.alive && w.dealt >= 0 && w.deadline > 0.0)
                timeout = std::min(timeout, w.deadline - now);
        }
        timeout = std::max(timeout, 0.0);

        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;  // worker index of fds[1..]
        fds.push_back({fd, POLLIN, 0});
        for (std::size_t wi = 0; wi < pool.size(); ++wi)
            if (pool[wi].alive) {
                fds.push_back({pool[wi].ack_fd, POLLIN, 0});
                owner.push_back(wi);
            }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(timeout)));

        if (fds[0].revents != 0) {
            last_heard = now_ms();
            sock.fill();
        }

        // Silence check directly after the socket read, so a local stall (a
        // long cell, scheduler starvation, a fault-injected delay) can
        // never declare a healthy service dead while its frames sit unread
        // in our buffer — whatever arrived during the stall just refreshed
        // last_heard above.
        if (now_ms() - last_heard > heartbeat_ms * 3.0)
            lose_link("service silent for 3 heartbeats");

        for (std::size_t fi = 1; fi < fds.size(); ++fi)
            if (fds[fi].revents != 0 && pool[owner[fi - 1]].alive)
                drain(owner[fi - 1]);

        const double t = now_ms();
        for (std::size_t wi = 0; wi < pool.size(); ++wi) {
            const PoolWorker& w = pool[wi];
            if (!w.alive || w.dealt < 0 || w.deadline <= 0.0 ||
                t < w.deadline)
                continue;
            pool.kill(wi);
            worker_lost(wi, "worker watchdog-killed after " +
                                util::fmt(lease_ms + heartbeat_ms, 0) +
                                " ms");
        }

        if (linked && t >= next_hb) {
            next_hb = t + heartbeat_ms;
            if (!net::send_frame(fd, wire::MsgType::kHeartbeat, ""))
                lose_link("heartbeat send failed");
        }
    }
    return LinkEnd::kLost;
}

// run_supervised's agent, on its own thread: join over one end of a
// socketpair and drive `workers` forked workers until the coordinator shuts
// the link down. It never reconnects (EOF ends it), prepares no models (the
// coordinator did), and logs no address. Returns the pool's restarts.
std::int64_t run_local_agent(const std::vector<SweepCell>& cells,
                             const std::string& join_fp,
                             const AgentOptions& opts, std::size_t workers,
                             int fd) {
    const OwnedFd link{fd};
    AgentState st(cells, opts, workers, false);
    wire::MessageReader sock(fd);
    double heartbeat_ms = 0.0, lease_ms = 0.0;
    if (agent_join(fd, sock, join_fp, static_cast<std::int64_t>(workers),
                   heartbeat_ms, lease_ms) == Joined::kOk)
        agent_loop(st, fd, sock, heartbeat_ms, lease_ms);
    return st.pool.restarts();
}

// ---- the coordinator ----

// The one coordinator behind both front ends. With `local` null it listens
// and any number of agent hosts join over TCP (run_service). Otherwise there
// is no listener: the only host is an in-process agent on a thread, linked
// by a socketpair, driving local->workers forked workers (run_supervised) —
// and once that host is gone the sweep aborts, since no other can join.
// The coordinator keeps leases, hosts and the wire; what happens to a
// result is the SweepLedger's.
SweepSummary coordinate(core::ExperimentContext& ctx, const SweepSpec& spec,
                        const SweepOptions& opts, const ServiceOptions& svc,
                        const AgentOptions* local) {
    OwnedFd listener{svc.listen_fd};
    SweepLedger ledger(ctx, spec, opts);
    const std::vector<SweepCell>& cells = ledger.cells();
    const std::string join_fp =
        join_fingerprint(ledger.config_fingerprint(), cells);

    // A cell's scheduler position is its ledger position.
    LeaseScheduler sched(svc.max_cell_retries, svc.retry_backoff_ms);
    for (const std::size_t i : ledger.pending()) sched.add(i);

    util::metrics::Snapshot host_metrics;  // kMetrics frames, all hosts
    if (sched.size() == 0) return ledger.finish(host_metrics);

    // A host dying mid-send surfaces as EPIPE on our write, not a signal.
    ::signal(SIGPIPE, SIG_IGN);

    // The in-process agent's thread; std::async's future joins it on
    // destruction. Declared before `hosts`, so on every exit path the hosts
    // close their fds first and the agent, seeing EOF, has already exited
    // when the join runs.
    std::future<std::int64_t> local_agent;
    std::vector<std::unique_ptr<Host>> hosts;
    std::int64_t next_host_id = 0;
    const auto add_host = [&](int fd) {
        auto h = std::make_unique<Host>();
        h->id = next_host_id++;
        h->sock.fd = fd;
        h->reader.reset(fd);
        h->last_heard = now_ms();
        util::log_info("service: " + h->name() + " connected");
        hosts.push_back(std::move(h));
    };
    if (local == nullptr) {
        std::string net_err;
        if (listener.fd < 0) listener.fd = net::listen_on(svc.port, &net_err);
        tensor::check(listener.fd >= 0, "service: cannot listen: " + net_err);
        util::log_info("service: listening on port " +
                       std::to_string(net::bound_port(listener.fd)) +
                       " with " + std::to_string(sched.size()) +
                       " cell(s) to deal");
    } else {
        // Train (or load) every model the pending cells need before the
        // agent forks its workers, which then load them from the model
        // cache — and before the link's heartbeat clock starts.
        prepare_models(ctx, cells, ledger.pending());
        int sv[2];
        tensor::check(::socketpair(AF_UNIX,
                                   SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                                   0, sv) == 0,
                      "supervisor: socketpair failed");
        add_host(sv[0]);
        OwnedFd agent_end{sv[1]};  // until the agent thread owns it
        const std::size_t workers = static_cast<std::size_t>(
            std::min<std::int64_t>(local->workers,
                                   static_cast<std::int64_t>(sched.size())));
        local_agent = std::async(std::launch::async, [&, workers, fd = sv[1]] {
            return run_local_agent(cells, join_fp, *local, workers, fd);
        });
        agent_end.fd = -1;
    }

    // Lease and host accounting; the ledger counts the cells.
    std::int64_t hosts_joined = 0, watchdog_kills = 0;
    const double lease_ms = opts.cell_budget_ms;

    // Whether host h holds cell p's in-flight attempt `attempt`.
    const auto holds = [&](const Host& h, std::size_t p, std::int64_t attempt) {
        return sched.at(p).in_flight && sched.at(p).owner == h.id &&
               sched.attempts_of(p) - 1 == attempt;
    };

    const auto attempt_failed = [&](std::size_t p, const std::string& reason) {
        const SweepCell& cell = cells[sched.at(p).cell_index];
        const std::int64_t attempts = sched.attempts_of(p);
        const double t = now_ms();
        if (sched.fail(p, t) == LeaseScheduler::FailOutcome::kRetry) {
            XS_COUNT("sweep.cells.retried", 1);
            util::log_warn("service: cell " + cell.id() + " attempt " +
                           std::to_string(attempts) + " failed (" + reason +
                           "); re-dealing in " +
                           util::fmt(sched.at(p).eligible_at - t, 0) + " ms");
        } else {
            ledger.quarantine(p, attempts, reason);
        }
    };

    // Declare a host dead: every lease it still owns fails (re-deal with
    // backoff elsewhere); leases it was slow on (owner already moved) just
    // vanish with it. The fd closes; a reconnecting agent is a new host.
    // Without a listener the sweep now aborts, so the host's leases are
    // undealt instead: the lost host, not the cell, ended those attempts,
    // and --resume must run them again.
    const auto host_dead = [&](Host& h, const std::string& why) {
        util::log_warn("service: " + h.name() + " " + why +
                       (h.leased.empty()
                            ? ""
                            : " with " + std::to_string(h.leased.size()) +
                                  " lease(s)"));
        for (const auto& [p, attempt] : h.leased) {
            if (!holds(h, p, attempt)) continue;
            if (listener.fd < 0)
                sched.undeal(p);
            else
                attempt_failed(p, h.name() + " " + why);
        }
        h.leased.clear();
        h.sock.close();
    };

    // The one kAck handler, in the main loop and in the shutdown grace
    // alike: free the slot of the attempt the ack names, and let the ledger
    // record the cell or count the copy as a duplicate.
    const auto on_ack = [&](Host& h, const std::string& payload) {
        std::string id;
        CellResult r;
        if (!decode_manifest_line(payload, id, r)) {
            host_dead(h, "sent an undecodable ack");
            return;
        }
        const std::int64_t p = ledger.position(id);
        if (p >= 0) h.release(static_cast<std::size_t>(p), r.attempts - 1);
        switch (ledger.record(id, r,
                              h.name() + ", attempt " +
                                  std::to_string(r.attempts))) {
            case SweepLedger::Recorded::kNew:
                sched.ack(static_cast<std::size_t>(p));
                ++h.cells_done;
                break;
            case SweepLedger::Recorded::kDuplicate:
                break;
            case SweepLedger::Recorded::kForeign:
                // Belt-and-braces behind the join fingerprint: an id that
                // is neither recorded nor pending is not a cell of this
                // sweep.
                host_dead(h, "acked a cell outside this sweep (" + id + ")");
        }
    };

    const auto purge_dead = [&]() {
        hosts.erase(std::remove_if(hosts.begin(), hosts.end(),
                                   [](const std::unique_ptr<Host>& h) {
                                       return h->sock.fd < 0;
                                   }),
                    hosts.end());
    };

    // Poll `listen_fd` (-1: none) and every host; fds[i + 1] is fd_host[i]'s.
    std::vector<pollfd> fds;
    std::vector<Host*> fd_host;
    const auto poll_hosts = [&](int listen_fd, double timeout_ms) {
        fds.assign(1, pollfd{listen_fd, POLLIN, 0});
        fd_host.clear();
        for (auto& hp : hosts) {
            fds.push_back({hp->sock.fd, POLLIN, 0});
            fd_host.push_back(hp.get());
        }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(std::max(timeout_ms, 0.0))));
    };

    const util::Stopwatch run_clock;
    double next_beat = opts.progress_sec;
    double next_hb = now_ms() + svc.heartbeat_ms;
    while (!sched.all_done()) {
        const bool draining = svc.drain || drain_requested();
        if (draining && sched.in_flight_count() == 0) break;
        if (hosts.empty() && listener.fd < 0) {
            // No listener, so nobody can replace the in-process host. What
            // it threw, if anything, says more than this.
            local_agent.get();
            tensor::check(false,
                          "supervisor: all workers dead with " +
                              std::to_string(sched.size() -
                                             sched.done_count()) +
                              " cell(s) undone; fix the fault and rerun "
                              "with --resume");
        }
        const double now = now_ms();

        // Deal: fill each joined host to its capacity, lowest-index
        // eligible cell first. Draining deals nothing — in-flight leases
        // run out (ack or expiry) and the loop exits above.
        if (!draining) {
            for (auto& hp : hosts) {
                Host& h = *hp;
                if (h.sock.fd < 0 || !h.joined) continue;
                while (static_cast<std::int64_t>(h.leased.size()) <
                       h.capacity) {
                    const std::int64_t p = sched.next_eligible(now);
                    if (p < 0) break;
                    const std::size_t pi = static_cast<std::size_t>(p);
                    const std::size_t ci = sched.at(pi).cell_index;
                    sched.deal(pi, now, lease_ms, h.id);
                    const std::int64_t attempt = sched.attempts_of(pi) - 1;
                    if (!net::send_frame(h.sock.fd, wire::MsgType::kDeal,
                                         wire::encode_deal(
                                             static_cast<std::int64_t>(ci),
                                             attempt))) {
                        sched.undeal(pi);  // never reached the host
                        host_dead(h, "rejected a deal (send failed)");
                        break;
                    }
                    h.leased.emplace_back(pi, attempt);
                    XS_DLOG("service: dealt cell " + cells[ci].id() + " to " +
                            h.name());
                }
            }
            purge_dead();
        }

        // Poll: the listener (if any) plus every host connection. Timeout
        // is the nearest lease/backoff event, our next beacon, or the
        // progress beat — capped so heartbeat-miss checks keep running.
        double timeout = sched.next_event_ms(now, 250.0);
        timeout = std::min(timeout, next_hb - now);
        if (opts.progress_sec > 0.0)
            timeout = std::min(timeout,
                               (next_beat - run_clock.seconds()) * 1000.0);
        poll_hosts(listener.fd, timeout);

        if (fds[0].revents != 0) {
            for (int cfd; (cfd = net::accept_conn(listener.fd)) >= 0;)
                add_host(cfd);
        }

        for (std::size_t fi = 1; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0) continue;
            Host& h = *fd_host[fi - 1];
            h.last_heard = now_ms();
            h.reader.fill();
            wire::Message msg;
            while (h.sock.fd >= 0 && h.reader.pop(msg)) {
                switch (msg.type) {
                    case wire::MsgType::kJoin: {
                        std::string fp;
                        std::int64_t capacity = 0;
                        if (!net::decode_join(msg.payload, fp, capacity)) {
                            net::send_frame(h.sock.fd, wire::MsgType::kFail,
                                            "join rejected: malformed join");
                            host_dead(h, "sent a malformed join");
                            break;
                        }
                        if (fp != join_fp) {
                            util::log_error(
                                "service: " + h.name() +
                                " joined with a mismatched fingerprint "
                                "(service: " + join_fp + ", agent: " + fp +
                                "); rejecting — the agent is running a "
                                "different grid, spec, or experiment config");
                            net::send_frame(
                                h.sock.fd, wire::MsgType::kFail,
                                "join rejected: fingerprint mismatch "
                                "(service: " + join_fp + ")");
                            host_dead(h, "fingerprint mismatch");
                            break;
                        }
                        h.joined = true;
                        h.capacity = capacity;
                        ++hosts_joined;
                        if (!net::send_frame(
                                h.sock.fd, wire::MsgType::kJoin,
                                net::encode_join_ok(svc.heartbeat_ms,
                                                    lease_ms)))
                            host_dead(h, "join reply failed");
                        else
                            util::log_info("service: " + h.name() +
                                           " joined with capacity " +
                                           std::to_string(capacity));
                        break;
                    }
                    case wire::MsgType::kHeartbeat:
                        break;  // last_heard already refreshed
                    case wire::MsgType::kAck:
                        on_ack(h, msg.payload);
                        break;
                    case wire::MsgType::kFail: {
                        std::int64_t ci = -1, attempt = -1;
                        std::string reason;
                        if (!net::decode_fail(msg.payload, ci, attempt,
                                              reason)) {
                            host_dead(h, "sent an undecodable fail");
                            break;
                        }
                        if (ci >= static_cast<std::int64_t>(cells.size()))
                            break;
                        const std::int64_t p = ledger.position(
                            cells[static_cast<std::size_t>(ci)].id());
                        if (p < 0) break;
                        h.release(static_cast<std::size_t>(p), attempt);
                        // A fail counts only against the attempt it names,
                        // held by this host. A fail from an attempt whose
                        // lease already expired is stale — even when the
                        // re-deal went to this same host — and just frees
                        // the worker slot.
                        if (holds(h, static_cast<std::size_t>(p), attempt))
                            attempt_failed(static_cast<std::size_t>(p),
                                           reason);
                        break;
                    }
                    case wire::MsgType::kCapacity:
                        // A worker slot retired: deal no more than the
                        // host's live workers.
                        if (!net::decode_capacity(msg.payload, h.capacity))
                            host_dead(h, "sent a malformed capacity");
                        break;
                    default:  // kMetrics only answers kShutdown, sent below
                        host_dead(h, "sent unexpected message type " +
                                         std::to_string(static_cast<int>(
                                             msg.type)));
                }
            }
            if (h.sock.fd >= 0 && h.reader.finished())
                host_dead(h, "disconnected");
        }
        purge_dead();

        // Lease expiry is the watchdog: take the cell back and re-deal it,
        // counted as a budget overrun like a slow in-process cell. The slow
        // host's connection stays open — its late ack, if it ever lands, is
        // deduped by the ledger; an agent re-dealt its own expired cell
        // stops the old attempt's worker itself.
        for (const std::size_t p : sched.expired(now_ms())) {
            ++watchdog_kills;
            ledger.lease_overrun(p);
            attempt_failed(p, "lease expired on host" +
                                  std::to_string(sched.at(p).owner) +
                                  " after " + util::fmt(lease_ms, 0) + " ms");
        }

        // Beacons out, silence check in. Any frame refreshes last_heard, so
        // a busy host never needs explicit heartbeats to stay alive.
        const double tnow = now_ms();
        if (tnow >= next_hb) {
            next_hb = tnow + svc.heartbeat_ms;
            for (auto& hp : hosts)
                if (hp->sock.fd >= 0 && hp->joined &&
                    !net::send_frame(hp->sock.fd, wire::MsgType::kHeartbeat,
                                     ""))
                    host_dead(*hp, "heartbeat send failed");
        }
        for (auto& hp : hosts)
            if (hp->sock.fd >= 0 &&
                tnow - hp->last_heard >
                    svc.heartbeat_ms *
                        static_cast<double>(svc.heartbeat_misses))
                host_dead(*hp,
                          "missed " + std::to_string(svc.heartbeat_misses) +
                              " heartbeats");
        purge_dead();

        if (opts.progress_sec > 0.0 && run_clock.seconds() >= next_beat) {
            const double elapsed = run_clock.seconds();
            next_beat = elapsed + opts.progress_sec;
            std::string host_line;
            for (const auto& hp : hosts) {
                if (!hp->joined) continue;
                host_line += " " + hp->name() + ": " +
                             std::to_string(hp->leased.size()) + " busy/" +
                             std::to_string(hp->cells_done) + " done";
            }
            ledger.progress(elapsed, sched.retries(),
                            "; hosts: " + std::to_string(hosts.size()) +
                                " connected" +
                                (host_line.empty() ? "" : " —" + host_line));
        }
    }

    // Orderly shutdown: every connected host gets kShutdown, drains its
    // local pool (its own 5 s grace), and answers with one kMetrics frame.
    // Our grace covers theirs; a host that dies instead contributes nothing.
    // A delayed ack can land meanwhile (the sweep finished off a re-deal
    // while the slow host was still computing).
    for (auto& hp : hosts)
        if (hp->sock.fd >= 0 &&
            !net::send_frame(hp->sock.fd, wire::MsgType::kShutdown, ""))
            hp->sock.close();
    purge_dead();
    const double grace_deadline = now_ms() + 10000.0;
    while (!hosts.empty() && now_ms() < grace_deadline) {
        poll_hosts(-1, grace_deadline - now_ms());
        for (std::size_t fi = 1; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0) continue;
            Host& h = *fd_host[fi - 1];
            h.reader.fill();
            wire::Message msg;
            while (h.sock.fd >= 0 && h.reader.pop(msg)) {
                if (msg.type == wire::MsgType::kAck) {
                    on_ack(h, msg.payload);
                } else if (msg.type == wire::MsgType::kMetrics) {
                    util::metrics::Snapshot snap;
                    if (util::metrics::from_json(msg.payload, snap))
                        util::metrics::merge(host_metrics, snap);
                    else
                        util::log_warn("service: discarding an unparsable "
                                       "metrics frame from " + h.name());
                    h.sock.close();  // the metrics frame is the goodbye
                }
            }
            if (h.reader.finished()) h.sock.close();
        }
        purge_dead();
    }
    hosts.clear();
    const std::int64_t worker_restarts =
        local_agent.valid() ? local_agent.get() : 0;

    SweepSummary summary = ledger.finish(host_metrics);
    summary.hosts_joined = hosts_joined;
    summary.watchdog_kills = watchdog_kills;
    summary.cell_retries = sched.retries();
    summary.worker_restarts = worker_restarts;
    return summary;
}

}  // namespace

// The join handshake must prove the agent expands the *exact same grid*,
// not just the same experiment config: sweep_config_fingerprint covers the
// inputs that change a cell's result (it gates manifest resume, where a
// grown grid is legal), but an agent running --sizes=32 against a
// --sizes=16 service shares that fingerprint while producing cells this
// sweep never dealt — which must never blend into the manifest. So the
// wire fingerprint appends an order-sensitive FNV-1a hash over every
// expanded cell id plus the cell count.
std::string join_fingerprint(const std::string& config_fp,
                             const std::vector<SweepCell>& cells) {
    std::uint64_t h = 1469598103934665603ull;
    for (const SweepCell& c : cells) {
        for (const char ch : c.id())
            h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
        h = (h ^ 0xffu) * 1099511628211ull;  // id separator
    }
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i, h >>= 4) hex[i] = "0123456789abcdef"[h & 15];
    return config_fp + "/grid-" + std::to_string(cells.size()) + "-" + hex;
}

void request_drain() { g_drain.store(true, std::memory_order_relaxed); }
bool drain_requested() { return g_drain.load(std::memory_order_relaxed); }

SweepSummary run_service(core::ExperimentContext& ctx, const SweepSpec& spec,
                         const SweepOptions& opts, const ServiceOptions& svc) {
    return coordinate(ctx, spec, opts, svc, nullptr);
}

SweepSummary run_supervised(core::ExperimentContext& ctx, const SweepSpec& spec,
                            const SweepOptions& opts,
                            const SupervisorOptions& sup) {
    tensor::check(!sup.worker_cmd.empty(),
                  "supervisor: worker_cmd is empty (use "
                  "worker_command_from_argv)");
    tensor::check(sup.workers >= 1, "supervisor: need at least one worker");
    ServiceOptions svc;  // no listener; heartbeat defaults
    svc.max_cell_retries = sup.max_cell_retries;
    svc.retry_backoff_ms = sup.retry_backoff_ms;
    AgentOptions local;
    local.workers = sup.workers;
    local.worker_cmd = sup.worker_cmd;
    local.max_worker_restarts = sup.max_worker_restarts;
    return coordinate(ctx, spec, opts, svc, &local);
}

int run_agent(core::ExperimentContext& ctx, const SweepSpec& spec,
              const AgentOptions& opts) {
    util::set_log_prefix("[agent " + std::to_string(::getpid()) + "] ");
    tensor::check(!opts.worker_cmd.empty(),
                  "agent: worker_cmd is empty (use worker_command_from_argv)");
    tensor::check(opts.workers >= 1, "agent: need at least one worker");

    const std::vector<SweepCell> cells = spec.expand();
    const std::string join_fp =
        join_fingerprint(sweep_config_fingerprint(ctx, spec), cells);

    // Prepare every distinct model in the grid before forking workers: the
    // agent doesn't know which cells it will be dealt.
    std::vector<std::size_t> all(cells.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    prepare_models(ctx, cells, all);

    ::signal(SIGPIPE, SIG_IGN);
    AgentState st(cells, opts, static_cast<std::size_t>(opts.workers), true);

    // (Re)connect with capped exponential backoff, join, and run the event
    // loop until the service shuts us down; a lost link reconnects.
    for (std::int64_t failures = 0;;) {  // consecutive failed connects/joins
        if (opts.max_reconnects >= 0 && failures > opts.max_reconnects) {
            util::log_error("agent: giving up after " +
                            std::to_string(failures - 1) +
                            " reconnect attempt(s)");
            st.pool.shutdown(5000.0, nullptr);
            return 1;
        }
        if (failures > 0) {
            const double backoff = std::min(
                opts.reconnect_backoff_ms *
                    std::pow(2.0, static_cast<double>(failures - 1)),
                opts.reconnect_backoff_cap_ms);
            ::usleep(static_cast<useconds_t>(backoff * 1000.0));
        }
        std::string err;
        const OwnedFd link{net::connect_to(opts.host, opts.port, &err)};
        if (link.fd < 0) {
            util::log_warn("agent: " + err);
            ++failures;
            continue;
        }
        wire::MessageReader sock(link.fd);
        double heartbeat_ms = 1000.0, lease_ms = 0.0;
        const Joined joined =
            agent_join(link.fd, sock, join_fp,
                       static_cast<std::int64_t>(st.pool.alive_count()),
                       heartbeat_ms, lease_ms);
        if (joined == Joined::kRejected) {
            st.pool.shutdown(5000.0, nullptr);
            return 1;
        }
        if (joined == Joined::kLost) {
            util::log_warn("agent: join failed; reconnecting");
            ++failures;
            continue;
        }
        util::log_info("agent: joined " + opts.host + ":" +
                       std::to_string(opts.port) + " (heartbeat " +
                       util::fmt(heartbeat_ms, 0) + " ms, lease " +
                       util::fmt(lease_ms, 0) + " ms)");
        switch (agent_loop(st, link.fd, sock, heartbeat_ms, lease_ms)) {
            case LinkEnd::kShutdown:
                util::log_info("agent: shut down by the service");
                return 0;
            case LinkEnd::kPoolDead:
                return 1;
            case LinkEnd::kLost:
                failures = 1;  // reconnect after the first backoff step
        }
    }
}

}  // namespace xs::sweep
