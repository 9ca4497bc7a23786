// Fault-tolerant sweep service: the one coordinator (DESIGN.md §9/§11).
//
// The coordinator deals cells to agent hosts, each driving a forked worker
// pool (sweep/pool.h). It keeps leases, hosts and the wire; the grid, the
// manifest, the counts and the aggregate CSV are its SweepLedger's
// (sweep/runner.h), the one the in-process runner keeps too. It has two
// front ends over the same loop and the same agent. run_service (examples/sweep_serve.cpp) listens, and any number of
// agent hosts (sweep_runner --agent=host:port) connect over TCP
// (sweep/net.h). run_supervised (sweep/supervisor.h, sweep_runner
// --workers=N) has no listener: its one host is an in-process agent on a
// thread, linked by a socketpair.
//
// Cells are scheduled as *leases* (sweep/lease.h): a deal carries a
// deadline derived from the per-cell wall-time budget, and a cell still
// unacknowledged past it is re-dealt with exponential backoff — while the
// slow host's connection stays open, so its eventual late acknowledgement
// arrives and is deduped against the recorded results. The fsync'd manifest
// append is the only ack that counts: one ack handler, in the main loop and
// in the shutdown grace alike, hands every result to the ledger, which
// counts a duplicate (slow-but-alive host, or an agent replaying its outbox
// after a reconnect) and drops it, never recording it twice, so the
// aggregate CSV stays byte-identical to a single-process run at any host
// count, across kills, partitions, and reconnects.
//
// Liveness is heartbeat-based: the join handshake tells the agent the
// service's heartbeat cadence and lease duration, both sides beacon every
// interval, and a host silent for `heartbeat_misses` intervals is declared
// dead — its in-flight cells re-dealt, its connection closed. Agents
// reconnect with capped exponential backoff and a fresh kJoin handshake
// (the spec/experiment fingerprint is re-checked on every join; a mismatch
// is rejected loudly), buffering outbound acks while disconnected.
#pragma once

#include "core/experiments.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xs::sweep {

struct ServiceOptions {
    // TCP port to listen on; ignored when listen_fd >= 0.
    std::uint16_t port = 7473;
    // Pre-bound listening socket (tests bind an ephemeral port with
    // net::listen_on(0) and pass it here); the service owns and closes it.
    int listen_fd = -1;
    // Heartbeat cadence dictated to agents in the join reply, and the
    // service's own beacon interval.
    double heartbeat_ms = 1000.0;
    // A host silent for this many heartbeat intervals is declared dead.
    std::int64_t heartbeat_misses = 3;
    // Re-deal a failed cell this many times after its first attempt before
    // quarantining it (total attempts = retries + 1). Lease expiries and
    // host deaths consume attempts like worker crashes do.
    std::int64_t max_cell_retries = 2;
    // First re-deal waits this long, doubling per attempt.
    double retry_backoff_ms = 250.0;
    // Start draining immediately: deal nothing, wait out in-flight leases,
    // collect per-host metrics, aggregate what the manifest holds, and
    // return (the manifest keeps the sweep resumable). request_drain()
    // flips the same switch mid-run (SIGTERM in sweep_serve).
    bool drain = false;
};

// Run the sweep as a coordinator service that agents join over TCP;
// opts.cell_budget_ms becomes the lease duration. Blocks until every
// pending cell is acknowledged or quarantined (or the service drains).
// Throws only on coordinator-side failures (manifest I/O, listen failure);
// host deaths and per-cell failures are retried or quarantined.
SweepSummary run_service(core::ExperimentContext& ctx, const SweepSpec& spec,
                         const SweepOptions& opts, const ServiceOptions& svc);

// The kJoin fingerprint: the config fingerprint plus the expanded cell
// count and an order-sensitive hash over every cell id, so a joining agent
// proves it expands the exact same grid.
std::string join_fingerprint(const std::string& config_fp,
                             const std::vector<SweepCell>& cells);

// Async-signal-safe drain switch for the running service (and a test hook):
// stop dealing, finish in-flight leases, shut down, stay resumable.
void request_drain();
bool drain_requested();

struct AgentOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = 7473;
    // Local worker processes; advertised to the service as this host's
    // deal capacity, which shrinks as worker slots retire.
    std::int64_t workers = 2;
    // Worker argv prefix, as SupervisorOptions::worker_cmd.
    std::vector<std::string> worker_cmd;
    std::int64_t max_worker_restarts = 4;
    // Reconnect backoff: first retry waits backoff_ms, doubling per
    // consecutive failure, capped at backoff_cap_ms; a successful join
    // resets the ladder.
    double reconnect_backoff_ms = 250.0;
    double reconnect_backoff_cap_ms = 5000.0;
    // Consecutive failed connect/join attempts before the agent gives up
    // (negative = keep trying forever).
    std::int64_t max_reconnects = -1;
};

// Run this process as an agent host: prepare every distinct model the grid
// can deal (agents don't know their assignment up front), spawn the local
// worker pool, join the service, and run the agent's event loop — bridging
// deals to workers and acks and fails back — until the service sends
// kShutdown, reconnecting whenever the link drops. Returns a process exit
// code; a fingerprint rejection is fatal (no reconnect loop can fix it).
int run_agent(core::ExperimentContext& ctx, const SweepSpec& spec,
              const AgentOptions& opts);

}  // namespace xs::sweep
