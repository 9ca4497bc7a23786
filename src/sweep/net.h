// TCP transport for the distributed sweep service (DESIGN.md §11).
//
// The sweep deal/ack protocol (sweep/wire.h) was built transport-agnostic:
// frames are length-prefixed bytes, reassembled by MessageReader on the
// receiving side. This header moves those frames onto loopback or LAN
// sockets so a `sweep_serve` coordinator can deal cells to agent hosts:
//
//   - listener/connector helpers that hand back CLOEXEC'd, TCP_NODELAY,
//     nonblocking fds (the coordinator's event loop is poll-driven and a
//     slow peer must never wedge it; small frames want NODELAY because the
//     deal → ack round trip is latency, not bandwidth);
//   - send_frame(): wire::write_message plus the network fault-injection
//     sites (util/faultinject.h "net-send": net-drop, net-partial-write,
//     net-delay, net-disconnect), so the whole socket failure matrix is
//     drivable from in-repo tests over loopback;
//   - codecs for the kJoin handshake ("<fingerprint> <capacity>" from the
//     agent, "<heartbeat_ms> <lease_ms>" back on accept) and the socket
//     kFail payload ("<cell index> <attempt> <reason>" — on sockets many
//     cells are in flight per peer, so failures must name their cell, and
//     an expired attempt re-dealt to the same host must not be mistaken
//     for its re-deal).
//
// SIGPIPE-proofing: sends use MSG_NOSIGNAL semantics via the process-wide
// SIGPIPE ignore the callers already install (a dead peer surfaces as EPIPE
// from write, never as a signal).
#pragma once

#include "sweep/wire.h"

#include <cstdint>
#include <string>

namespace xs::sweep::net {

// Bind + listen on `port` (0 picks an ephemeral port; read it back with
// bound_port). The fd is CLOEXEC and nonblocking, SO_REUSEADDR set so a
// restarted coordinator rebinds immediately. Returns -1 and fills `err` on
// failure.
int listen_on(std::uint16_t port, std::string* err);

// The port a listener fd actually bound (ephemeral-port discovery).
int bound_port(int listen_fd);

// Accept one pending connection: CLOEXEC, TCP_NODELAY, nonblocking.
// Returns -1 when nothing is pending (EAGAIN) or on error.
int accept_conn(int listen_fd);

// Connect to host:port (blocking connect, then the fd is switched to
// nonblocking + TCP_NODELAY + CLOEXEC). Returns -1 and fills `err` on
// failure — callers own the reconnect/backoff policy.
int connect_to(const std::string& host, std::uint16_t port, std::string* err);

// Split "host:port". Returns false on malformed input.
bool parse_hostport(const std::string& s, std::string& host,
                    std::uint16_t& port);

// Send one frame through the "net-send" fault seam. Without an armed fault
// this is exactly wire::write_message (whole frame or false, EAGAIN parks
// on poll). Injected faults: net-drop returns true having sent nothing,
// net-delay stalls then sends, net-partial-write sends a frame prefix and
// severs the connection (returns false), net-disconnect severs without
// sending (returns false). "Severs" is shutdown(2), so the peer sees EOF —
// exactly what a died host or dropped route looks like.
bool send_frame(int fd, wire::MsgType type, const std::string& payload);

// Testing hook: the process-wide "net-send" ordinal (how many frames
// send_frame has been asked to send), and a reset for test isolation.
std::int64_t frames_sent();
void reset_frames_sent();

// ---- payload codecs ----

// Agent → service: "<fingerprint> <capacity>". The fingerprint is the
// sweep_config_fingerprint() of the agent's spec/experiment flags; the
// service rejects a mismatch loudly instead of blending two configurations
// into one manifest.
std::string encode_join(const std::string& fingerprint, std::int64_t capacity);
bool decode_join(const std::string& payload, std::string& fingerprint,
                 std::int64_t& capacity);

// Agent → service when a worker slot retires: "<capacity>", the agent's live
// worker count, a non-negative decimal.
bool decode_capacity(const std::string& payload, std::int64_t& capacity);

// Service → agent on accepted join: "<heartbeat_ms> <lease_ms>" — the
// heartbeat cadence the agent must beat and the per-deal lease budget it
// should use as its local watchdog (0 = no lease).
std::string encode_join_ok(double heartbeat_ms, double lease_ms);
bool decode_join_ok(const std::string& payload, double& heartbeat_ms,
                    double& lease_ms);

// Agent → service cell failure: "<cell index> <attempt> <reason>", the
// attempt being the one the failed worker was dealt.
std::string encode_fail(std::int64_t cell_index, std::int64_t attempt,
                        const std::string& reason);
bool decode_fail(const std::string& payload, std::int64_t& cell_index,
                 std::int64_t& attempt, std::string& reason);

}  // namespace xs::sweep::net
