// Transport-layer coverage for the multi-host sweep service (sweep/net.h):
// loopback listener/connector round trips, the kJoin/kCapacity/kFail payload
// codecs, the "net-send" fault-injection sites (drop, partial write, delay,
// disconnect) observed from the *receiving* side — a torn frame must
// surface as EOF, never as a chimera message — and the wire::write_message
// EAGAIN path on a nonblocking socket with a tiny send buffer (a short
// write must park on poll and deliver the frame whole, not busy-loop or
// drop bytes). Plus the manifest {"metrics":...} record loader semantics
// (last record wins) that the service's resume carry-forward rides on.
#include "sweep/manifest.h"
#include "sweep/net.h"
#include "sweep/wire.h"
#include "util/faultinject.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace xs::sweep {
namespace {

// net.h sends rely on the process-wide SIGPIPE ignore its callers (the
// service, the agent) install; this suite writes into severed sockets on
// purpose, so it installs the same one.
const bool sigpipe_ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
}();

// Pump a MessageReader until one frame pops, EOF, or the deadline.
bool read_one(wire::MessageReader& reader, int fd, wire::Message& out,
              int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
        if (reader.pop(out)) return true;
        if (reader.finished()) return false;
        if (std::chrono::steady_clock::now() >= deadline) return false;
        pollfd pfd{fd, POLLIN, 0};
        ::poll(&pfd, 1, 50);
        reader.fill();
    }
}

// A connected nonblocking AF_UNIX pair standing in for a TCP connection:
// identical stream semantics, no port allocation, and SO_SNDBUF is
// shrinkable for the EAGAIN test.
struct SocketPair {
    int a = -1, b = -1;
    SocketPair() {
        int sv[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        a = sv[0];
        b = sv[1];
        ::fcntl(a, F_SETFL, O_NONBLOCK);
        ::fcntl(b, F_SETFL, O_NONBLOCK);
    }
    ~SocketPair() {
        if (a >= 0) ::close(a);
        if (b >= 0) ::close(b);
    }
};

// Clear any armed fault plan and the process-wide send ordinal, both ways.
struct FaultScope {
    explicit FaultScope(const std::string& plan) {
        net::reset_frames_sent();
        util::fault::install_plan(plan);
    }
    ~FaultScope() {
        util::fault::install_plan("");
        net::reset_frames_sent();
    }
};

TEST(SweepNet, ParseHostport) {
    std::string host;
    std::uint16_t port = 0;
    EXPECT_TRUE(net::parse_hostport("127.0.0.1:7473", host, port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7473);
    EXPECT_TRUE(net::parse_hostport("my-box:80", host, port));
    EXPECT_EQ(host, "my-box");
    EXPECT_EQ(port, 80);
    EXPECT_FALSE(net::parse_hostport("no-port", host, port));
    EXPECT_FALSE(net::parse_hostport(":7473", host, port));
    EXPECT_FALSE(net::parse_hostport("host:", host, port));
    EXPECT_FALSE(net::parse_hostport("host:notanumber", host, port));
    EXPECT_FALSE(net::parse_hostport("host:99999", host, port));
}

TEST(SweepNet, JoinCodecsRoundTrip) {
    std::string fp;
    std::int64_t capacity = 0;
    EXPECT_TRUE(net::decode_join(net::encode_join("abc123", 8), fp, capacity));
    EXPECT_EQ(fp, "abc123");
    EXPECT_EQ(capacity, 8);
    EXPECT_FALSE(net::decode_join("", fp, capacity));
    EXPECT_FALSE(net::decode_join("fingerprint-only", fp, capacity));

    // kCapacity: the agent's live worker count, a non-negative decimal.
    EXPECT_TRUE(net::decode_capacity("0", capacity));
    EXPECT_EQ(capacity, 0);
    EXPECT_TRUE(net::decode_capacity("3", capacity));
    EXPECT_EQ(capacity, 3);
    for (const char* bad : {"", "two", "-1", "3x", "3 1"}) {
        EXPECT_FALSE(net::decode_capacity(bad, capacity)) << bad;
        EXPECT_EQ(capacity, 3) << bad;  // left untouched
    }

    double hb = 0.0, lease = 0.0;
    EXPECT_TRUE(
        net::decode_join_ok(net::encode_join_ok(1500.0, 60000.0), hb, lease));
    EXPECT_EQ(hb, 1500.0);
    EXPECT_EQ(lease, 60000.0);
    EXPECT_FALSE(net::decode_join_ok("not numbers", hb, lease));
}

TEST(SweepNet, FailCodecCarriesReasonWithSpaces) {
    std::int64_t ci = -1, attempt = -1;
    std::string reason;
    EXPECT_TRUE(net::decode_fail(
        net::encode_fail(7, 1, "worker killed by signal 9"), ci, attempt,
        reason));
    EXPECT_EQ(ci, 7);
    EXPECT_EQ(attempt, 1);
    EXPECT_EQ(reason, "worker killed by signal 9");
    EXPECT_TRUE(net::decode_fail(net::encode_fail(0, 0, ""), ci, attempt,
                                 reason));
    EXPECT_EQ(ci, 0);
    EXPECT_EQ(attempt, 0);
    EXPECT_EQ(reason, "");
    EXPECT_FALSE(net::decode_fail("", ci, attempt, reason));
    EXPECT_FALSE(net::decode_fail("notanumber 0 reason", ci, attempt, reason));
    // The attempt is mandatory: a payload without one never decodes, even
    // when its reason happens to start with a number.
    EXPECT_FALSE(net::decode_fail("7 worker killed", ci, attempt, reason));
    EXPECT_FALSE(net::decode_fail("7 reason", ci, attempt, reason));
    EXPECT_FALSE(net::decode_fail("7 1", ci, attempt, reason));
    EXPECT_FALSE(net::decode_fail("7 -1 reason", ci, attempt, reason));
}

TEST(SweepNet, LoopbackListenConnectFrameRoundTrip) {
    FaultScope clean("");
    std::string err;
    const int lfd = net::listen_on(0, &err);
    ASSERT_GE(lfd, 0) << err;
    const int port = net::bound_port(lfd);
    ASSERT_GT(port, 0);

    const int cfd =
        net::connect_to("127.0.0.1", static_cast<std::uint16_t>(port), &err);
    ASSERT_GE(cfd, 0) << err;

    int sfd = -1;
    for (int i = 0; i < 100 && sfd < 0; ++i) {
        pollfd pfd{lfd, POLLIN, 0};
        ::poll(&pfd, 1, 50);
        sfd = net::accept_conn(lfd);
    }
    ASSERT_GE(sfd, 0);

    // Client → server, then server → client, through send_frame.
    EXPECT_TRUE(net::send_frame(cfd, wire::MsgType::kJoin,
                                net::encode_join("fp", 4)));
    wire::MessageReader server(sfd);
    wire::Message msg;
    ASSERT_TRUE(read_one(server, sfd, msg));
    EXPECT_EQ(msg.type, wire::MsgType::kJoin);
    EXPECT_EQ(msg.payload, net::encode_join("fp", 4));

    EXPECT_TRUE(net::send_frame(sfd, wire::MsgType::kHeartbeat, ""));
    wire::MessageReader client(cfd);
    ASSERT_TRUE(read_one(client, cfd, msg));
    EXPECT_EQ(msg.type, wire::MsgType::kHeartbeat);
    EXPECT_TRUE(msg.payload.empty());

    ::close(cfd);
    ASSERT_FALSE(read_one(server, sfd, msg, 1000));
    EXPECT_TRUE(server.finished());  // peer close reads as EOF, not an error
    ::close(sfd);
    ::close(lfd);
}

// Satellite: wire::write_message on a *nonblocking* fd whose send buffer is
// far smaller than the frame. Every short write / EAGAIN must park on poll
// and resume exactly where it left off — the whole frame arrives intact
// while a slow reader drains the other end.
TEST(SweepNet, NonblockingShortWriteDeliversWholeFrame) {
    FaultScope clean("");
    SocketPair sp;
    const int small = 4096;
    ASSERT_EQ(::setsockopt(sp.a, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
              0);

    std::string payload(512 * 1024, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>('a' + (i * 131) % 26);

    bool wrote = false;
    std::thread writer([&] {
        wrote = wire::write_message(sp.a, wire::MsgType::kAck, payload);
    });

    wire::MessageReader reader(sp.b);
    wire::Message msg;
    const bool got = read_one(reader, sp.b, msg, 20000);
    writer.join();
    ASSERT_TRUE(wrote);
    ASSERT_TRUE(got);
    EXPECT_EQ(msg.type, wire::MsgType::kAck);
    EXPECT_EQ(msg.payload, payload);  // no dropped or duplicated bytes
}

TEST(SweepNet, NetDropSwallowsExactlyTheTargetFrame) {
    SocketPair sp;
    FaultScope fault("net-drop@net-send:0");
    // Ordinal 0 is swallowed but reported sent; ordinal 1 goes through.
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kAck, "dropped"));
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kAck, "delivered"));
    EXPECT_EQ(net::frames_sent(), 2);

    wire::MessageReader reader(sp.b);
    wire::Message msg;
    ASSERT_TRUE(read_one(reader, sp.b, msg));
    EXPECT_EQ(msg.payload, "delivered");  // first frame truly vanished
    EXPECT_FALSE(reader.pop(msg));
}

TEST(SweepNet, NetPartialWriteTearsFrameAndPeerSeesEofNotChimera) {
    SocketPair sp;
    FaultScope fault("net-partial-write@net-send:0");
    EXPECT_FALSE(net::send_frame(sp.a, wire::MsgType::kAck,
                                 "a payload long enough to tear in half"));

    // The peer got a frame *prefix* then EOF: the reader must report the
    // stream finished without ever yielding a message from the torn bytes.
    wire::MessageReader reader(sp.b);
    wire::Message msg;
    EXPECT_FALSE(read_one(reader, sp.b, msg, 2000));
    EXPECT_TRUE(reader.finished());
}

TEST(SweepNet, NetDisconnectSeversWithoutSending) {
    SocketPair sp;
    FaultScope fault("net-disconnect@net-send:0");
    EXPECT_FALSE(net::send_frame(sp.a, wire::MsgType::kHeartbeat, ""));

    wire::MessageReader reader(sp.b);
    wire::Message msg;
    EXPECT_FALSE(read_one(reader, sp.b, msg, 2000));
    EXPECT_TRUE(reader.finished());

    // The connection is gone from the sender's side too.
    util::fault::install_plan("");
    EXPECT_FALSE(net::send_frame(sp.a, wire::MsgType::kHeartbeat, ""));
}

TEST(SweepNet, NetDelayStallsThenDeliversIntact) {
    // The stall duration is read from the environment once per process;
    // nothing before this test triggers kNetDelay, so the cache picks this
    // value up. Agents under test get theirs via their own environment.
    ::setenv("XS_FAULT_NET_DELAY_MS", "80", 1);
    SocketPair sp;
    FaultScope fault("net-delay@net-send:0");
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kAck, "late but whole"));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(elapsed_ms, 75.0);

    wire::MessageReader reader(sp.b);
    wire::Message msg;
    ASSERT_TRUE(read_one(reader, sp.b, msg));
    EXPECT_EQ(msg.payload, "late but whole");
    ::unsetenv("XS_FAULT_NET_DELAY_MS");
}

TEST(SweepNet, NetSendAckSiteCountsOnlyAckFrames) {
    SocketPair sp;
    // The ack-ordinal site makes "this host's Nth result" targetable where
    // the raw frame ordinal depends on how many heartbeats interleave:
    // here ack-ordinal 1 is the third frame sent, and only it vanishes.
    FaultScope fault("net-drop@net-send-ack:1");
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kAck, "first result"));
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kHeartbeat, ""));
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kAck, "second result"));
    EXPECT_TRUE(net::send_frame(sp.a, wire::MsgType::kAck, "third result"));

    wire::MessageReader reader(sp.b);
    wire::Message msg;
    ASSERT_TRUE(read_one(reader, sp.b, msg));
    EXPECT_EQ(msg.payload, "first result");
    ASSERT_TRUE(read_one(reader, sp.b, msg));
    EXPECT_EQ(msg.type, wire::MsgType::kHeartbeat);
    ASSERT_TRUE(read_one(reader, sp.b, msg));
    EXPECT_EQ(msg.payload, "third result");  // the second truly vanished
    EXPECT_FALSE(reader.pop(msg));
}

// Satellite: a resumed run appends a fresh {"metrics":...} record, so a
// manifest accumulates several — the loader keeps the last (the newest
// carries the accumulated totals forward) and counts none as corrupt.
TEST(SweepNet, ManifestMetricsRecordLastWins) {
    const auto dir = std::filesystem::temp_directory_path() / "xs_sweep_net";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "metrics_lastwins.jsonl").string();

    util::metrics::Snapshot first, second;
    first.counters["sweep.cells.done"] = 2;
    second.counters["sweep.cells.done"] = 4;
    {
        ManifestWriter w(path, false);
        w.record_config("fp");
        CellResult r;
        r.accuracy = 91.5;
        w.record("cell-a", r);
        w.record_metrics(util::metrics::to_json(first));
        w.record("cell-b", r);
        w.record_metrics(util::metrics::to_json(second));
        ASSERT_TRUE(w.ok());
    }

    const ManifestLoad load = load_manifest_file(path);
    EXPECT_EQ(load.skipped_lines, 0);
    EXPECT_EQ(load.results.size(), 2u);
    EXPECT_EQ(load.config, "fp");
    EXPECT_EQ(load.metrics_json, util::metrics::to_json(second));
}

}  // namespace
}  // namespace xs::sweep
