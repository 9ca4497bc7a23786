#include "sweep/net.h"

#include "util/faultinject.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace xs::sweep::net {

namespace {

std::atomic<std::int64_t> g_frames_sent{0};
std::atomic<std::int64_t> g_acks_sent{0};  // kAck frames only

void set_errstr(std::string* err, const std::string& what) {
    if (err) *err = what + ": " + std::strerror(errno);
}

// CLOEXEC so forked workers never inherit a peer's socket (a worker holding
// the coordinator's fd open would mask the coordinator's EOF-on-death, the
// same trap the worker pool's pipes guard against).
bool prep_fd(int fd) {
    if (::fcntl(fd, F_SETFD, FD_CLOEXEC) != 0) return false;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
        return false;
    int one = 1;
    // NODELAY may legitimately fail on non-TCP fds (socketpair tests);
    // latency is a tuning concern there, not correctness.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
}

// All of `num` as one decimal number (strtoll's syntax) of at least `min`.
bool parse_count(const std::string& num, long long min, std::int64_t& out) {
    if (num.empty()) return false;
    char* end = nullptr;
    const long long v = std::strtoll(num.c_str(), &end, 10);
    if (end != num.c_str() + num.size() || v < min) return false;
    out = v;
    return true;
}

}  // namespace

int listen_on(std::uint16_t port, std::string* err) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        set_errstr(err, "socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0 || !prep_fd(fd)) {
        set_errstr(err, "bind/listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

int bound_port(int listen_fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        return -1;
    return static_cast<int>(ntohs(addr.sin_port));
}

int accept_conn(int listen_fd) {
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            if (!prep_fd(fd)) {
                ::close(fd);
                return -1;
            }
            return fd;
        }
        if (errno == EINTR) continue;
        return -1;  // EAGAIN (nothing pending) or a real error
    }
}

int connect_to(const std::string& host, std::uint16_t port, std::string* err) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(port);
    const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
    if (rc != 0 || res == nullptr) {
        if (err) *err = "getaddrinfo(" + host + "): " + ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0 && prep_fd(fd))
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) set_errstr(err, "connect(" + host + ":" + port_str + ")");
    return fd;
}

bool parse_hostport(const std::string& s, std::string& host,
                    std::uint16_t& port) {
    const auto colon = s.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size())
        return false;
    char* end = nullptr;
    const std::string port_str = s.substr(colon + 1);
    const long v = std::strtol(port_str.c_str(), &end, 10);
    if (end != port_str.c_str() + port_str.size() || v <= 0 || v > 65535)
        return false;
    host = s.substr(0, colon);
    port = static_cast<std::uint16_t>(v);
    return true;
}

bool send_frame(int fd, wire::MsgType type, const std::string& payload) {
    const std::int64_t ordinal =
        g_frames_sent.fetch_add(1, std::memory_order_relaxed);
    util::fault::Action planned = util::fault::at("net-send", ordinal);
    if (type == wire::MsgType::kAck) {
        // Type-gated seam: the process-wide frame ordinal shifts with
        // heartbeat cadence and worker boot time (machine load decides
        // whether a host's Nth frame is an ack or an idle heartbeat), but
        // "the Nth result this host reports" is stable — so the failure
        // matrix aims its torn frames, blips, and stalls at acks directly.
        const std::int64_t ack_ordinal =
            g_acks_sent.fetch_add(1, std::memory_order_relaxed);
        const util::fault::Action on_ack =
            util::fault::at("net-send-ack", ack_ordinal);
        if (on_ack != util::fault::Action::kNone) planned = on_ack;
    }
    switch (planned) {
        case util::fault::Action::kNetDrop:
            // The bytes vanish on the floor; the sender believes they went.
            return true;
        case util::fault::Action::kNetDelay:
            util::fault::execute(planned, "net-send", ordinal);  // sleeps
            break;
        case util::fault::Action::kNetPartialWrite: {
            // Half a frame, then the wire goes dead: the peer's
            // MessageReader must park the torn prefix and report EOF, never
            // surface a chimera frame.
            std::string frame(5, '\0');
            frame[0] = static_cast<char>(payload.size() & 0xff);
            frame[1] = static_cast<char>((payload.size() >> 8) & 0xff);
            frame[2] = static_cast<char>((payload.size() >> 16) & 0xff);
            frame[3] = static_cast<char>((payload.size() >> 24) & 0xff);
            frame[4] = static_cast<char>(type);
            frame += payload;
            frame.resize(frame.size() > 2 ? frame.size() / 2 : frame.size());
            ::write(fd, frame.data(), frame.size());
            ::shutdown(fd, SHUT_RDWR);
            return false;
        }
        case util::fault::Action::kNetDisconnect:
            ::shutdown(fd, SHUT_RDWR);
            return false;
        default:
            break;
    }
    return wire::write_message(fd, type, payload);
}

std::int64_t frames_sent() {
    return g_frames_sent.load(std::memory_order_relaxed);
}

void reset_frames_sent() {
    g_frames_sent.store(0, std::memory_order_relaxed);
    g_acks_sent.store(0, std::memory_order_relaxed);
}

std::string encode_join(const std::string& fingerprint,
                        std::int64_t capacity) {
    return fingerprint + " " + std::to_string(capacity);
}

bool decode_join(const std::string& payload, std::string& fingerprint,
                 std::int64_t& capacity) {
    const auto space = payload.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        !parse_count(payload.substr(space + 1), 1, capacity))
        return false;
    fingerprint = payload.substr(0, space);
    return true;
}

bool decode_capacity(const std::string& payload, std::int64_t& capacity) {
    return parse_count(payload, 0, capacity);
}

std::string encode_join_ok(double heartbeat_ms, double lease_ms) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g %.17g", heartbeat_ms, lease_ms);
    return buf;
}

bool decode_join_ok(const std::string& payload, double& heartbeat_ms,
                    double& lease_ms) {
    double hb = 0.0, lease = 0.0;
    if (std::sscanf(payload.c_str(), "%lf %lf", &hb, &lease) != 2)
        return false;
    heartbeat_ms = hb;
    lease_ms = lease;
    return true;
}

std::string encode_fail(std::int64_t cell_index, std::int64_t attempt,
                        const std::string& reason) {
    return std::to_string(cell_index) + " " + std::to_string(attempt) + " " +
           reason;
}

bool decode_fail(const std::string& payload, std::int64_t& cell_index,
                 std::int64_t& attempt, std::string& reason) {
    // Two nonnegative decimal fields, each closed by one space.
    std::size_t pos = 0;
    for (std::int64_t* field : {&cell_index, &attempt}) {
        const auto space = payload.find(' ', pos);
        if (space == std::string::npos || space == pos) return false;
        if (!parse_count(payload.substr(pos, space - pos), 0, *field))
            return false;
        pos = space + 1;
    }
    reason = payload.substr(pos);
    return true;
}

}  // namespace xs::sweep::net
