// Length-prefixed message framing for the sweep supervision transports
// (DESIGN.md §9/§11). The coordinator, its agents, and their worker
// processes exchange small framed messages: a 4-byte little-endian payload
// length, a 1-byte type tag, then the payload bytes. The framing is
// transport-agnostic — anonymous pipes between an agent and its workers,
// TCP sockets or a socketpair between the coordinator and its agents
// (sweep/net.h) — because all of them deliver bytes in order but not in
// frames; the receiving side reassembles, nonblocking reads through a
// buffering MessageReader (driven by poll), blocking reads through
// read_message().
//
// Message flow:
//   worker/agent → coordinator:
//       kHello  (ready for work; pipe transport only)
//       kJoin   (payload = "<fingerprint> <capacity>": an agent host offers
//                its worker capacity; a fingerprint mismatch is rejected)
//       kAck    (payload = the cell's manifest JSONL line)
//       kFail   (payload = error text on pipes;
//                "<cell index> <attempt> <reason>" on sockets, where many
//                cells are in flight per peer: the text alone can't name
//                the cell, and a host re-dealt its own expired cell must
//                not have the old attempt's fail count against the new)
//       kHeartbeat (liveness beacon on the service cadence)
//       kCapacity (payload = "<capacity>": a worker slot retired, so the
//                host shrinks to its live workers)
//       kMetrics (payload = util/metrics.h snapshot JSON,
//                 sent once in response to kShutdown)
//   coordinator → worker/agent:
//       kJoin   (payload = "<heartbeat_ms> <lease_ms>": join accepted,
//                here is the cadence and the per-deal lease budget)
//       kDeal   (payload = "<cell index> <attempt>")
//       kShutdown
//
// The kAck payload *is* the manifest line: the coordinator appends it to the
// durable manifest and that append is the acknowledgement — a worker that
// dies after computing but before the coordinator records loses nothing but
// wall time, because the cell is simply re-dealt and recomputes the same
// deterministic bytes. A *duplicate* ack (a slow-but-alive host finishing a
// cell whose lease already expired and was re-dealt) is deduped against the
// recorded results: the first durable append wins, later copies are
// dropped, so a cell is never double-recorded.
#pragma once

#include <cstdint>
#include <string>

namespace xs::sweep::wire {

enum class MsgType : std::uint8_t {
    kHello = 1,
    kDeal = 2,
    kShutdown = 3,
    kAck = 4,
    kFail = 5,
    kMetrics = 6,
    kJoin = 7,       // agent → service handshake / service → agent accept
    kHeartbeat = 8,  // liveness beacon (either direction, empty payload)
    kCapacity = 9,   // agent → service: a worker slot retired
};

struct Message {
    MsgType type = MsgType::kHello;
    std::string payload;
};

// Payloads are manifest lines and error strings; anything larger than this
// is a corrupt stream, not a message.
constexpr std::uint32_t kMaxPayload = 1u << 20;

// Write one full frame (EINTR-safe, handles short writes). On a
// *nonblocking* fd a short write followed by EAGAIN polls for writability
// and resumes where it left off — the frame is either delivered whole or
// not at all, never torn, and the call never busy-loops (sockets hit this
// constantly; pipes rarely did). Returns false when the peer is gone
// (EPIPE/EBADF) or on any other write error.
bool write_message(int fd, MsgType type, const std::string& payload);

// Blocking read of one full frame. Returns false on EOF or a corrupt frame.
bool read_message(int fd, Message& out);

// Frame reassembly over a nonblocking fd. fill() drains whatever bytes are
// readable right now; pop() yields completed frames. EOF is sticky and
// reported only after every buffered frame has been popped.
class MessageReader {
public:
    explicit MessageReader(int fd = -1) : fd_(fd) {}
    void reset(int fd) {
        fd_ = fd;
        eof_ = false;
        corrupt_ = false;
        buf_.clear();
    }

    // Drain readable bytes into the buffer. Returns false once the stream
    // is finished (EOF or corrupt frame); buffered frames remain poppable.
    bool fill();
    bool pop(Message& out);
    bool finished() const { return eof_ || corrupt_; }

private:
    int fd_ = -1;
    bool eof_ = false;
    bool corrupt_ = false;
    std::string buf_;
};

// Deal payload codec: "<cell index> <attempt>" (both decimal).
std::string encode_deal(std::int64_t cell_index, std::int64_t attempt);
bool decode_deal(const std::string& payload, std::int64_t& cell_index,
                 std::int64_t& attempt);

}  // namespace xs::sweep::wire
