// Lease-based cell scheduling for the sweep service's coordinator
// (sweep/service.h) — DESIGN.md §9/§11.
//
// The coordinator's problem: a set of undone cells must each be dealt to
// exactly one executor at a time, re-dealt with exponential backoff when
// the attempt fails (worker death, thrown error, host death, lease
// expiry), and quarantined after the retry budget. The executor is an
// opaque owner token here — an agent host's id — mapped back to the
// coordinator's own host structures.
//
// A *lease* is a deal with a deadline: the coordinator derives it from the
// per-cell wall-time budget, and a cell still in flight past its deadline
// is taken back and re-dealt. The coordinator cannot reach a remote
// process, so expiry only re-deals; an agent re-dealt its own expired cell
// SIGKILLs the worker still on it, and an agent's local watchdog kills a
// worker that outlives the lease. A slow host's eventual duplicate ack is
// deduped against the recorded results — the durable manifest append is
// the only ack that counts, so determinism is untouched either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xs::sweep {

class LeaseScheduler {
public:
    struct Entry {
        std::size_t cell_index = 0;  // into the expanded grid
        std::int64_t attempts = 0;   // deals so far (also indexes the backoff)
        double eligible_at = 0.0;    // steady-clock ms; backoff gate
        double deadline = 0.0;       // lease expiry; 0 = no lease
        std::int64_t owner = -1;     // executor token while in flight
        bool in_flight = false;
        bool done = false;  // acknowledged ok or quarantined
    };

    // `max_retries` re-deals after the first attempt (total attempts =
    // max_retries + 1); first re-deal backs off `backoff_ms`, doubling per
    // attempt.
    LeaseScheduler(std::int64_t max_retries, double backoff_ms)
        : max_retries_(max_retries), backoff_ms_(backoff_ms) {}

    void add(std::size_t cell_index) {
        Entry e;
        e.cell_index = cell_index;
        cells_.push_back(e);
    }

    std::size_t size() const { return cells_.size(); }
    bool all_done() const { return done_count_ == cells_.size(); }
    std::size_t done_count() const { return done_count_; }
    std::size_t in_flight_count() const;
    const Entry& at(std::size_t p) const { return cells_[p]; }

    // Lowest-index cell that is neither done nor in flight and whose
    // backoff has expired; -1 when nothing is eligible right now.
    std::int64_t next_eligible(double now) const;

    // Lease cell p to `owner`: consumes an attempt, arms the deadline
    // (now + lease_ms; 0 disables).
    void deal(std::size_t p, double now, double lease_ms, std::int64_t owner);

    // The deal never reached an executor (e.g. the write raced its death):
    // roll the attempt back so the retry is free.
    void undeal(std::size_t p);

    // Cell p completed (its manifest append is durable).
    void ack(std::size_t p);

    enum class FailOutcome {
        kRetry,       // backoff armed; the cell becomes eligible later
        kQuarantine,  // retry budget exhausted; caller records the failure
    };
    // The in-flight attempt on p failed (executor died, threw, or the lease
    // expired). On kQuarantine the cell is marked done — the caller must
    // append the failure-taxonomy manifest record.
    FailOutcome fail(std::size_t p, double now);

    // In-flight cells whose lease deadline has passed.
    std::vector<std::size_t> expired(double now) const;

    // Milliseconds until the next scheduling event (a backoff expiry or a
    // lease deadline), clamped to [0, cap]; cap when nothing is pending.
    double next_event_ms(double now, double cap) const;

    std::int64_t retries() const { return retries_; }
    std::int64_t attempts_of(std::size_t p) const {
        return cells_[p].attempts;
    }

private:
    std::vector<Entry> cells_;
    std::int64_t max_retries_;
    double backoff_ms_;
    std::size_t done_count_ = 0;
    std::int64_t retries_ = 0;  // re-deals scheduled by fail()
};

}  // namespace xs::sweep
