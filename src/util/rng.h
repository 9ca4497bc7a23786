// Deterministic random number generation for reproducible experiments.
//
// All stochastic components in the library (weight init, dataset synthesis,
// pruning-at-init scores, device variation) draw from xs::util::Rng so that a
// single seed reproduces an entire experiment end to end.
#pragma once

#include <cstdint>
#include <cmath>
#include <vector>

namespace xs::util {

// xoshiro256** by Blackman & Vigna — fast, high-quality, and trivially
// seedable via splitmix64. Not cryptographic; fine for simulation.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    // Re-initialize the full state from a single 64-bit seed (splitmix64).
    void reseed(std::uint64_t seed);

    // Uniform 64-bit integer.
    std::uint64_t next_u64();

    // Uniform double in [0, 1).
    double uniform();

    // Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    // Uniform integer in [0, n) for n > 0.
    std::uint64_t uniform_index(std::uint64_t n) { return next_u64() % n; }

    // Standard normal via the Marsaglia–Tsang ziggurat (128 layers): one
    // u64 draw, one table compare and one multiply on the ~98 % fast path —
    // several times faster than Box–Muller, and exact (the wedge/tail
    // rejection corrects the distribution, it does not approximate it).
    double normal();

    // Normal with mean/stddev.
    double normal(double mean, double stddev) { return mean + stddev * normal(); }

    // Fill `out` with `count` standard-normal draws, bit-identical to
    // calling normal() `count` times. Draws are produced in blocks so the
    // ~98 % fast path runs as straight-line code over independent elements
    // (the serial loop stalls on the RNG state chain and the layer-table
    // loads); a block containing a rejection replays its buffered stream
    // values in exact consumption order. Bulk consumers (device variation)
    // are several times faster through this entry point.
    void normal_fill(double* out, std::size_t count);

    // Fisher–Yates shuffle of indices [0, n).
    std::vector<std::size_t> permutation(std::size_t n);

    // Derive an independent child stream; stable for a given (state, tag).
    Rng split(std::uint64_t tag) const;

private:
    // Rejected ziggurat candidates re-enter the fast path here.
    double normal_slow_path(double x, std::size_t layer);

    std::uint64_t s_[4] = {};
};

}  // namespace xs::util
