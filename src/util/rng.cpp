#include "util/rng.h"

#include <cstdlib>
#include <limits>

namespace xs::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Marsaglia–Tsang ziggurat tables for the standard normal, 128 strips.
// Strip edges descend from x[0] = R to x[127] = 0; every strip (and the
// base strip including the tail beyond R) has area kZigV. Classic constants
// R = 3.442619855899, V = 9.91256303526217e-3 (their 2000 JSS paper); the
// recursion f(x_i) = f(x_{i-1}) + V/x_{i-1} lands exactly on f = 1 at the
// 127th edge, which is pinned rather than computed (the canonical tables do
// the same — the last log would round negative).
//   x[i] — outer edge of strip i (x[0] = R … x[127] = 0)
//   f[i] — exp(-x[i]²/2)  (f[127] = 1)
//   w[i] — mantissa→x scale: strip i samples x = m·w[i], |m| < 2^51
//   k[i] — fast-accept threshold: |m| < k[i]  ⟺  |x| inside the strip core
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;
constexpr double kZigM = 2251799813685248.0;  // 2^51

struct ZigguratTables {
    double x[128];
    double f[128];
    double k[128];
    double w[128];

    ZigguratTables() {
        x[0] = kZigR;
        f[0] = std::exp(-0.5 * kZigR * kZigR);
        for (int i = 1; i <= 126; ++i) {
            x[i] = std::sqrt(-2.0 * std::log(kZigV / x[i - 1] + f[i - 1]));
            f[i] = std::exp(-0.5 * x[i] * x[i]);
        }
        x[127] = 0.0;
        f[127] = 1.0;
        // Strip 0 is the base: a rectangle of effective width V/f(R) whose
        // |x| > R portion funnels into the exact tail sampler.
        const double x_base = kZigV / f[0];
        w[0] = x_base / kZigM;
        k[0] = (kZigR / x_base) * kZigM;
        // Strip i ≥ 1 spans |x| ≤ x[i-1] horizontally; accept outright when
        // |x| < x[i] (fully under the curve), else test the wedge. k[127]
        // is 0: the innermost strip always takes the wedge test.
        for (int i = 1; i < 128; ++i) {
            w[i] = x[i - 1] / kZigM;
            k[i] = (x[i] / x[i - 1]) * kZigM;
        }
    }
};

const ZigguratTables& zig() {
    static const ZigguratTables tables;
    return tables;
}

// Ziggurat slow path (tail / wedge) against an arbitrary u64 source, so the
// serial and block entry points share one implementation — any divergence
// would silently break the bit-compatibility contract between them.
// Returns NaN to signal "redraw".
template <class Pop>
double slow_path_pop(const ZigguratTables& t, Pop&& pop, double x,
                     std::size_t layer) {
    const auto uni = [&]() {
        return static_cast<double>(pop() >> 11) * 0x1.0p-53;
    };
    if (layer == 0) {
        // Tail beyond R (Marsaglia's exact exponential-rejection method).
        double xt, yt;
        do {
            double u1;
            do {
                u1 = uni();
            } while (u1 <= 1e-300);
            double u2;
            do {
                u2 = uni();
            } while (u2 <= 1e-300);
            xt = -std::log(u1) / kZigR;
            yt = -std::log(u2);
        } while (yt + yt < xt * xt);
        return x > 0 ? kZigR + xt : -(kZigR + xt);
    }
    // Wedge between the layer's rectangle and the density curve.
    const double fx = std::exp(-0.5 * x * x);
    if (t.f[layer] + uni() * (t.f[layer - 1] - t.f[layer]) < fx) return x;
    return std::numeric_limits<double>::quiet_NaN();  // redraw
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double Rng::uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::normal() {
    const ZigguratTables& t = zig();
    for (;;) {
        const std::uint64_t u = next_u64();
        // Low 7 bits pick the layer; bits 12..63 form a signed 51-bit
        // mantissa (plus sign) — disjoint bit ranges of one draw.
        const std::size_t layer = static_cast<std::size_t>(u & 127);
        const std::int64_t m = static_cast<std::int64_t>(u >> 12) -
                               static_cast<std::int64_t>(kZigM);  // [-2^51, 2^51)
        const double x = static_cast<double>(m) * t.w[layer];
        if (static_cast<double>(std::llabs(m)) < t.k[layer])
            return x;  // inside the strip core
        const double r = normal_slow_path(x, layer);
        if (r == r) return r;  // NaN signals "redraw"
    }
}

double Rng::normal_slow_path(double x, std::size_t layer) {
    return slow_path_pop(zig(), [this]() { return next_u64(); }, x, layer);
}

void Rng::normal_fill(double* out, std::size_t count) {
    const ZigguratTables& t = zig();
    constexpr int B = 16;
    std::uint64_t u[B];
    double x[B];
    bool ok[B];
    std::size_t i = 0;
    while (i < count) {
        if (count - i < static_cast<std::size_t>(B)) {
            out[i++] = normal();  // short tail: plain serial draws
            continue;
        }
        for (int b = 0; b < B; ++b) u[b] = next_u64();
        bool all = true;
        for (int b = 0; b < B; ++b) {
            const std::size_t layer = static_cast<std::size_t>(u[b] & 127);
            const std::int64_t m = static_cast<std::int64_t>(u[b] >> 12) -
                                   static_cast<std::int64_t>(kZigM);
            x[b] = static_cast<double>(m) * t.w[layer];
            ok[b] = static_cast<double>(std::llabs(m)) < t.k[layer];
            all = all && ok[b];
        }
        if (all) {
            for (int b = 0; b < B; ++b) out[i + b] = x[b];
            i += B;
            continue;
        }
        // A draw in this block needs the slow path. The buffer holds exactly
        // the next B stream values, so replaying them front-to-back — with
        // the slow path's extra uniforms pulled from the same FIFO (then the
        // live stream once it drains) — consumes every stream position in
        // the same order as B serial normal() calls: identical bits.
        int pos = 0;
        const auto pop = [&]() {
            return pos < B ? u[pos++] : next_u64();
        };
        while (pos < B && i < count) {
            double r;
            for (;;) {
                const std::uint64_t uu = pop();
                const std::size_t layer = static_cast<std::size_t>(uu & 127);
                const std::int64_t m = static_cast<std::int64_t>(uu >> 12) -
                                       static_cast<std::int64_t>(kZigM);
                const double xx = static_cast<double>(m) * t.w[layer];
                if (static_cast<double>(std::llabs(m)) < t.k[layer]) {
                    r = xx;
                    break;
                }
                r = slow_path_pop(t, pop, xx, layer);
                if (r == r) break;  // NaN signals "redraw"
            }
            out[i++] = r;
        }
    }
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(uniform_index(i));
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

Rng Rng::split(std::uint64_t tag) const {
    // Mix the current state with the tag through splitmix so child streams
    // are decorrelated from the parent and from each other.
    std::uint64_t seed = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(seed));
}

}  // namespace xs::util
