// The crossbar backends behind the tile ladder's parasitic step
// (xbar/pipeline.h, DESIGN.md §8).
//
// A CrossbarBackend turns one tile's programmed conductances G into the
// effective non-ideal conductances G′ plus the tile's non-ideality factor.
// Two implementations cover the fidelity/throughput split RxNN and GENIEx
// make:
//
//  * circuit — the exact cold-started line-relaxation solve of xbar/solver.h
//              folded through the voltage-division model of xbar/degrade.h,
//              one tile per run of the blocked kernel. The fidelity
//              reference; a pure function of the tile.
//  * fast    — a calibration-folded linear surrogate: the parasitic network
//              is solved once per *tile composition bucket* (tiles bucketed
//              by mean conductance) at the uniform calibration point, and the
//              folded voltage-division ratios α_ij are reused for every tile
//              in the bucket, across Monte-Carlo repeats. O(X²) per tile
//              instead of a relaxation solve.
//
// The third value of the backend axis, `ideal`, has no backend: it is the
// ladder without a parasitic step (G′ = G, NF = 0).
//
// Backends are stateless per tile call except for caller-owned workspaces
// (and the fast backend's internal calibration cache, which is thread-safe
// and deterministic: a bucket's α field depends only on the bucket center,
// never on which tile or thread triggered it).
#pragma once

#include "tensor/tensor.h"
#include "xbar/config.h"
#include "xbar/degrade.h"
#include "xbar/solver.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xs::xbar {

// The backend axis. kIdeal selects no backend: no parasitic step runs.
enum class BackendKind { kCircuit, kFast, kIdeal };

// "circuit" / "fast" / "ideal".
const char* backend_name(BackendKind kind);
// Inverse of backend_name; throws on unknown names.
BackendKind backend_from_name(const std::string& name);

class CrossbarBackend {
public:
    virtual ~CrossbarBackend() = default;

    // Degrade one X×X conductance tile into out.g_eff (storage reused when
    // already tile-shaped) and fill out.nf / out.converged / out.sweeps.
    // `ws` is per-worker scratch; steady state performs no heap allocation.
    virtual void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                         TileDegradeResult& out) const = 0;
};

// Exact parasitic solve (the Thomas line-relaxation pipeline). Every solve
// starts from the flat initial guess, so results are independent of the
// tile partition and the lane grouping (DESIGN.md §7).
class CircuitBackend final : public CrossbarBackend {
public:
    explicit CircuitBackend(const CrossbarConfig& config);

    // One tile through degrade_tile_batched.
    void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                 TileDegradeResult& out) const override;

    const CircuitSolver& solver() const { return solver_; }

private:
    CircuitSolver solver_;
};

// Calibration-folded linear surrogate (DESIGN.md §8). Tiles are bucketed by
// mean conductance over the physical range [G_MIN/2, 2·G_MAX] (the variation
// clamp bounds); each bucket's α field comes from one cold parasitic solve
// of the uniform tile G ≡ bucket-center at the all-v_nom input:
//     α_ij = (V_row(i,j) − V_col(i,j)) / v_nom,   G′_ij = α_ij · G_ij.
// The α field captures the position dependence (devices far from driver and
// sense sag most) and, through the bucket, the first-order composition
// dependence (denser tiles sag more); it is exact for the uniform tile at
// the calibration input. NF follows without a solve: per column,
// NF_j = 1 − Σ_i α_ij G_ij / Σ_i G_ij.
class FastBackend final : public CrossbarBackend {
public:
    // Tile composition buckets over [G_MIN/2, 2·G_MAX].
    static constexpr std::int64_t kBuckets = 64;

    explicit FastBackend(const CrossbarConfig& config);

    void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                 TileDegradeResult& out) const override;

    // Calibration solves performed so far (≤ kBuckets; for tests/telemetry).
    std::int64_t calibrations() const;

private:
    struct Calibration {
        tensor::Tensor alpha;   // X×X voltage-division ratios
        int sweeps = 0;         // relaxation sweeps of the bucket solve
        bool converged = true;  // bucket solve reached tolerance; every
                                // tile folded through this α inherits it
    };
    // Bucket → α field, built lazily. A calibration is a pure function of
    // (config, bucket index), so the cache is shared process-wide between
    // backends of identical configuration — a sweep's Monte-Carlo repeats
    // and same-config cells never re-solve a bucket.
    // The hot path is one lock-free acquire-load per tile array: `slots`
    // holds an atomic pointer per bucket, published with release order once
    // built. The mutex only serializes builders (and never blocks readers
    // of already-published buckets).
    struct SharedCache {
        SharedCache() : slots(static_cast<std::size_t>(kBuckets)) {}
        std::vector<std::atomic<const Calibration*>> slots;
        std::mutex build_mu;
        std::vector<std::unique_ptr<Calibration>> owned;  // under build_mu
    };
    const Calibration& calibration_for(std::int64_t bucket) const;

    CrossbarConfig config_;
    CircuitSolver solver_;
    double g_lo_, g_step_;  // bucket grid over [G_MIN/2, 2·G_MAX]
    std::shared_ptr<SharedCache> cache_;
};

}  // namespace xs::xbar
