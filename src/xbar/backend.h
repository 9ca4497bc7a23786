// Interchangeable crossbar evaluation backends (DESIGN.md §8).
//
// A CrossbarBackend turns one tile's programmed conductances G into the
// effective non-ideal conductances G′ plus the tile's non-ideality factor.
// Three implementations cover the fidelity/throughput space the framework
// needs (RxNN and GENIEx make the same split):
//
//  * circuit — the exact warm-started line-relaxation solve of xbar/solver.h
//              folded through the voltage-division model of xbar/degrade.h.
//              The fidelity reference; bit-identical to the historical
//              evaluator path.
//  * fast    — a calibration-folded linear surrogate: the parasitic network
//              is solved once per *tile composition bucket* (tiles bucketed
//              by mean conductance) at the uniform calibration point, and the
//              folded voltage-division ratios α_ij are reused for every tile
//              in the bucket, across Monte-Carlo repeats. O(X²) per tile
//              instead of a relaxation solve.
//  * ideal   — pass-through (G′ = G, NF = 0), for pure quantization / fault
//              studies with the parasitic stage disabled.
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

enum class BackendKind { kCircuit, kFast, kIdeal };

// "circuit" / "fast" / "ideal".
const char* backend_name(BackendKind kind);
// Inverse of backend_name; throws on unknown names.
BackendKind backend_from_name(const std::string& name);

class CrossbarBackend {
public:
    virtual ~CrossbarBackend() = default;
    virtual BackendKind kind() const = 0;
    const char* name() const { return backend_name(kind()); }

    // Degrade one X×X conductance tile into out.g_eff (storage reused when
    // already tile-shaped) and fill out.nf / out.converged / out.sweeps.
    // `ws` is per-worker scratch; steady state performs no heap allocation.
    virtual void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                         TileDegradeResult& out) const = 0;
};

// Exact parasitic solve (the Thomas line-relaxation pipeline). When `warm_start` is
// false every solve starts from the flat initial guess, making results
// independent of the tile partition (DESIGN.md §7).
class CircuitBackend final : public CrossbarBackend {
public:
    CircuitBackend(const CrossbarConfig& config, bool warm_start);

    BackendKind kind() const override { return BackendKind::kCircuit; }
    void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                 TileDegradeResult& out) const override;

    // Degrade `lanes` (≤ kMaxSolveLanes) same-size tiles in one lane-batched
    // solve. Lane r is bit-identical to degrade(g[r]) with the same warm
    // state: in cold mode every lane restarts flat per call, in warm mode
    // each lane carries its own warm chain across calls.
    void degrade_batch(const tensor::Tensor* const* g, int lanes,
                       BatchedDegradeWorkspace& ws,
                       TileDegradeResult* const* out) const;

    const CircuitSolver& solver() const { return solver_; }

private:
    CircuitSolver solver_;
    bool warm_start_;
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
    explicit FastBackend(const CrossbarConfig& config,
                         std::int64_t buckets = 64);

    BackendKind kind() const override { return BackendKind::kFast; }
    void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                 TileDegradeResult& out) const override;

    // Calibration solves performed so far (≤ buckets; for tests/telemetry).
    std::int64_t calibrations() const;

private:
    struct Calibration {
        tensor::Tensor alpha;   // X×X voltage-division ratios
        int sweeps = 0;         // relaxation sweeps of the bucket solve
        bool converged = true;  // bucket solve reached tolerance; every
                                // tile folded through this α inherits it
    };
    // Bucket → α field, built lazily. A calibration is a pure function of
    // (config, bucket count, bucket index), so the cache is shared
    // process-wide between backends of identical configuration — a sweep's
    // Monte-Carlo repeats and same-config cells never re-solve a bucket.
    // The hot path is one lock-free acquire-load per tile array: `slots`
    // holds an atomic pointer per bucket, published with release order once
    // built. The mutex only serializes builders (and never blocks readers
    // of already-published buckets).
    struct SharedCache {
        explicit SharedCache(std::int64_t buckets)
            : slots(static_cast<std::size_t>(buckets)) {}
        std::vector<std::atomic<const Calibration*>> slots;
        std::mutex build_mu;
        std::vector<std::unique_ptr<Calibration>> owned;  // under build_mu
    };
    const Calibration& calibration_for(std::int64_t bucket) const;

    CrossbarConfig config_;
    CircuitSolver solver_;
    std::int64_t buckets_;
    double g_lo_, g_step_;  // bucket grid over [G_MIN/2, 2·G_MAX]
    std::shared_ptr<SharedCache> cache_;
};

// Pass-through: G′ = G, NF = 0. The stage builder skips the parasitic stage
// entirely for this backend; the implementation exists so the backend axis
// is total and directly exercisable.
class IdealBackend final : public CrossbarBackend {
public:
    explicit IdealBackend(const CrossbarConfig& config) : config_(config) {}

    BackendKind kind() const override { return BackendKind::kIdeal; }
    void degrade(const tensor::Tensor& g, DegradeWorkspace& ws,
                 TileDegradeResult& out) const override;

private:
    CrossbarConfig config_;
};

// Factory over the kind axis. `warm_start` only affects kCircuit;
// `fast_buckets` only affects kFast.
std::unique_ptr<CrossbarBackend> make_backend(BackendKind kind,
                                              const CrossbarConfig& config,
                                              bool warm_start,
                                              std::int64_t fast_buckets);

}  // namespace xs::xbar
