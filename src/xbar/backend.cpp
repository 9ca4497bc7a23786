#include "xbar/backend.h"

#include "util/metrics.h"
#include "util/trace.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace xs::xbar {

using tensor::Tensor;

const char* backend_name(BackendKind kind) {
    switch (kind) {
        case BackendKind::kCircuit: return "circuit";
        case BackendKind::kFast: return "fast";
        case BackendKind::kIdeal: return "ideal";
    }
    return "circuit";
}

BackendKind backend_from_name(const std::string& name) {
    if (name == "circuit") return BackendKind::kCircuit;
    if (name == "fast") return BackendKind::kFast;
    if (name == "ideal") return BackendKind::kIdeal;
    tensor::check(false, "xbar: unknown backend '" + name +
                             "' (expected circuit, fast, or ideal)");
    return BackendKind::kCircuit;
}

CircuitBackend::CircuitBackend(const CrossbarConfig& config)
    : solver_(config) {}

void CircuitBackend::degrade(const Tensor& g, DegradeWorkspace& ws,
                             TileDegradeResult& out) const {
    XS_COUNT("xbar.circuit.tiles", 1);
    const Tensor* gp[1] = {&g};
    TileDegradeResult* op[1] = {&out};
    degrade_tile_batched(gp, 1, solver_, ws, op);
}

namespace {

// Process-wide registry of calibration caches, keyed by every parameter the
// α field depends on. Entries live for the process (bounded by the distinct
// crossbar configurations a run touches — a handful per sweep).
std::string fast_cache_key(const CrossbarConfig& c) {
    std::ostringstream os;
    os.precision(17);
    os << c.size << '/' << c.device.r_min << '/' << c.device.r_max << '/'
       << c.parasitics.r_driver << '/' << c.parasitics.r_wire_row << '/'
       << c.parasitics.r_wire_col << '/' << c.parasitics.r_sense << '/'
       << c.parasitics.v_nom;
    return os.str();
}

}  // namespace

FastBackend::FastBackend(const CrossbarConfig& config)
    : config_(config), solver_(config) {
    // The variation stage clamps conductances to [G_MIN/2, 2·G_MAX], so tile
    // means live in the same interval.
    g_lo_ = config.device.g_min() * 0.5;
    const double g_hi = config.device.g_max() * 2.0;
    g_step_ = (g_hi - g_lo_) / static_cast<double>(kBuckets);

    static std::mutex registry_mu;
    static std::map<std::string, std::shared_ptr<SharedCache>> registry;
    std::lock_guard<std::mutex> lock(registry_mu);
    auto& entry = registry[fast_cache_key(config_)];
    if (!entry) entry = std::make_shared<SharedCache>();
    cache_ = entry;
}

std::int64_t FastBackend::calibrations() const {
    std::lock_guard<std::mutex> lock(cache_->build_mu);
    return static_cast<std::int64_t>(cache_->owned.size());
}

const FastBackend::Calibration& FastBackend::calibration_for(
    std::int64_t bucket) const {
    // Hoisted out of the branches: registering inside a branch would
    // allocate on the first cache *hit*, after warm-up already promised a
    // zero-allocation steady state.
    static const util::metrics::Counter hits =
        util::metrics::counter("xbar.fast.calibration_hits");
    static const util::metrics::Counter builds =
        util::metrics::counter("xbar.fast.calibration_builds");
    // Lock-free fast path: the pointer is published with release order once
    // the calibration is fully built.
    auto& slot = cache_->slots[static_cast<std::size_t>(bucket)];
    if (const Calibration* cal = slot.load(std::memory_order_acquire)) {
        hits.add(1);
        return *cal;
    }

    std::lock_guard<std::mutex> lock(cache_->build_mu);
    if (const Calibration* cal = slot.load(std::memory_order_acquire)) {
        hits.add(1);
        return *cal;  // another builder published it meanwhile
    }
    builds.add(1);
    XS_TRACE_SPAN("fast.calibrate");

    // One exact solve of the uniform bucket-center tile at the calibration
    // input. Cold-started and a function of the bucket only, so the cached
    // field is identical no matter which tile or thread populates it.
    const std::int64_t n = config_.size;
    const double center =
        g_lo_ + (static_cast<double>(bucket) + 0.5) * g_step_;
    Tensor g_cal({n, n});
    float* gc = g_cal.data();
    for (std::int64_t k = 0; k < n * n; ++k)
        gc[k] = static_cast<float>(center);
    const std::vector<double> v_in(static_cast<std::size_t>(n),
                                   config_.parasitics.v_nom);
    BatchedSolveWorkspace solve_ws;
    const Tensor* gp[1] = {&g_cal};
    solver_.solve_batched(gp, 1, v_in.data(), solve_ws);

    auto cal = std::make_unique<Calibration>();
    cal->sweeps = solve_ws.iterations[0];
    cal->converged = solve_ws.converged[0] != 0;
    cal->alpha = Tensor({n, n});
    const double inv_v = 1.0 / config_.parasitics.v_nom;
    float* a = cal->alpha.data();
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            const std::size_t k = solve_ws.at(i, j);
            const double ratio = (solve_ws.vr[k] - solve_ws.vc[k]) * inv_v;
            a[i * n + j] = static_cast<float>(std::max(0.0, ratio));
        }
    const Calibration* published = cal.get();
    cache_->owned.push_back(std::move(cal));
    slot.store(published, std::memory_order_release);
    return *published;
}

void FastBackend::degrade(const Tensor& g, DegradeWorkspace& ws,
                          TileDegradeResult& out) const {
    XS_COUNT("xbar.fast.tiles", 1);
    const std::int64_t n = config_.size;
    tensor::check(g.rank() == 2 && g.dim(0) == n && g.dim(1) == n,
                  "FastBackend: conductance matrix shape mismatch");

    const float* gp = g.data();
    double sum = 0.0;
    for (std::int64_t k = 0; k < n * n; ++k) sum += gp[k];
    const double mean = sum / static_cast<double>(n * n);
    const std::int64_t bucket = std::clamp<std::int64_t>(
        static_cast<std::int64_t>((mean - g_lo_) / g_step_), 0, kBuckets - 1);
    const Calibration& cal = calibration_for(bucket);

    if (!(out.g_eff.rank() == 2 && out.g_eff.dim(0) == n && out.g_eff.dim(1) == n))
        out.g_eff = Tensor({n, n});
    // ws.v_in / ws.ideal double as the per-column effective / ideal current
    // accumulators (÷ v_nom); assign() reuses their grown capacity, so the
    // steady state stays allocation-free.
    ws.v_in.assign(static_cast<std::size_t>(n), 0.0);
    ws.ideal.assign(static_cast<std::size_t>(n), 0.0);
    const float* a = cal.alpha.data();
    float* ge = out.g_eff.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const float* gi = gp + i * n;
        const float* ai = a + i * n;
        float* gei = ge + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            const double eff = static_cast<double>(ai[j]) * gi[j];
            gei[j] = static_cast<float>(eff);
            ws.v_in[static_cast<std::size_t>(j)] += eff;
            ws.ideal[static_cast<std::size_t>(j)] += gi[j];
        }
    }

    double nf_sum = 0.0;
    std::int64_t nf_count = 0;
    for (std::int64_t j = 0; j < n; ++j) {
        const double ideal = ws.ideal[static_cast<std::size_t>(j)];
        if (ideal <= 0.0) continue;
        nf_sum += (ideal - ws.v_in[static_cast<std::size_t>(j)]) / ideal;
        ++nf_count;
    }
    out.nf = nf_count ? nf_sum / static_cast<double>(nf_count) : 0.0;
    // A surrogate tile is only as trustworthy as the calibration solve its
    // α field folded; an unconverged bucket solve used to be dropped here
    // and the tile reported clean. Now it surfaces through the stage
    // context into the evaluator's solver-failure count like any circuit
    // non-convergence.
    out.converged = cal.converged;
    out.sweeps = cal.sweeps;
}

}  // namespace xs::xbar
