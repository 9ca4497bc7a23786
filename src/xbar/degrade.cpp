#include "xbar/degrade.h"

#include <algorithm>
#include <cmath>

namespace xs::xbar {

using tensor::Tensor;

void apply_variation(Tensor& g, const DeviceConfig& device, util::Rng& rng) {
    if (device.sigma_variation <= 0.0) return;
    const float lo = static_cast<float>(device.g_min() * 0.5);
    const float hi = static_cast<float>(device.g_max() * 2.0);
    float* p = g.data();
    // Standard-normal draws in blocks (identical stream to per-element
    // rng.normal calls), scaled exactly as normal(0, σ) = σ·normal() so the
    // per-element arithmetic is unchanged. The draw buffer keeps the RNG out
    // of the clamp loop's dependency chain; 1024 doubles covers a full
    // 32×32 tile in one fill.
    constexpr std::int64_t kChunk = 1024;
    double eps[kChunk];
    for (std::int64_t start = 0; start < g.numel(); start += kChunk) {
        const std::int64_t c = std::min(kChunk, g.numel() - start);
        rng.normal_fill(eps, static_cast<std::size_t>(c));
        for (std::int64_t i = 0; i < c; ++i) {
            const double e = device.sigma_variation * eps[i];
            p[start + i] = std::clamp(
                static_cast<float>(p[start + i] * (1.0 + e)), lo, hi);
        }
    }
}

void degrade_tile_batched(const Tensor* const* g, int lanes,
                          const CircuitSolver& solver, DegradeWorkspace& ws,
                          TileDegradeResult* const* out) {
    const CrossbarConfig& config = solver.config();
    const std::int64_t n = config.size;
    const double v_nom = config.parasitics.v_nom;
    ws.v_in.assign(static_cast<std::size_t>(n), v_nom);
    ws.ideal.resize(static_cast<std::size_t>(n));
    solver.solve_batched(g, lanes, ws.v_in.data(), ws.solve);

    const int L = lanes;
    const double inv_v = 1.0 / v_nom;
    const double* vr = ws.solve.vr.data();
    const double* vc = ws.solve.vc.data();
    for (int r = 0; r < L; ++r) {
        TileDegradeResult& o = *out[r];
        o.converged = ws.solve.converged[r] != 0;
        o.sweeps = ws.solve.iterations[r];

        if (!(o.g_eff.rank() == 2 && o.g_eff.dim(0) == n && o.g_eff.dim(1) == n))
            o.g_eff = Tensor({n, n});
        const float* gp = g[r]->data();
        float* ge = o.g_eff.data();
        for (std::int64_t k = 0; k < n * n; ++k) {
            const double alpha = (vr[k * L + r] - vc[k * L + r]) * inv_v;
            // Attenuation can only reduce the device's effective drive; tiny
            // negative values from numerical round-off are clamped away.
            ge[k] = static_cast<float>(std::max(0.0, alpha) *
                                       static_cast<double>(gp[k]));
        }

        solver.ideal_currents(*g[r], ws.v_in.data(), ws.ideal.data());
        double nf_sum = 0.0;
        std::int64_t nf_count = 0;
        for (std::int64_t j = 0; j < n; ++j) {
            const double ii = ws.ideal[static_cast<std::size_t>(j)];
            if (ii <= 0.0) continue;
            nf_sum +=
                (ii - ws.solve.currents[static_cast<std::size_t>(j * L + r)]) / ii;
            ++nf_count;
        }
        o.nf = nf_count ? nf_sum / static_cast<double>(nf_count) : 0.0;
    }
}

TileDegradeResult degrade_tile(const Tensor& g, const CrossbarConfig& config) {
    const CircuitSolver solver(config);
    DegradeWorkspace ws;
    TileDegradeResult result;
    const Tensor* gp[1] = {&g};
    TileDegradeResult* op[1] = {&result};
    degrade_tile_batched(gp, 1, solver, ws, op);
    return result;
}

double non_ideality_factor(const Tensor& g, const CrossbarConfig& config) {
    return degrade_tile(g, config).nf;
}

}  // namespace xs::xbar
