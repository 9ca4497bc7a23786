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

    const double inv_v = 1.0 / v_nom;
    const BatchedSolveWorkspace& s = ws.solve;
    for (int r = 0; r < lanes; ++r) {
        // One tile per solve: the workspace holds one tile's voltages.
        solver.solve_batched(g + r, 1, ws.v_in.data(), ws.solve);
        TileDegradeResult& o = *out[r];
        o.converged = s.converged[0] != 0;
        o.sweeps = s.iterations[0];

        if (!(o.g_eff.rank() == 2 && o.g_eff.dim(0) == n && o.g_eff.dim(1) == n))
            o.g_eff = Tensor({n, n});
        const float* gp = g[r]->data();
        float* ge = o.g_eff.data();
        for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t j0 = 0; j0 < n; j0 += kSolveBlock) {
                // One block of row i: contiguous in both voltage fields.
                const double* vr = s.vr.data() + s.at(i, j0);
                const double* vc = s.vc.data() + s.at(i, j0);
                const std::int64_t w =
                    std::min<std::int64_t>(kSolveBlock, n - j0);
                for (std::int64_t jj = 0; jj < w; ++jj) {
                    const std::int64_t k = i * n + j0 + jj;
                    const double alpha = (vr[jj] - vc[jj]) * inv_v;
                    // Attenuation can only reduce the device's effective
                    // drive; tiny negative values from numerical round-off
                    // are clamped away.
                    ge[k] = static_cast<float>(std::max(0.0, alpha) *
                                               static_cast<double>(gp[k]));
                }
            }

        solver.ideal_currents(*g[r], ws.v_in.data(), ws.ideal.data());
        double nf_sum = 0.0;
        std::int64_t nf_count = 0;
        for (std::int64_t j = 0; j < n; ++j) {
            const double ii = ws.ideal[static_cast<std::size_t>(j)];
            if (ii <= 0.0) continue;
            nf_sum += (ii - s.currents[static_cast<std::size_t>(j)]) / ii;
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
