#include "xbar/pipeline.h"

#include "util/metrics.h"
#include "util/trace.h"
#include "xbar/quantize.h"

namespace xs::xbar {

using tensor::Tensor;

namespace {

// Digital per-column gain correction calibrated at v_nom ([Liu et al.,
// ICCAD'14]): scale G′ columns so the calibration-point column currents
// match `g_before`. `ctx` provides the column-sum scratch.
void compensate_columns(Tensor& g_eff, const Tensor& g_before,
                        TileContext& ctx) {
    const std::int64_t n = g_eff.dim(0);
    ctx.col_before.assign(static_cast<std::size_t>(n), 0.0);
    ctx.col_after.assign(static_cast<std::size_t>(n), 0.0);
    const float* gb = g_before.data();
    float* ge = g_eff.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const float* gbi = gb + i * n;
        const float* gei = ge + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            ctx.col_before[static_cast<std::size_t>(j)] += gbi[j];
            ctx.col_after[static_cast<std::size_t>(j)] += gei[j];
        }
    }
    // Reuse col_after as the per-column gain, then scale in one row-major
    // pass (a per-column inner loop would stride through the whole array n
    // times).
    for (std::int64_t j = 0; j < n; ++j) {
        const double after = ctx.col_after[static_cast<std::size_t>(j)];
        ctx.col_after[static_cast<std::size_t>(j)] =
            after <= 0.0
                ? 1.0
                : ctx.col_before[static_cast<std::size_t>(j)] / after;
    }
    for (std::int64_t i = 0; i < n; ++i) {
        float* gei = ge + i * n;
        for (std::int64_t j = 0; j < n; ++j)
            gei[j] *=
                static_cast<float>(ctx.col_after[static_cast<std::size_t>(j)]);
    }
}

std::unique_ptr<CrossbarBackend> backend_for(BackendKind kind,
                                             const CrossbarConfig& xbar) {
    switch (kind) {
        case BackendKind::kCircuit:
            return std::make_unique<CircuitBackend>(xbar);
        case BackendKind::kFast:
            return std::make_unique<FastBackend>(xbar);
        case BackendKind::kIdeal:
            break;
    }
    return nullptr;
}

}  // namespace

TilePipeline::TilePipeline(const CrossbarConfig& xbar,
                           std::int64_t conductance_levels,
                           const FaultConfig& faults, BackendKind backend,
                           bool compensate_columns)
    : device_(xbar.device),
      levels_(conductance_levels),
      faults_(faults),
      backend_(backend_for(backend, xbar)),
      compensate_(compensate_columns) {}

void TilePipeline::run_batch(TileContext* const* lanes, int count,
                             DegradeWorkspace& ws) const {
    XS_TIMER_NS("xbar.tile.ns");
    if (levels_ >= 2) {
        XS_TRACE_SPAN("quantize");
        XS_TIMER_NS("xbar.stage.quantize.ns");
        for (int r = 0; r < count; ++r) {
            quantize_conductance(*lanes[r]->pos, device_, levels_);
            quantize_conductance(*lanes[r]->neg, device_, levels_);
        }
    }
    if (device_.sigma_variation > 0.0) {
        XS_TRACE_SPAN("variation");
        XS_TIMER_NS("xbar.stage.variation.ns");
        for (int r = 0; r < count; ++r) {
            apply_variation(*lanes[r]->pos, device_, *lanes[r]->rng);
            apply_variation(*lanes[r]->neg, device_, *lanes[r]->rng);
        }
    }
    if (faults_.any()) {
        XS_TRACE_SPAN("faults");
        XS_TIMER_NS("xbar.stage.faults.ns");
        for (int r = 0; r < count; ++r) {
            apply_stuck_faults(*lanes[r]->pos, device_, faults_, *lanes[r]->rng);
            apply_stuck_faults(*lanes[r]->neg, device_, faults_, *lanes[r]->rng);
        }
    }
    if (!backend_) return;
    // The pos then the neg tile, one cold solve each, in the lane group's
    // shared workspace, so a lane's result does not depend on the lane count
    // or on what the workspace solved before.
    {
        XS_TRACE_SPAN("parasitics");
        XS_TIMER_NS("xbar.stage.parasitics.ns");
        for (int r = 0; r < count; ++r) {
            TileContext& ctx = *lanes[r];
            backend_->degrade(*ctx.pos, ws, ctx.pos_result);
            backend_->degrade(*ctx.neg, ws, ctx.neg_result);
            ctx.converged = ctx.pos_result.converged && ctx.neg_result.converged;
            ctx.nf = 0.5 * (ctx.pos_result.nf + ctx.neg_result.nf);
        }
    }
    if (compensate_) {
        XS_TRACE_SPAN("compensate");
        XS_TIMER_NS("xbar.stage.compensate.ns");
        for (int r = 0; r < count; ++r) {
            TileContext& ctx = *lanes[r];
            compensate_columns(ctx.pos_result.g_eff, *ctx.pos, ctx);
            compensate_columns(ctx.neg_result.g_eff, *ctx.neg, ctx);
        }
    }
    for (int r = 0; r < count; ++r) {
        lanes[r]->pos = &lanes[r]->pos_result.g_eff;
        lanes[r]->neg = &lanes[r]->neg_result.g_eff;
    }
}

}  // namespace xs::xbar
