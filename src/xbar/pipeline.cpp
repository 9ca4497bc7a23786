#include "xbar/pipeline.h"

#include "util/trace.h"
#include "xbar/quantize.h"

namespace xs::xbar {

using tensor::Tensor;

void compensate_columns(Tensor& g_eff, const Tensor& g_before,
                        TileStageContext& ctx) {
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

namespace {

class QuantizeStage final : public TileStage {
public:
    QuantizeStage(const DeviceConfig& device, std::int64_t levels)
        : device_(device), levels_(levels) {}
    const char* name() const override { return "quantize"; }
    void apply(TileStageContext& ctx, DegradeWorkspace&) const override {
        quantize_conductance(*ctx.pos, device_, levels_);
        quantize_conductance(*ctx.neg, device_, levels_);
    }

private:
    DeviceConfig device_;
    std::int64_t levels_;
};

class VariationStage final : public TileStage {
public:
    explicit VariationStage(const DeviceConfig& device) : device_(device) {}
    const char* name() const override { return "variation"; }
    void apply(TileStageContext& ctx, DegradeWorkspace&) const override {
        apply_variation(*ctx.pos, device_, *ctx.rng);
        apply_variation(*ctx.neg, device_, *ctx.rng);
    }

private:
    DeviceConfig device_;
};

class FaultStage final : public TileStage {
public:
    FaultStage(const DeviceConfig& device, const FaultConfig& faults)
        : device_(device), faults_(faults) {}
    const char* name() const override { return "faults"; }
    void apply(TileStageContext& ctx, DegradeWorkspace&) const override {
        apply_stuck_faults(*ctx.pos, device_, faults_, *ctx.rng);
        apply_stuck_faults(*ctx.neg, device_, faults_, *ctx.rng);
    }

private:
    DeviceConfig device_;
    FaultConfig faults_;
};

// Degrade both arrays through the backend and retarget the active pair at
// the G′ buffers, keeping the pre-parasitic pair reachable for compensation.
// The pos then the neg tile, one solve each, in the lane group's shared
// workspace. Every solve starts cold, so a lane's result does not depend on
// the lane count or on what the workspace solved before.
class ParasiticStage final : public TileStage {
public:
    explicit ParasiticStage(const CrossbarBackend& backend)
        : backend_(backend) {}
    const char* name() const override { return "parasitics"; }
    void apply(TileStageContext& ctx, DegradeWorkspace& ws) const override {
        backend_.degrade(*ctx.pos, ws, ctx.pos_result);
        backend_.degrade(*ctx.neg, ws, ctx.neg_result);
        ctx.converged = ctx.pos_result.converged && ctx.neg_result.converged;
        ctx.nf = 0.5 * (ctx.pos_result.nf + ctx.neg_result.nf);
        ctx.pre_pos = ctx.pos;
        ctx.pre_neg = ctx.neg;
        ctx.pos = &ctx.pos_result.g_eff;
        ctx.neg = &ctx.neg_result.g_eff;
    }

private:
    const CrossbarBackend& backend_;
};

class CompensateStage final : public TileStage {
public:
    const char* name() const override { return "compensate"; }
    void apply(TileStageContext& ctx, DegradeWorkspace&) const override {
        tensor::check(ctx.pre_pos != nullptr,
                      "compensate stage requires a preceding parasitic stage");
        compensate_columns(*ctx.pos, *ctx.pre_pos, ctx);
        compensate_columns(*ctx.neg, *ctx.pre_neg, ctx);
    }
};

}  // namespace

void TilePipeline::set_backend(std::unique_ptr<CrossbarBackend> backend) {
    backend_ = std::move(backend);
}

void TilePipeline::add(std::unique_ptr<TileStage> stage) {
#if XS_TELEMETRY_ENABLED
    stage_timers_.push_back(util::metrics::histogram(
        std::string("xbar.stage.") + stage->name() + ".ns"));
#endif
    stages_.push_back(std::move(stage));
}

void TilePipeline::run_batch(TileStageContext* const* lanes, int count,
                             DegradeWorkspace& ws) const {
#if XS_TELEMETRY_ENABLED
    XS_TIMER_NS("xbar.tile.ns");
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        util::trace::Span span(stages_[i]->name());
        util::metrics::ScopedTimerNs stage_timer(stage_timers_[i]);
        for (int r = 0; r < count; ++r) stages_[i]->apply(*lanes[r], ws);
    }
#else
    for (const auto& stage : stages_)
        for (int r = 0; r < count; ++r) stage->apply(*lanes[r], ws);
#endif
}

std::string TilePipeline::describe() const {
    if (stages_.empty()) return "identity";
    std::string out;
    for (const auto& stage : stages_) {
        if (!out.empty()) out += "|";
        out += stage->name();
        if (stage->name() == std::string("parasitics") && backend_) {
            out += "[";
            out += backend_->name();
            out += "]";
        }
    }
    return out;
}

TilePipeline build_tile_pipeline(const PipelineSpec& spec) {
    TilePipeline pipeline;
    if (spec.conductance_levels >= 2)
        pipeline.add(std::make_unique<QuantizeStage>(spec.xbar.device,
                                                     spec.conductance_levels));
    if (spec.include_variation)
        pipeline.add(std::make_unique<VariationStage>(spec.xbar.device));
    if (spec.faults.any())
        pipeline.add(std::make_unique<FaultStage>(spec.xbar.device, spec.faults));
    const bool parasitics =
        spec.include_parasitics && spec.backend != BackendKind::kIdeal;
    if (parasitics) {
        pipeline.set_backend(
            make_backend(spec.backend, spec.xbar, spec.fast_buckets));
        pipeline.add(std::make_unique<ParasiticStage>(*pipeline.backend()));
        if (spec.compensate_columns)
            pipeline.add(std::make_unique<CompensateStage>());
    }
    return pipeline;
}

}  // namespace xs::xbar
