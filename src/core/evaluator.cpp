#include "core/evaluator.h"

#include "core/rearrange.h"
#include "map/compaction.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "nn/infer.h"
#include "tensor/ops.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "xbar/mapper.h"
#include "xbar/pipeline.h"

#include <algorithm>
#include <cstring>

namespace xs::core {

using tensor::Tensor;

namespace {

// The deterministic mapping stages for one MAC matrix: T-compaction, the R
// column rearrangement, and the tiling, all computed once so Monte-Carlo
// repeats only redo the stochastic stages (variation / faults / solve).
// `work` is only materialized when T or R actually transforms the matrix;
// otherwise the caller's original matrix is the mapping target (avoiding a
// second resident copy of every layer's weights).
struct MatrixPlan {
    bool use_compaction = false;
    bool transformed = false;
    map::Compaction compaction;
    Rearrangement rearrangement;
    Tensor work;  // post-T/R mapping target (empty when !transformed)
    map::Tiling tiling;

    const Tensor& mapping_target(const Tensor& matrix) const {
        return transformed ? work : matrix;
    }
};

MatrixPlan build_matrix_plan(const Tensor& matrix, const EvalConfig& config) {
    tensor::check(matrix.rank() == 2, "degrade_mac_matrix: expects rank-2 matrix");
    MatrixPlan plan;
    // T: C/F-pruned matrices are compacted (zero rows/columns eliminated).
    plan.use_compaction = config.method == prune::Method::kChannelFilter;
    if (plan.use_compaction) {
        plan.compaction = map::compact_dense(matrix);
        // uncompact() only needs the index lists, so the compacted weights
        // move into `work` rather than living twice in the cached plan.
        plan.work = std::move(plan.compaction.matrix);
        plan.transformed = true;
    }
    // Mitigation R on the compacted matrix.
    if (config.rearrange) {
        const Tensor& base = plan.mapping_target(matrix);
        plan.rearrangement =
            compute_rearrangement(base, RearrangeOrder::kAscending);
        plan.work = apply_columns(base, plan.rearrangement);
        plan.transformed = true;
    }
    plan.tiling = map::tile_for(config.method, plan.mapping_target(matrix),
                                config.xbar.size);
    return plan;
}

}  // namespace

// One mappable layer's mapping, reused across repeats and NF measurements.
struct MappingPlan::Layer {
    std::string name;
    Tensor matrix;  // original weights (the mapping source)
    double w_ref = 0.0;
    MatrixPlan plan;
};

MappingPlan::MappingPlan(nn::Sequential& model, const EvalConfig& config)
    : inputs_(config) {
    for (nn::Layer* layer : map::mappable_layers(model)) {
        Layer lp;
        lp.name = layer->name();
        lp.matrix = map::extract_matrix(*layer);

        const auto it = config.w_ref.find(lp.name);
        lp.w_ref = it != config.w_ref.end() ? it->second
                                            : xbar::default_w_ref(lp.matrix);

        lp.plan = build_matrix_plan(lp.matrix, config);
        layers_.push_back(std::move(lp));
    }
}

MappingPlan::~MappingPlan() = default;

void MappingPlan::check_inputs(const EvalConfig& config) const {
    tensor::check(config.xbar.size == inputs_.xbar.size &&
                      config.method == inputs_.method &&
                      config.rearrange == inputs_.rearrange &&
                      config.w_ref == inputs_.w_ref,
                  "MappingPlan: the config maps the model differently from "
                  "the plan (crossbar size, method, rearrangement or w_ref)");
}

namespace {

LayerEvalStats layer_stats_of(const MappingPlan::Layer& lp,
                              const DegradeStats& stats) {
    LayerEvalStats ls;
    ls.layer = lp.name;
    if (lp.plan.use_compaction) {
        ls.rows = static_cast<std::int64_t>(lp.plan.compaction.rows.size());
        ls.cols = static_cast<std::int64_t>(lp.plan.compaction.cols.size());
    } else {
        ls.rows = lp.matrix.dim(0);
        ls.cols = lp.matrix.dim(1);
    }
    ls.tiles = stats.tiles;
    ls.unconverged = stats.unconverged;
    ls.nf_mean = stats.nf_mean();
    ls.w_ref = lp.w_ref;
    return ls;
}

// Solver-failure accounting invariant, checked loudly on every aggregate
// result: unconverged_tiles sums solver failures over ALL Monte-Carlo
// repeats while total_tiles counts one repeat's mapping, so the bound is
// total_tiles × repeats (evaluator.h). A violation means a repeat path
// double-counted or dropped tiles — fail immediately instead of letting a
// sweep CSV silently report corrupt failure rates.
void check_failure_accounting(const EvalResult& r, std::int64_t repeats) {
    tensor::check(
        r.unconverged_tiles >= 0 &&
            r.unconverged_tiles <= r.total_tiles * repeats,
        "evaluate_on_crossbars: solver-failure accounting broken: "
        "unconverged_tiles = " + std::to_string(r.unconverged_tiles) +
            " outside [0, total_tiles × repeats = " +
            std::to_string(r.total_tiles) + " × " + std::to_string(repeats) +
            "]");
}

void finalize_nf(EvalResult& result) {
    double nf_sum = 0.0;
    std::int64_t nf_tiles = 0;
    for (const auto& ls : result.layers) {
        nf_sum += ls.nf_mean * static_cast<double>(ls.tiles);
        nf_tiles += ls.tiles;
        result.total_tiles += ls.tiles;
        result.unconverged_tiles += ls.unconverged;
    }
    result.nf_mean = nf_tiles ? nf_sum / static_cast<double>(nf_tiles) : 0.0;
}

// ---- the tile loop (DESIGN.md §12) ----
// Every degradation runs here, with one lane per Monte-Carlo repeat: each
// tile's deterministic prep (extract, differential split) runs once and is
// shared, the ladder's stochastic steps run per lane on private copies with
// private RNG streams, and the parasitic step solves every lane's tiles, one
// at a time, in the worker's one solver workspace (xbar/solver.h). A single
// evaluation is the one-lane case. Lane scratch persists across tiles and
// layers; it carries buffers only, since every solve starts cold.
struct BatchLane {
    Tensor g_pos, g_neg, tile_w;
    xbar::TileContext ctx;
};

struct BatchWorker {
    Tensor sub;                 // shared extracted tile
    Tensor base_pos, base_neg;  // shared pre-stochastic differential pair
    std::vector<BatchLane> lanes;                   // one per lane
    std::vector<xbar::TileContext*> ctx_ptrs;  // lane ctx view
    // Solver workspace the parasitic step runs every lane's tiles through.
    xbar::DegradeWorkspace batch;
};

// One evaluation's tile ladder plus the tile-loop scratch for up to `lanes`
// lanes: one BatchWorker per pool worker slot and the per-(lane, tile)
// streams and outputs, reused across layers (and repeat groups) so the
// steady state performs no per-tile allocation.
struct TileLoop {
    TileLoop(const EvalConfig& config, std::size_t lanes)
        : pipeline(config.xbar, config.conductance_levels, config.faults,
                   config.backend, config.compensate_columns),
          workers(util::worker_count()),
          lane_work(lanes) {
        for (BatchWorker& bw : workers) {
            bw.lanes.resize(lanes);
            for (BatchLane& lane : bw.lanes) bw.ctx_ptrs.push_back(&lane.ctx);
        }
    }

    const xbar::TilePipeline pipeline;
    std::vector<BatchWorker> workers;
    std::vector<Tensor> lane_work;     // per-lane degraded post-T/R matrix
    std::vector<util::Rng> tile_rngs;  // lane-major: [rl·T + t]
    std::vector<double> tile_nf;
    std::vector<std::uint8_t> tile_ok;
};

// Degrade one matrix's mapping target for `nl` lanes: tile t of lane rl
// draws from layer_rngs[rl].split(t + 1), so draws do not depend on the tile
// partition (split does not advance the parent stream), and solves start
// cold, so neither do the results. Tile counts and NF accumulate into
// stats[rl]. With `map_back`, lane rl's degraded matrix is left, still in
// the post-T/R layout, in loop.lane_work[rl] (see undo_mapping); without
// it, each tile stops at its NF and lane_work is not touched.
void degrade_tiles(const MatrixPlan& plan, const Tensor& matrix,
                   const EvalConfig& config, double w_ref,
                   util::Rng* layer_rngs, std::size_t nl, DegradeStats* stats,
                   TileLoop& loop, bool map_back) {
    const std::int64_t n = config.xbar.size;
    const auto& tiles = plan.tiling.tiles;
    const Tensor& source = plan.mapping_target(matrix);
    const xbar::ConductanceMapper mapper(config.xbar.device, w_ref);
    const std::size_t T = tiles.size();

    loop.tile_rngs.clear();
    loop.tile_rngs.reserve(nl * T);
    for (std::size_t rl = 0; rl < nl; ++rl)
        for (std::size_t t = 0; t < T; ++t)
            loop.tile_rngs.push_back(
                layer_rngs[rl].split(static_cast<std::uint64_t>(t) + 1));
    loop.tile_nf.assign(nl * T, 0.0);
    loop.tile_ok.assign(nl * T, 1);
    for (std::size_t rl = 0; map_back && rl < nl; ++rl) {
        // Scatter target; tiles cover disjoint entries.
        loop.lane_work[rl].reset(source.shape());
        std::memcpy(loop.lane_work[rl].data(), source.data(),
                    static_cast<std::size_t>(source.numel()) * sizeof(float));
    }

    util::parallel_for_workers(
        0, T, [&](std::size_t w, std::size_t lo, std::size_t hi) {
            BatchWorker& bw = loop.workers[w];
            for (std::size_t t = lo; t < hi; ++t) {
                const map::Tile& tile = tiles[t];
                map::extract_tile_into(source, tile, n, bw.sub);
                mapper.to_differential(bw.sub, bw.base_pos, bw.base_neg);
                const std::size_t bytes =
                    static_cast<std::size_t>(n * n) * sizeof(float);
                for (std::size_t rl = 0; rl < nl; ++rl) {
                    BatchLane& lane = bw.lanes[rl];
                    lane.g_pos.reset(n, n);
                    lane.g_neg.reset(n, n);
                    std::memcpy(lane.g_pos.data(), bw.base_pos.data(), bytes);
                    std::memcpy(lane.g_neg.data(), bw.base_neg.data(), bytes);
                    lane.ctx.begin_tile(lane.g_pos, lane.g_neg,
                                        loop.tile_rngs[rl * T + t]);
                }
                loop.pipeline.run_batch(bw.ctx_ptrs.data(),
                                        static_cast<int>(nl), bw.batch);
                for (std::size_t rl = 0; rl < nl; ++rl) {
                    BatchLane& lane = bw.lanes[rl];
                    loop.tile_nf[rl * T + t] = lane.ctx.nf;
                    loop.tile_ok[rl * T + t] = lane.ctx.converged;
                    if (!map_back) continue;
                    mapper.from_differential_into(*lane.ctx.pos,
                                                  *lane.ctx.neg, lane.tile_w);
                    // Tiles partition the matrix: write-disjoint.
                    map::scatter_tile(loop.lane_work[rl], tile, lane.tile_w);
                }
            }
        });

    for (std::size_t rl = 0; rl < nl; ++rl) {
        DegradeStats& ds = stats[rl];
        for (std::size_t t = 0; t < T; ++t) {
            ds.nf_sum += loop.tile_nf[rl * T + t];
            ++ds.nf_tiles;
            if (!loop.tile_ok[rl * T + t]) ++ds.unconverged;
        }
        ds.tiles += plan.tiling.count();
    }
}

// R⁻¹ then T⁻¹: back to the original MAC matrix layout.
Tensor undo_mapping(const MatrixPlan& plan, const EvalConfig& config,
                    Tensor mac) {
    if (config.rearrange) mac = invert_columns(mac, plan.rearrangement);
    if (plan.use_compaction) return map::uncompact(plan.compaction, mac);
    return mac;
}

}  // namespace

Tensor degrade_mac_matrix(const Tensor& matrix, const EvalConfig& config,
                          double w_ref, util::Rng& rng, DegradeStats& stats) {
    tensor::check(w_ref > 0.0, "degrade_mac_matrix: w_ref must be positive");
    const MatrixPlan plan = build_matrix_plan(matrix, config);
    TileLoop loop(config, 1);
    degrade_tiles(plan, matrix, config, w_ref, &rng, 1, &stats, loop,
                  /*map_back=*/true);
    return undo_mapping(plan, config, std::move(loop.lane_work[0]));
}

std::vector<EvalResult> evaluate_repeats_on_crossbars(
    nn::Sequential& model, const nn::Dataset& test, const EvalConfig& config,
    const std::vector<std::uint64_t>& seeds) {
    const std::size_t R = seeds.size();
    tensor::check(R > 0, "evaluate_repeats_on_crossbars: empty seed list");
    const MappingPlan mapping(model, config);
    const std::vector<MappingPlan::Layer>& plans = mapping.layers();
    nn::InferenceEngine engine(model);
    tensor::check(engine.mappable_count() == plans.size(),
                  "evaluate_repeats_on_crossbars: engine/plan mappable-layer "
                  "mismatch");

    // Repeats ride in groups of four lanes, run in turn: a group degrades
    // and compiles its instances, then runs its batched forward. (The
    // circuit solves do not batch across lanes: each tile solves alone,
    // vectorized across its own chains.)
    const std::size_t kGroupLanes = 4;
    const std::size_t n_groups = (R + kGroupLanes - 1) / kGroupLanes;

    std::vector<nn::CompiledInstance> instances(R);
    // [layer][repeat], so one group's lanes are contiguous per layer.
    std::vector<std::vector<DegradeStats>> stats(
        plans.size(), std::vector<DegradeStats>(R));
    TileLoop loop(config, std::min(kGroupLanes, R));
    std::vector<util::Rng> layer_rngs;

    // Degrade + fold + pack repeats [g·kGroupLanes, …) into their compiled
    // instances. Groups run one at a time, so the tile-loop scratch is
    // shared; only the instances and stats slots written are
    // group-disjoint. Recorded under the sweep phase namespace: per-cell
    // phase metrics then split into prepare / compile / eval without the
    // sweep layer having to reach inside the evaluator (this is a no-op
    // label outside sweeps).
    const auto compile_group = [&](std::size_t g) {
        XS_TIMER_NS("sweep.phase.compile.ns");
        XS_TRACE_SPAN("compile_instances");
        const std::size_t lane0 = g * kGroupLanes;
        const std::size_t nl = std::min(kGroupLanes, R - lane0);
        for (std::size_t li = 0; li < plans.size(); ++li) {
            const MappingPlan::Layer& lp = plans[li];
            // Repeat r's layer li draws from Rng(seeds[r]).split(li + 1).
            layer_rngs.clear();
            for (std::size_t rl = 0; rl < nl; ++rl)
                layer_rngs.push_back(util::Rng(seeds[lane0 + rl])
                                         .split(static_cast<std::uint64_t>(li) + 1));
            degrade_tiles(lp.plan, lp.matrix, config, lp.w_ref,
                          layer_rngs.data(), nl, &stats[li][lane0], loop,
                          /*map_back=*/true);
            // Map back, then fold straight into the packed instance.
            for (std::size_t rl = 0; rl < nl; ++rl) {
                const Tensor mac = undo_mapping(
                    lp.plan, config, std::move(loop.lane_work[rl]));
                engine.compile_instance_slot(li, &mac, instances[lane0 + rl]);
            }
        }
    };

    std::vector<const nn::CompiledInstance*> inst_ptrs(R);
    for (std::size_t r = 0; r < R; ++r) inst_ptrs[r] = &instances[r];
    std::vector<std::int64_t> correct(R, 0);
    const std::int64_t total = test.size();

    // Run group g's repeats through one batched forward pass per dataset
    // slice.
    const auto infer_group = [&](std::size_t g) {
        XS_TIMER_NS("core.infer_repeat.ns");
        XS_TRACE_SPAN("infer_repeat");
        const std::size_t lane0 = g * kGroupLanes;
        const std::size_t nl = std::min(kGroupLanes, R - lane0);
        // Identity-order evaluation over contiguous dataset slices, exactly
        // nn::evaluate's batching, with the group riding one forward pass.
        const std::int64_t batch_size = 64;
        tensor::Shape batch_shape = test.images.shape();
        const std::int64_t item = total > 0 ? test.images.numel() / total : 0;
        for (std::int64_t start = 0; start < total; start += batch_size) {
            const std::int64_t count = std::min(batch_size, total - start);
            batch_shape[0] = count;
            const Tensor& logits = engine.forward_batched(
                test.images.data() + start * item, batch_shape,
                inst_ptrs.data() + lane0, nl);
            for (std::size_t rl = 0; rl < nl; ++rl)
                for (std::int64_t i = 0; i < count; ++i)
                    if (tensor::argmax_row(
                            logits,
                            static_cast<std::int64_t>(rl) * count + i) ==
                        test.labels[static_cast<std::size_t>(start + i)])
                        ++correct[lane0 + rl];
        }
    };

    for (std::size_t g = 0; g < n_groups; ++g) {
        compile_group(g);
        infer_group(g);
    }

    std::vector<EvalResult> out(R);
    for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t li = 0; li < plans.size(); ++li)
            out[r].layers.push_back(layer_stats_of(plans[li], stats[li][r]));
        out[r].accuracy = total ? 100.0 * static_cast<double>(correct[r]) /
                                      static_cast<double>(total)
                                : 0.0;
        finalize_nf(out[r]);
    }
    return out;
}

EvalResult evaluate_on_crossbars(nn::Sequential& model, const nn::Dataset& test,
                                 const EvalConfig& config) {
    const std::int64_t repeats = std::max<std::int64_t>(config.repeats, 1);
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(repeats));
    for (std::int64_t r = 0; r < repeats; ++r)
        seeds[static_cast<std::size_t>(r)] =
            config.seed + static_cast<std::uint64_t>(r) * 7919;
    std::vector<EvalResult> per =
        evaluate_repeats_on_crossbars(model, test, config, seeds);
    EvalResult aggregate = std::move(per[0]);
    for (std::int64_t r = 1; r < repeats; ++r) {
        const EvalResult& one = per[static_cast<std::size_t>(r)];
        aggregate.accuracy += one.accuracy;
        aggregate.nf_mean += one.nf_mean;
        aggregate.unconverged_tiles += one.unconverged_tiles;
    }
    aggregate.accuracy /= static_cast<double>(repeats);
    aggregate.nf_mean /= static_cast<double>(repeats);
    check_failure_accounting(aggregate, repeats);
    return aggregate;
}

EvalResult measure_nf(const MappingPlan& plan, const EvalConfig& config) {
    XS_TIMER_NS("core.measure_nf.ns");
    XS_TRACE_SPAN("measure_nf");
    plan.check_inputs(config);
    TileLoop loop(config, 1);
    EvalResult result;
    for (std::size_t li = 0; li < plan.layers().size(); ++li) {
        const MappingPlan::Layer& lp = plan.layers()[li];
        util::Rng layer_rng =
            util::Rng(config.seed).split(static_cast<std::uint64_t>(li) + 1);
        DegradeStats stats;
        degrade_tiles(lp.plan, lp.matrix, config, lp.w_ref, &layer_rng, 1,
                      &stats, loop, /*map_back=*/false);
        result.layers.push_back(layer_stats_of(lp, stats));
    }
    finalize_nf(result);
    return result;
}

EvalResult measure_nf(nn::Sequential& model, const EvalConfig& config) {
    return measure_nf(MappingPlan(model, config), config);
}

}  // namespace xs::core
