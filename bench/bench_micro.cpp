// Kernel micro-benchmarks (google-benchmark): GEMM, im2col, the crossbar
// circuit solver, tile degradation, dataset synthesis, and the end-to-end
// inference/evaluation paths — the kernels whose cost determines experiment
// time.
//
// A benchmark whose work runs on the thread pool is marked
// MeasureProcessCPUTime(): the dispatching thread only waits while the
// pool's workers run every part, so the default cpu_time (calling thread
// only) would read almost nothing. Its name gains a /process_time suffix.
#include "core/evaluator.h"
#include "data/synthetic.h"
#include "map/energy.h"
#include "nn/conv2d.h"
#include "nn/infer.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "xbar/degrade.h"
#include "xbar/mapper.h"
#include "xbar/solver.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

namespace {

using namespace xs;

void BM_Gemm(benchmark::State& state) {
    const auto n = state.range(0);
    util::Rng rng(1);
    tensor::Tensor a({n, n}), b({n, n}), c({n, n});
    tensor::fill_normal(a, rng, 0.0f, 1.0f);
    tensor::fill_normal(b, rng, 0.0f, 1.0f);
    for (auto _ : state) {
        tensor::gemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->MeasureProcessCPUTime();

// Pruned-weight inference: A is 90 % zeros, exercising the row-sparse path.
void BM_GemmSparse(benchmark::State& state) {
    const auto n = state.range(0);
    util::Rng rng(1);
    tensor::Tensor a({n, n}), b({n, n}), c({n, n});
    tensor::fill_normal(a, rng, 0.0f, 1.0f);
    tensor::fill_normal(b, rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (rng.uniform() < 0.9) a[i] = 0.0f;
    for (auto _ : state) {
        tensor::gemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmSparse)->Arg(128)->Arg(256)->MeasureProcessCPUTime();

// The engine's conv GEMM (gemm_conv_tiles, B read in place) on VGG11
// conv3's shape at width 0.125: 32 → 32 channels, 8×8 images, batch 64,
// fused bias + ReLU, one thread. Arg 0: unpruned weights; 1: C/F at 0.8;
// 2: XCS at 0.8 — the second of two convs pruned by prune_at_init, so C/F
// drops its input channels as well as its filters. Items are the dense
// multiply-adds, so a pruned layer's rate is its speed-up over dense.
void BM_ConvTiles(benchmark::State& state) {
    constexpr std::int64_t n = 64, c = 32, hw = 8, patch = c * 9;
    util::Rng rng(30);
    nn::Sequential model;
    model.add(std::make_unique<nn::Conv2d>(c, c, 3, 1, 1, rng));
    model.add(std::make_unique<nn::Conv2d>(c, c, 3, 1, 1, rng));
    if (state.range(0) > 0) {
        prune::PruneConfig pc;
        pc.method = state.range(0) == 1 ? prune::Method::kChannelFilter
                                        : prune::Method::kXbarColumn;
        pc.spare_first_conv = false;
        prune::prune_at_init(model, pc);
    }
    const tensor::Tensor& w =
        dynamic_cast<nn::Conv2d&>(model.layer(1)).weight().value;
    tensor::PackedGemmA pa;
    tensor::gemm_pack_a(c, patch, w.data(), patch, pa);
    tensor::ConvTables tables;
    tensor::conv_tables(n, c, hw, hw, hw * hw, n * hw * hw, 3, 1, tables);
    tensor::Tensor x({c, tables.n_cols}), y({c, tables.n_cols}), bias({c});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    tensor::fill_normal(bias, rng, 0.0f, 1.0f);
    const std::int64_t tiles = tensor::gemm_tile_count(c, tables.n_cols);
    for (auto _ : state) {
        tensor::gemm_conv_tiles(pa, tables, x.data(), y.data(), tables.n_cols,
                                bias.data(), /*relu=*/true, /*pool=*/false, 0,
                                tiles);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * c * patch * tables.n_cols);
}
BENCHMARK(BM_ConvTiles)->Arg(0)->Arg(1)->Arg(2);

// The engine's pooled conv steps: gemm_conv_tiles with the 2×2 max-pool
// epilogue, which writes only the quarter-size map. VGG11 at width 0.125,
// batch 64, unpruned weights, bias + ReLU, one thread. Arg 0: conv0 (3 → 8
// channels at 32×32, reading the NCHW network input in place); 1: conv1
// (8 → 16 at 16×16, channel-major). Items are the conv's multiply-adds.
void BM_ConvPool(benchmark::State& state) {
    const bool stem = state.range(0) == 0;
    const std::int64_t n = 64, c = stem ? 3 : 8, cout = stem ? 8 : 16;
    const std::int64_t hw = stem ? 32 : 16, patch = c * 9;
    util::Rng rng(31);
    tensor::Tensor w({cout, patch}), x({n * c * hw * hw}), bias({cout});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    tensor::fill_normal(bias, rng, 0.0f, 0.1f);
    tensor::PackedGemmA pa;
    tensor::gemm_pack_a(cout, patch, w.data(), patch, pa);
    tensor::ConvTables tables;
    tensor::conv_tables(n, c, hw, hw, stem ? c * hw * hw : hw * hw,
                        stem ? hw * hw : n * hw * hw, 3, 1, tables);
    const std::int64_t pooled = tables.n_cols / 4;
    tensor::Tensor y({cout, pooled});
    const std::int64_t tiles = tensor::gemm_tile_count(cout, tables.n_cols);
    for (auto _ : state) {
        tensor::gemm_conv_tiles(pa, tables, x.data(), y.data(), pooled,
                                bias.data(), /*relu=*/true, /*pool=*/true, 0,
                                tiles);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * cout * patch * tables.n_cols);
}
BENCHMARK(BM_ConvPool)->Arg(0)->Arg(1);

void BM_Im2col(benchmark::State& state) {
    const std::int64_t c = state.range(0), s = 32, k = 3;
    util::Rng rng(2);
    tensor::Tensor x({c, s, s});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    tensor::Tensor col({c * k * k, s * s});
    for (auto _ : state) {
        tensor::im2col(x.data(), c, s, s, k, k, 1, 1, col.data());
        benchmark::DoNotOptimize(col.data());
    }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(64);

void BM_CircuitSolve(benchmark::State& state) {
    const auto size = state.range(0);
    xbar::CrossbarConfig config;
    config.size = size;
    util::Rng rng(3);
    tensor::Tensor g({size, size});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(
            rng.uniform(config.device.g_min(), config.device.g_max()));
    const std::vector<double> v(static_cast<std::size_t>(size), 0.25);
    const xbar::CircuitSolver solver(config);
    for (auto _ : state) {
        const auto sol = solver.solve(g, v);
        benchmark::DoNotOptimize(sol.currents.data());
    }
}
BENCHMARK(BM_CircuitSolve)->Arg(16)->Arg(32)->Arg(64);

// A stream of distinct random conductance tiles, mimicking the pipeline's
// tile sequence (each tile's variation/fault draw differs).
std::vector<tensor::Tensor> random_tiles(std::int64_t size, std::size_t count,
                                         std::uint64_t seed) {
    xbar::DeviceConfig device;
    util::Rng rng(seed);
    std::vector<tensor::Tensor> tiles;
    for (std::size_t t = 0; t < count; ++t) {
        tensor::Tensor g({size, size});
        for (std::int64_t i = 0; i < g.numel(); ++i)
            g[i] = static_cast<float>(
                rng.uniform(device.g_min(), device.g_max()));
        tiles.push_back(std::move(g));
    }
    return tiles;
}

// Cold zero-allocation scalar solves over a stream of distinct tiles:
// caller-owned workspace, factored sweeps.
void BM_CircuitSolveWorkspace(benchmark::State& state) {
    const auto size = state.range(0);
    xbar::CrossbarConfig config;
    config.size = size;
    const auto tiles = random_tiles(size, 16, 3);
    const std::vector<double> v(static_cast<std::size_t>(size), 0.25);
    const xbar::CircuitSolver solver(config);
    xbar::SolveWorkspace ws;
    std::size_t t = 0;
    for (auto _ : state) {
        solver.solve(tiles[t], v.data(), ws);
        t = (t + 1) % tiles.size();
        benchmark::DoNotOptimize(ws.currents.data());
    }
}
BENCHMARK(BM_CircuitSolveWorkspace)->Arg(16)->Arg(32)->Arg(64);

void BM_DenseMnaSolve(benchmark::State& state) {
    const auto size = state.range(0);
    xbar::CrossbarConfig config;
    config.size = size;
    util::Rng rng(4);
    tensor::Tensor g({size, size});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(
            rng.uniform(config.device.g_min(), config.device.g_max()));
    const std::vector<double> v(static_cast<std::size_t>(size), 0.25);
    const xbar::CircuitSolver solver(config);
    for (auto _ : state) {
        const auto sol = solver.solve_dense(g, v);
        benchmark::DoNotOptimize(sol.currents.data());
    }
}
BENCHMARK(BM_DenseMnaSolve)->Arg(8)->Arg(16);

void BM_DegradeTile(benchmark::State& state) {
    const auto size = state.range(0);
    xbar::CrossbarConfig config;
    config.size = size;
    util::Rng rng(5);
    tensor::Tensor g({size, size});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(
            rng.uniform(config.device.g_min(), config.device.g_max()));
    for (auto _ : state) {
        const auto r = xbar::degrade_tile(g, config);
        benchmark::DoNotOptimize(r.g_eff.data());
    }
}
BENCHMARK(BM_DegradeTile)->Arg(16)->Arg(32)->Arg(64);

// The tile loop's path: degrade_tile_batched, one tile per call, over a
// stream of distinct tiles with a reused workspace.
void BM_DegradeTileWorkspace(benchmark::State& state) {
    const auto size = state.range(0);
    xbar::CrossbarConfig config;
    config.size = size;
    const auto tiles = random_tiles(size, 16, 5);
    const xbar::CircuitSolver solver(config);
    xbar::DegradeWorkspace ws;
    xbar::TileDegradeResult out;
    xbar::TileDegradeResult* op[1] = {&out};
    std::size_t t = 0;
    for (auto _ : state) {
        const tensor::Tensor* gp[1] = {&tiles[t]};
        xbar::degrade_tile_batched(gp, 1, solver, ws, op);
        t = (t + 1) % tiles.size();
        benchmark::DoNotOptimize(out.g_eff.data());
    }
}
BENCHMARK(BM_DegradeTileWorkspace)->Arg(16)->Arg(32)->Arg(64);

void BM_DegradeMacMatrix(benchmark::State& state) {
    const auto size = state.range(0);
    util::Rng rng(6);
    tensor::Tensor m({256, 128});
    tensor::fill_normal(m, rng, 0.0f, 0.1f);
    core::EvalConfig config;
    config.xbar.size = size;
    for (auto _ : state) {
        core::DegradeStats stats;
        util::Rng vr(7);
        const auto out = core::degrade_mac_matrix(m, config, 0.4, vr, stats);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_DegradeMacMatrix)->Arg(32)->Arg(64)->MeasureProcessCPUTime();

// Same matrix through the bucket-calibrated fast backend (DESIGN.md §8).
// Each iteration rebuilds the pipeline, but the calibration cache is shared
// process-wide per config, so bucket solves run only in the first
// iteration: the gated number is the amortized steady state a sweep sees
// (mean + α-fold per tile), not calibration cost.
void BM_DegradeMacMatrixFast(benchmark::State& state) {
    const auto size = state.range(0);
    util::Rng rng(6);
    tensor::Tensor m({256, 128});
    tensor::fill_normal(m, rng, 0.0f, 0.1f);
    core::EvalConfig config;
    config.xbar.size = size;
    config.backend = xbar::BackendKind::kFast;
    for (auto _ : state) {
        core::DegradeStats stats;
        util::Rng vr(7);
        const auto out = core::degrade_mac_matrix(m, config, 0.4, vr, stats);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_DegradeMacMatrixFast)->Arg(32)->Arg(64)->MeasureProcessCPUTime();

void BM_SyntheticGeneration(benchmark::State& state) {
    data::SyntheticSpec spec = data::cifar10_like(9);
    for (auto _ : state) {
        const auto d = data::generate(spec, state.range(0));
        benchmark::DoNotOptimize(d.images.data());
    }
}
BENCHMARK(BM_SyntheticGeneration)->Arg(64)->MeasureProcessCPUTime();

// End-to-end eval-mode forward of a VGG-style batch through the fused
// zero-allocation inference engine (DESIGN.md §6). The argument is the
// channel-width multiplier in 1/16ths (4 → width 0.25).
void BM_Forward(benchmark::State& state) {
    nn::VggConfig vc;
    vc.width = static_cast<double>(state.range(0)) / 16.0;
    util::Rng rng(20);
    nn::Sequential model = nn::build_vgg(vc, rng);
    nn::InferenceEngine engine(model);
    tensor::Tensor x({16, 3, 32, 32});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    engine.forward(x);  // warm-up: arenas, scratch, pack buffers
    for (auto _ : state) {
        const tensor::Tensor& y = engine.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Forward)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// The pre-engine reference path (allocating Layer::forward per layer,
// unfused BN/ReLU): the baseline BM_Forward is measured against.
void BM_ForwardReference(benchmark::State& state) {
    nn::VggConfig vc;
    vc.width = static_cast<double>(state.range(0)) / 16.0;
    util::Rng rng(20);
    nn::Sequential model = nn::build_vgg(vc, rng);
    tensor::Tensor x({16, 3, 32, 32});
    tensor::fill_normal(x, rng, 0.0f, 1.0f);
    for (auto _ : state) {
        const tensor::Tensor y = model.forward(x, /*training=*/false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ForwardReference)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// Full Monte-Carlo crossbar evaluation at `repeats` repeats: the workload
// whose cost dominates sweep time. Every repeat's W′ compiles into a packed
// engine instance, the repeats of a group share one tile loop, and
// inference runs the group in one pass (DESIGN.md §12). Argument = number of
// repeats: 4 is one group of four lanes, 8 two groups run in turn (each
// compiles, then infers). The work runs on the pool while the calling
// thread waits, so cpu_time counts the whole process.
void BM_EvaluateOnCrossbars(benchmark::State& state) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(21);
    nn::Sequential model = nn::build_vgg(vc, rng);
    nn::Dataset test;
    test.num_classes = 10;
    test.images = tensor::Tensor({32, 3, 32, 32});
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.resize(32);
    for (std::size_t i = 0; i < 32; ++i)
        test.labels[i] = static_cast<std::int64_t>(i % 10);
    core::EvalConfig config;
    config.xbar.size = 32;
    config.repeats = state.range(0);
    for (auto _ : state) {
        const core::EvalResult r =
            core::evaluate_on_crossbars(model, test, config);
        benchmark::DoNotOptimize(r.accuracy);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvaluateOnCrossbars)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// NF measurement as a sweep's NF unit runs it (DESIGN.md §7): one
// MappingPlan of the unpruned VGG11 (width 0.125) at 64×64, measured at the
// first `range(0)` of the parasitic scales 0.5, 1, 2, 4 per iteration, with
// device variation off as in nf-only sweeps. Building the plan is untimed.
void BM_MeasureNf(benchmark::State& state) {
    nn::VggConfig vc;
    vc.width = 0.125;
    util::Rng rng(22);
    nn::Sequential model = nn::build_vgg(vc, rng);
    core::EvalConfig base;
    base.xbar.size = 64;
    base.xbar.device.sigma_variation = 0.0;
    const core::MappingPlan plan(model, base);
    const double scales[] = {0.5, 1.0, 2.0, 4.0};
    std::vector<core::EvalConfig> configs(
        static_cast<std::size_t>(state.range(0)), base);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        xbar::ParasiticsConfig& p = configs[i].xbar.parasitics;
        p.r_driver *= scales[i];
        p.r_wire_row *= scales[i];
        p.r_wire_col *= scales[i];
        p.r_sense *= scales[i];
    }
    for (auto _ : state) {
        for (const core::EvalConfig& c : configs) {
            const core::EvalResult r = core::measure_nf(plan, c);
            benchmark::DoNotOptimize(r.nf_mean);
        }
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeasureNf)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// VGG11 at width 0.125, unpruned or XCS-pruned at 0.8 from its
// initialization weights: the models of perfbench's map.plan_ms probe.
nn::Sequential unit_model(bool xcs) {
    nn::VggConfig vc;
    vc.width = 0.125;
    util::Rng rng(23);
    nn::Sequential model = nn::build_vgg(vc, rng);
    if (xcs) {
        prune::PruneConfig pc;
        pc.method = prune::Method::kXbarColumn;
        prune::prune_at_init(model, pc);
    }
    return model;
}

// What a sweep's NF unit (DESIGN.md §7) builds before its first
// measurement: the MappingPlan at 32×32, i.e. every mappable layer's
// extract, w_ref, R and tiling. Arg 0: unpruned (0) or XCS-pruned (1)
// VGG11; arg 1: without (0) or with (1) the R rearrangement.
void BM_MappingPlan(benchmark::State& state) {
    const bool xcs = state.range(0) == 1;
    nn::Sequential model = unit_model(xcs);
    core::EvalConfig config;
    config.xbar.size = 32;
    config.method = xcs ? prune::Method::kXbarColumn : prune::Method::kNone;
    config.rearrange = state.range(1) == 1;
    for (auto _ : state) {
        const core::MappingPlan plan(model, config);
        benchmark::DoNotOptimize(plan.layers().data());
    }
}
BENCHMARK(BM_MappingPlan)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

// The energy estimate an NF unit shares across its cells, at 32×32. Arg:
// unpruned (0) or XCS-pruned (1) VGG11, as in BM_MappingPlan.
void BM_EstimateEnergy(benchmark::State& state) {
    const bool xcs = state.range(0) == 1;
    nn::Sequential model = unit_model(xcs);
    xbar::CrossbarConfig xbar;
    xbar.size = 32;
    for (auto _ : state) {
        const map::EnergyReport r = map::estimate_energy(
            model, xcs ? prune::Method::kXbarColumn : prune::Method::kNone,
            xbar, map::EnergyConfig{});
        benchmark::DoNotOptimize(r.array_energy_pj);
    }
}
BENCHMARK(BM_EstimateEnergy)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ConductanceMapping(benchmark::State& state) {
    xbar::DeviceConfig device;
    util::Rng rng(10);
    tensor::Tensor w({64, 64});
    tensor::fill_normal(w, rng, 0.0f, 0.1f);
    const xbar::ConductanceMapper mapper(device, 0.4);
    tensor::Tensor gp, gn;
    for (auto _ : state) {
        mapper.to_differential(w, gp, gn);
        const auto back = mapper.from_differential(gp, gn);
        benchmark::DoNotOptimize(back.data());
    }
}
BENCHMARK(BM_ConductanceMapping);

}  // namespace
