// The stage pipeline and backend seam (xbar/pipeline.h, xbar/backend.h):
//
//  * a golden test pinning the circuit backend through the stage pipeline
//    bit-identical to the pre-refactor evaluator's straight-line tile loop
//    (replicated verbatim below), for the full stage combination and the
//    XCS-packed tiling;
//  * fast-vs-circuit agreement (G′ and NF tolerances) and the fast
//    backend's cache determinism;
//  * the ideal backend's exact pass-through;
//  * a counting-operator-new proof that the pipeline steady state performs
//    no heap allocation for the circuit and fast backends.
#include "core/evaluator.h"
#include "map/tiling.h"
#include "tensor/ops.h"
#include "xbar/backend.h"
#include "xbar/mapper.h"
#include "xbar/pipeline.h"
#include "xbar/quantize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xs::xbar {
namespace {

using tensor::Tensor;

Tensor random_g(std::int64_t n, std::uint64_t seed, const DeviceConfig& dev) {
    util::Rng rng(seed);
    Tensor g({n, n});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(rng.uniform(dev.g_min(), dev.g_max()));
    return g;
}

TEST(Backend, NamesRoundTrip) {
    for (const auto kind : {BackendKind::kCircuit, BackendKind::kFast,
                            BackendKind::kIdeal})
        EXPECT_EQ(backend_from_name(backend_name(kind)), kind);
    EXPECT_THROW(backend_from_name("frobnicate"), std::exception);
}

TEST(Backend, IdealIsExactPassThrough) {
    CrossbarConfig config;
    config.size = 16;
    const IdealBackend backend(config);
    const Tensor g = random_g(16, 1, config.device);
    DegradeWorkspace ws;
    TileDegradeResult out;
    backend.degrade(g, ws, out);
    EXPECT_TRUE(tensor::allclose(out.g_eff, g, 0.0f, 0.0f));
    EXPECT_EQ(out.nf, 0.0);
    EXPECT_TRUE(out.converged);
}

TEST(Backend, FastTracksCircuitPerTile) {
    CrossbarConfig config;
    config.size = 32;
    const CircuitBackend circuit(config, /*warm_start=*/false);
    const FastBackend fast(config);
    DegradeWorkspace ws;
    TileDegradeResult exact, approx;
    for (const std::uint64_t seed : {2u, 3u, 4u}) {
        const Tensor g = random_g(32, seed, config.device);
        circuit.degrade(g, ws, exact);
        fast.degrade(g, ws, approx);
        ASSERT_TRUE(exact.converged);
        EXPECT_TRUE(approx.converged);
        // The surrogate's NF must sit near the exact solve's (both are a few
        // percent in this regime), and the folded conductances must agree to
        // a few percent of G_MAX.
        EXPECT_NEAR(approx.nf, exact.nf, 0.25 * exact.nf + 1e-4)
            << "seed " << seed;
        EXPECT_TRUE(tensor::allclose(
            approx.g_eff, exact.g_eff,
            /*atol=*/static_cast<float>(0.02 * config.device.g_max()),
            /*rtol=*/0.05f))
            << "seed " << seed << " max diff "
            << tensor::max_abs_diff(approx.g_eff, exact.g_eff);
    }
    // Three same-composition tiles share one calibration bucket.
    EXPECT_LE(fast.calibrations(), 2);
}

TEST(Backend, FastCalibrationDependsOnlyOnBucket) {
    CrossbarConfig config;
    config.size = 16;
    // Two different tiles whose means sit safely inside the same bucket:
    // constant mid-bucket level plus small zero-mean jitter.
    const double lo = config.device.g_min() * 0.5;
    const double step = (config.device.g_max() * 2.0 - lo) / 16.0;
    const double center = lo + 4.5 * step;
    util::Rng rng(5);
    Tensor g_a({16, 16}), g_b({16, 16});
    for (std::int64_t i = 0; i < g_a.numel(); ++i) {
        g_a[i] = static_cast<float>(center * (1.0 + 0.05 * rng.normal()));
        g_b[i] = static_cast<float>(center * (1.0 + 0.05 * rng.normal()));
    }
    DegradeWorkspace ws;
    TileDegradeResult a, b;
    const FastBackend fast(config, /*buckets=*/16);  // matches `step` above
    fast.degrade(g_a, ws, a);
    fast.degrade(g_b, ws, b);
    // The implied α = G′/G must be the same field for both tiles — the
    // calibration is a function of the bucket center, never of whichever
    // tile (or thread) happened to populate the cache.
    for (std::int64_t i = 0; i < g_a.numel(); ++i) {
        const double alpha_a = static_cast<double>(a.g_eff[i]) / g_a[i];
        const double alpha_b = static_cast<double>(b.g_eff[i]) / g_b[i];
        ASSERT_NEAR(alpha_a, alpha_b, 1e-5) << "entry " << i;
    }
    // Two identically-configured backends share one calibration cache.
    const FastBackend twin(config, /*buckets=*/16);
    EXPECT_EQ(twin.calibrations(), fast.calibrations());
}

// ---- golden test: the pre-refactor evaluator tile loop, verbatim ----

// The exact per-tile stage ladder core::degrade_mac_matrix hard-coded before
// the pipeline refactor (evaluator.cpp @ PR 4), including the double-
// precision column compensation. Any bit drift between this and the staged
// pipeline is a regression.
void reference_compensate(Tensor& g_eff, const Tensor& g_before,
                          std::int64_t n) {
    std::vector<double> col_before(static_cast<std::size_t>(n), 0.0);
    std::vector<double> col_after(static_cast<std::size_t>(n), 0.0);
    const float* gb = g_before.data();
    float* ge = g_eff.data();
    for (std::int64_t i = 0; i < n; ++i) {
        const float* gbi = gb + i * n;
        const float* gei = ge + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            col_before[static_cast<std::size_t>(j)] += gbi[j];
            col_after[static_cast<std::size_t>(j)] += gei[j];
        }
    }
    for (std::int64_t j = 0; j < n; ++j) {
        const double after = col_after[static_cast<std::size_t>(j)];
        col_after[static_cast<std::size_t>(j)] =
            after <= 0.0 ? 1.0
                         : col_before[static_cast<std::size_t>(j)] / after;
    }
    for (std::int64_t i = 0; i < n; ++i) {
        float* gei = ge + i * n;
        for (std::int64_t j = 0; j < n; ++j)
            gei[j] *= static_cast<float>(col_after[static_cast<std::size_t>(j)]);
    }
}

Tensor reference_degrade(const Tensor& matrix, const map::Tiling& tiling,
                         const core::EvalConfig& config, double w_ref,
                         util::Rng& rng) {
    const std::int64_t n = config.xbar.size;
    const ConductanceMapper mapper(config.xbar.device, w_ref);
    const CircuitSolver solver(config.xbar);

    Tensor degraded = matrix;
    std::vector<util::Rng> tile_rngs;
    for (std::size_t t = 0; t < tiling.tiles.size(); ++t)
        tile_rngs.push_back(rng.split(static_cast<std::uint64_t>(t) + 1));

    DegradeWorkspace ws;
    TileDegradeResult pos, neg;
    Tensor sub, g_pos, g_neg, tile_w;
    for (std::size_t t = 0; t < tiling.tiles.size(); ++t) {
        const map::Tile& tile = tiling.tiles[t];
        map::extract_tile_into(matrix, tile, n, sub);
        mapper.to_differential(sub, g_pos, g_neg);
        if (config.conductance_levels >= 2) {
            quantize_conductance(g_pos, config.xbar.device,
                                 config.conductance_levels);
            quantize_conductance(g_neg, config.xbar.device,
                                 config.conductance_levels);
        }
        if (config.include_variation) {
            apply_variation(g_pos, config.xbar.device, tile_rngs[t]);
            apply_variation(g_neg, config.xbar.device, tile_rngs[t]);
        }
        if (config.faults.any()) {
            apply_stuck_faults(g_pos, config.xbar.device, config.faults,
                               tile_rngs[t]);
            apply_stuck_faults(g_neg, config.xbar.device, config.faults,
                               tile_rngs[t]);
        }
        if (config.include_parasitics) {
            ws.solve.invalidate();  // config.warm_start_solves = false
            degrade_tile(g_pos, solver, ws, pos);
            ws.solve.invalidate();
            degrade_tile(g_neg, solver, ws, neg);
            if (config.compensate_columns) {
                reference_compensate(pos.g_eff, g_pos, n);
                reference_compensate(neg.g_eff, g_neg, n);
            }
            mapper.from_differential_into(pos.g_eff, neg.g_eff, tile_w);
        } else {
            mapper.from_differential_into(g_pos, g_neg, tile_w);
        }
        map::scatter_tile(degraded, tile, tile_w);
    }
    return degraded;
}

TEST(PipelineGolden, CircuitBackendBitIdenticalToPreRefactorLoop) {
    util::Rng rng(11);
    Tensor m({40, 24});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);

    core::EvalConfig config;
    config.xbar.size = 16;
    config.warm_start_solves = false;  // partition-independent, exact
    config.conductance_levels = 33;
    config.faults.p_stuck_min = 0.02;
    config.faults.p_stuck_max = 0.01;
    config.compensate_columns = true;

    core::DegradeStats stats;
    util::Rng vr1(42), vr2(42);
    const Tensor got = core::degrade_mac_matrix(m, config, 1.6, vr1, stats);
    const map::Tiling tiling = map::tile_dense(40, 24, 16);
    const Tensor want = reference_degrade(m, tiling, config, 1.6, vr2);
    EXPECT_TRUE(tensor::allclose(got, want, 0.0f, 0.0f))
        << "max diff " << tensor::max_abs_diff(got, want);
    EXPECT_EQ(stats.tiles, tiling.count());
}

TEST(PipelineGolden, XcsTilingBitIdenticalToPreRefactorLoop) {
    util::Rng rng(12);
    Tensor m({32, 16});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);
    for (std::int64_t r = 0; r < 16; ++r) m.at(r, 2) = 0.0f;  // zero segment

    core::EvalConfig config;
    config.xbar.size = 8;
    config.method = prune::Method::kXbarColumn;
    config.warm_start_solves = false;

    core::DegradeStats stats;
    util::Rng vr1(7), vr2(7);
    const Tensor got = core::degrade_mac_matrix(m, config, 1.6, vr1, stats);
    const map::Tiling tiling = map::tile_xcs(m, 8);
    const Tensor want = reference_degrade(m, tiling, config, 1.6, vr2);
    EXPECT_TRUE(tensor::allclose(got, want, 0.0f, 0.0f))
        << "max diff " << tensor::max_abs_diff(got, want);
}

// ---- zero-allocation steady state ----

TEST(PipelineAllocation, CircuitSteadyStateAllocatesNothing) {
    PipelineSpec spec;
    spec.xbar.size = 32;
    spec.faults.p_stuck_min = 0.01;
    spec.compensate_columns = true;
    const TilePipeline pipeline = build_tile_pipeline(spec);
    EXPECT_EQ(pipeline.describe(),
              "variation|faults|parasitics[circuit]|compensate");

    Tensor pos, neg;
    util::Rng rng(8);
    TileStageContext ctx;
    const ConductanceMapper mapper(spec.xbar.device, 1.0);
    Tensor w({32, 32});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    // One lane, the way every single evaluation drives the pipeline. Warm-up
    // provisions every buffer (differential pair, G′, batched workspace,
    // column sums).
    TileStageContext* lanes[1] = {&ctx};
    BatchedDegradeWorkspace ws;
    mapper.to_differential(w, pos, neg);
    ctx.begin_tile(pos, neg, rng);
    pipeline.run_batch(lanes, 1, ws);

    const long before = g_alloc_count.load();
    for (int rep = 0; rep < 10; ++rep) {
        mapper.to_differential(w, pos, neg);
        ctx.begin_tile(pos, neg, rng);
        pipeline.run_batch(lanes, 1, ws);
    }
    EXPECT_EQ(g_alloc_count.load(), before);
    EXPECT_TRUE(ctx.converged);
    EXPECT_GT(ctx.nf, 0.0);
}

TEST(PipelineAllocation, FastSteadyStateAllocatesNothing) {
    PipelineSpec spec;
    spec.xbar.size = 32;
    spec.include_variation = false;  // fixed tile mean → fixed bucket
    spec.backend = BackendKind::kFast;
    const TilePipeline pipeline = build_tile_pipeline(spec);
    EXPECT_EQ(pipeline.describe(), "parasitics[fast]");

    Tensor pos, neg;
    util::Rng rng(9);
    TileStageContext ctx;
    const ConductanceMapper mapper(spec.xbar.device, 1.0);
    Tensor w({32, 32});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    TileStageContext* lanes[1] = {&ctx};
    BatchedDegradeWorkspace ws;
    mapper.to_differential(w, pos, neg);
    ctx.begin_tile(pos, neg, rng);
    // Warm-up: calibrates the bucket, grows buffers.
    pipeline.run_batch(lanes, 1, ws);

    const long before = g_alloc_count.load();
    for (int rep = 0; rep < 10; ++rep) {
        mapper.to_differential(w, pos, neg);
        ctx.begin_tile(pos, neg, rng);
        pipeline.run_batch(lanes, 1, ws);
    }
    EXPECT_EQ(g_alloc_count.load(), before);
    EXPECT_TRUE(ctx.converged);
    EXPECT_GT(ctx.nf, 0.0);
}

// ---- matrix level: fast and ideal through the evaluator ----

TEST(PipelineBackends, IdealBackendMatchesParasiticFreeConfig) {
    util::Rng rng(13);
    Tensor m({24, 24});
    tensor::fill_normal(m, rng, 0.0f, 0.4f);

    core::EvalConfig ideal_backend;
    ideal_backend.xbar.size = 16;
    ideal_backend.backend = BackendKind::kIdeal;
    core::EvalConfig no_parasitics;
    no_parasitics.xbar.size = 16;
    no_parasitics.include_parasitics = false;

    core::DegradeStats s1, s2;
    util::Rng r1(3), r2(3);
    const Tensor a = core::degrade_mac_matrix(m, ideal_backend, 1.6, r1, s1);
    const Tensor b = core::degrade_mac_matrix(m, no_parasitics, 1.6, r2, s2);
    EXPECT_TRUE(tensor::allclose(a, b, 0.0f, 0.0f));
    EXPECT_EQ(s1.nf_sum, 0.0);
}

TEST(PipelineBackends, FastBackendTracksCircuitOnMacMatrix) {
    util::Rng rng(14);
    Tensor m({64, 48});
    tensor::fill_normal(m, rng, 0.0f, 0.15f);

    core::EvalConfig circuit;
    circuit.xbar.size = 32;
    circuit.warm_start_solves = false;
    core::EvalConfig fast = circuit;
    fast.backend = BackendKind::kFast;

    core::DegradeStats sc, sf;
    util::Rng r1(5), r2(5);
    const Tensor wc = core::degrade_mac_matrix(m, circuit, 0.5, r1, sc);
    const Tensor wf = core::degrade_mac_matrix(m, fast, 0.5, r2, sf);
    // Same seeds → same variation draws; the gap is pure surrogate error.
    EXPECT_NEAR(sf.nf_mean(), sc.nf_mean(), 0.25 * sc.nf_mean() + 1e-4);
    EXPECT_TRUE(tensor::allclose(wf, wc, /*atol=*/0.03f, /*rtol=*/0.1f))
        << "max diff " << tensor::max_abs_diff(wf, wc);
    EXPECT_EQ(sf.unconverged, 0);
}

}  // namespace
}  // namespace xs::xbar
