// The tile ladder and backend seam (xbar/pipeline.h, xbar/backend.h):
//
//  * a golden test pinning the circuit backend through the ladder
//    bit-identical to the historical evaluator's straight-line tile loop
//    (replicated verbatim below), for the full step combination and the
//    XCS-packed tiling;
//  * fast-vs-circuit agreement (G′ and NF tolerances) and the fast
//    backend's cache determinism;
//  * a counting-operator-new proof that the ladder's steady state performs
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

// The replaced operators stay out of line: once either side is inlined
// into a caller, GCC 12 pairs a std::malloc or std::free with the other
// side's operator call and reports a mismatch (-Wmismatched-new-delete),
// depending on the optimization level and sanitizer.
__attribute__((noinline)) void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
    return ::operator new(size);
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
    std::free(p);
}

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

TEST(Backend, FastTracksCircuitPerTile) {
    CrossbarConfig config;
    config.size = 32;
    const CircuitBackend circuit(config);
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
    const double step =
        (config.device.g_max() * 2.0 - lo) / FastBackend::kBuckets;
    const double center = lo + 4.5 * step;
    util::Rng rng(5);
    Tensor g_a({16, 16}), g_b({16, 16});
    for (std::int64_t i = 0; i < g_a.numel(); ++i) {
        g_a[i] = static_cast<float>(center * (1.0 + 0.05 * rng.normal()));
        g_b[i] = static_cast<float>(center * (1.0 + 0.05 * rng.normal()));
    }
    DegradeWorkspace ws;
    TileDegradeResult a, b;
    const FastBackend fast(config);
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
    const FastBackend twin(config);
    EXPECT_EQ(twin.calibrations(), fast.calibrations());
}

// ---- golden test: the pre-refactor evaluator tile loop, verbatim ----

// The exact per-tile ladder core::degrade_mac_matrix hard-coded before the
// stage-list refactor, including the double-precision column compensation;
// each array degrades through a fresh degrade_tile, as every solve starts
// cold. Any bit drift between this and xbar::TilePipeline is a regression.
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

    Tensor degraded = matrix;
    std::vector<util::Rng> tile_rngs;
    for (std::size_t t = 0; t < tiling.tiles.size(); ++t)
        tile_rngs.push_back(rng.split(static_cast<std::uint64_t>(t) + 1));

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
        if (config.xbar.device.sigma_variation > 0.0) {
            apply_variation(g_pos, config.xbar.device, tile_rngs[t]);
            apply_variation(g_neg, config.xbar.device, tile_rngs[t]);
        }
        if (config.faults.any()) {
            apply_stuck_faults(g_pos, config.xbar.device, config.faults,
                               tile_rngs[t]);
            apply_stuck_faults(g_neg, config.xbar.device, config.faults,
                               tile_rngs[t]);
        }
        if (config.backend != BackendKind::kIdeal) {
            pos = degrade_tile(g_pos, config.xbar);
            neg = degrade_tile(g_neg, config.xbar);
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
    CrossbarConfig xbar;
    xbar.size = 32;
    FaultConfig faults;
    faults.p_stuck_min = 0.01;
    // variation, faults, circuit parasitics, compensate
    const TilePipeline pipeline(xbar, 0, faults, BackendKind::kCircuit,
                                /*compensate_columns=*/true);

    Tensor pos, neg;
    util::Rng rng(8);
    TileContext ctx;
    const ConductanceMapper mapper(xbar.device, 1.0);
    Tensor w({32, 32});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    // One lane, the way every single evaluation drives the pipeline. Warm-up
    // provisions every buffer (differential pair, G′, batched workspace,
    // column sums).
    TileContext* lanes[1] = {&ctx};
    DegradeWorkspace ws;
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
    CrossbarConfig xbar;
    xbar.size = 32;
    xbar.device.sigma_variation = 0.0;  // fixed tile mean → fixed bucket
    // fast parasitics only
    const TilePipeline pipeline(xbar, 0, FaultConfig{}, BackendKind::kFast,
                                /*compensate_columns=*/false);

    Tensor pos, neg;
    util::Rng rng(9);
    TileContext ctx;
    const ConductanceMapper mapper(xbar.device, 1.0);
    Tensor w({32, 32});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    TileContext* lanes[1] = {&ctx};
    DegradeWorkspace ws;
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

// ---- matrix level: fast through the evaluator ----

TEST(PipelineBackends, FastBackendTracksCircuitOnMacMatrix) {
    util::Rng rng(14);
    Tensor m({64, 48});
    tensor::fill_normal(m, rng, 0.0f, 0.15f);

    core::EvalConfig circuit;
    circuit.xbar.size = 32;
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
