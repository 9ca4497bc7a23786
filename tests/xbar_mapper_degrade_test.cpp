#include "tensor/ops.h"
#include "xbar/degrade.h"
#include "xbar/mapper.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

namespace xs::xbar {
namespace {

using tensor::Tensor;

TEST(Mapper, LinearMapping) {
    DeviceConfig dev;
    const ConductanceMapper mapper(dev, 2.0);
    EXPECT_NEAR(mapper.to_conductance(0.0), dev.g_min(), 1e-12);
    EXPECT_NEAR(mapper.to_conductance(2.0), dev.g_max(), 1e-12);
    EXPECT_NEAR(mapper.to_conductance(1.0), (dev.g_min() + dev.g_max()) / 2.0,
                1e-12);
}

TEST(Mapper, ClampsAboveReference) {
    DeviceConfig dev;
    const ConductanceMapper mapper(dev, 1.0);
    EXPECT_NEAR(mapper.to_conductance(5.0), dev.g_max(), 1e-12);
}

TEST(Mapper, InvalidReferenceThrows) {
    DeviceConfig dev;
    EXPECT_THROW(ConductanceMapper(dev, 0.0), std::invalid_argument);
    EXPECT_THROW(ConductanceMapper(dev, -1.0), std::invalid_argument);
}

TEST(Mapper, DifferentialRoundTripIsExact) {
    DeviceConfig dev;
    util::Rng rng(1);
    Tensor w({6, 6});
    tensor::fill_normal(w, rng, 0.0f, 0.3f);
    const double w_ref = tensor::max_abs(w);
    const ConductanceMapper mapper(dev, w_ref);

    Tensor gp, gn;
    mapper.to_differential(w, gp, gn);
    const Tensor back = mapper.from_differential(gp, gn);
    EXPECT_TRUE(tensor::allclose(back, w, 1e-6f, 1e-5f))
        << "max diff " << tensor::max_abs_diff(back, w);
}

TEST(Mapper, DifferentialUsesOneSidePerSign) {
    DeviceConfig dev;
    const ConductanceMapper mapper(dev, 1.0);
    Tensor w({1, 2});
    w[0] = 0.5f;
    w[1] = -0.5f;
    Tensor gp, gn;
    mapper.to_differential(w, gp, gn);
    EXPECT_GT(gp[0], static_cast<float>(dev.g_min()));
    EXPECT_FLOAT_EQ(gn[0], static_cast<float>(dev.g_min()));
    EXPECT_FLOAT_EQ(gp[1], static_cast<float>(dev.g_min()));
    EXPECT_GT(gn[1], static_cast<float>(dev.g_min()));
}

TEST(Mapper, DifferentialMatchesToConductanceBitForBit) {
    // to_differential's vectorized loop against to_conductance per element,
    // byte for byte: Gaussian weights plus ±0, denormals, entries at and
    // beyond ±w_ref (clamped to G_MAX), on shapes whose element counts are
    // and are not a multiple of the vector width.
    DeviceConfig dev;
    const double w_ref = 0.2;
    const ConductanceMapper mapper(dev, w_ref);
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float specials[] = {0.0f,  -0.0f, tiny,   -tiny,  1e-40f, -1e-40f,
                              0.2f,  -0.2f, 0.25f,  -0.25f, 7.5f,   -7.5f,
                              1e30f, -1e30f};
    util::Rng rng(11);
    for (const std::int64_t n : {1, 7, 37, 128}) {
        SCOPED_TRACE("n " + std::to_string(n));
        Tensor w({n, n});
        tensor::fill_normal(w, rng, 0.0f, 0.1f);
        for (std::int64_t i = 0; i < w.numel(); i += 3)
            w[i] = specials[(i / 3) % std::size(specials)];
        Tensor want_pos(w.shape()), want_neg(w.shape());
        for (std::int64_t i = 0; i < w.numel(); ++i) {
            want_pos[i] = static_cast<float>(
                mapper.to_conductance(w[i] > 0.0f ? w[i] : 0.0));
            want_neg[i] = static_cast<float>(
                mapper.to_conductance(w[i] < 0.0f ? -w[i] : 0.0));
        }
        Tensor gp, gn;
        mapper.to_differential(w, gp, gn);
        const std::size_t bytes =
            static_cast<std::size_t>(w.numel()) * sizeof(float);
        EXPECT_EQ(std::memcmp(gp.data(), want_pos.data(), bytes), 0);
        EXPECT_EQ(std::memcmp(gn.data(), want_neg.data(), bytes), 0);
    }
}

TEST(Variation, ZeroSigmaIsNoop) {
    DeviceConfig dev;
    dev.sigma_variation = 0.0;
    util::Rng rng(2);
    Tensor g({8, 8}, 10e-6f);
    const Tensor before = g;
    apply_variation(g, dev, rng);
    EXPECT_TRUE(tensor::allclose(g, before, 0.0f, 0.0f));
}

TEST(Variation, StatisticsMatchSigma) {
    DeviceConfig dev;
    dev.sigma_variation = 0.1;
    util::Rng rng(3);
    Tensor g({100, 100}, 20e-6f);
    apply_variation(g, dev, rng);
    double sum = 0.0, sq = 0.0;
    for (std::int64_t i = 0; i < g.numel(); ++i) {
        const double rel = g[i] / 20e-6 - 1.0;
        sum += rel;
        sq += rel * rel;
    }
    const double n = static_cast<double>(g.numel());
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(std::sqrt(sq / n), 0.1, 0.01);
}

TEST(Variation, ClampsExtremes) {
    DeviceConfig dev;
    dev.sigma_variation = 5.0;  // absurd sigma to force clamping
    util::Rng rng(4);
    Tensor g({50, 50}, 30e-6f);
    apply_variation(g, dev, rng);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
        EXPECT_GE(g[i], static_cast<float>(dev.g_min() * 0.5));
        EXPECT_LE(g[i], static_cast<float>(dev.g_max() * 2.0));
    }
}

TEST(Degrade, EffectiveConductanceReduced) {
    CrossbarConfig config;
    config.size = 16;
    util::Rng rng(5);
    Tensor g({16, 16});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(
            rng.uniform(config.device.g_min(), config.device.g_max()));
    const TileDegradeResult r = degrade_tile(g, config);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
        EXPECT_LE(r.g_eff[i], g[i]);
        EXPECT_GT(r.g_eff[i], 0.0f);
    }
    EXPECT_GT(r.nf, 0.0);
    EXPECT_LT(r.nf, 1.0);
}

TEST(Degrade, ExactAtCalibrationInput) {
    // Σ_i G′_ij · v_nom must equal the true non-ideal column current.
    CrossbarConfig config;
    config.size = 8;
    util::Rng rng(6);
    Tensor g({8, 8});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(
            rng.uniform(config.device.g_min(), config.device.g_max()));
    const TileDegradeResult r = degrade_tile(g, config);

    const CircuitSolver solver(config);
    const std::vector<double> v(8, config.parasitics.v_nom);
    const auto sol = solver.solve(g, v);
    for (std::int64_t j = 0; j < 8; ++j) {
        double folded = 0.0;
        for (std::int64_t i = 0; i < 8; ++i)
            folded += static_cast<double>(r.g_eff.at(i, j)) * config.parasitics.v_nom;
        EXPECT_NEAR(folded, sol.currents[static_cast<std::size_t>(j)],
                    std::fabs(sol.currents[static_cast<std::size_t>(j)]) * 1e-4);
    }
}

TEST(Degrade, NfGrowsWithCrossbarSize) {
    for (const double level : {10e-6, 30e-6}) {
        double prev = 0.0;
        for (const std::int64_t size : {8, 16, 32, 64}) {
            CrossbarConfig config;
            config.size = size;
            Tensor g({size, size}, static_cast<float>(level));
            const double nf = non_ideality_factor(g, config);
            EXPECT_GT(nf, prev) << "size " << size << " level " << level;
            prev = nf;
        }
    }
}

TEST(Degrade, NfGrowsWithConductance) {
    CrossbarConfig config;
    config.size = 32;
    double prev = -1.0;
    for (const double level : {5e-6, 15e-6, 30e-6, 50e-6}) {
        Tensor g({32, 32}, static_cast<float>(level));
        const double nf = non_ideality_factor(g, config);
        EXPECT_GT(nf, prev);
        prev = nf;
    }
}

TEST(Degrade, IdealParasiticsGiveZeroNf) {
    CrossbarConfig config;
    config.size = 16;
    config.parasitics = ParasiticsConfig::ideal();
    config.parasitics.v_nom = 0.25;
    Tensor g({16, 16}, 30e-6f);
    EXPECT_NEAR(non_ideality_factor(g, config), 0.0, 1e-6);
}

TEST(Degrade, HighConductanceNeighboursHurtLowColumn) {
    // The coupling that makes column rearrangement work: a low-G column
    // embedded among high-G columns degrades more than among low-G columns.
    CrossbarConfig config;
    config.size = 16;
    const float lo = static_cast<float>(config.device.g_min());
    const float hi = static_cast<float>(config.device.g_max());

    Tensor g_mixed({16, 16}, hi);
    for (std::int64_t i = 0; i < 16; ++i) g_mixed.at(i, 0) = lo;
    Tensor g_uniform({16, 16}, lo);

    const CircuitSolver solver(config);
    const std::vector<double> v(16, 0.25);
    const auto mixed = solver.solve(g_mixed, v);
    const auto uniform = solver.solve(g_uniform, v);
    const auto ideal = solver.ideal_currents(g_uniform, v);

    const double nf_mixed = (ideal[0] - mixed.currents[0]) / ideal[0];
    const double nf_uniform = (ideal[0] - uniform.currents[0]) / ideal[0];
    EXPECT_GT(nf_mixed, nf_uniform * 1.5);
}

}  // namespace
}  // namespace xs::xbar
