// Fig. 3(f): |W| heatmaps of the 3rd and 5th conv layers of the C/F-pruned
// VGG16/CIFAR10 model, before and after the column rearrangement R
// (centre-out order, as in the paper's visualization). Emits one CSV per
// heatmap into results/; the paper's visual — light (low-|w|) columns
// concentrated at the centre after R — can be confirmed with any plotter.
// An ASCII digest (per-column mean |w| profile) is printed to stdout.
//
// Thin driver over the declarative sweep engine (sweep/runner.h), like
// fig3a–3d: the quantitative side of the figure — does R actually lower the
// tile-average non-ideality factor? — is a none-vs-rearrange nf_only
// SweepSpec, so the bench inherits sharded execution, the resumable
// manifest, and the deterministic aggregate; the historical
// fig3f_rearrange_nf.csv is derived from the summary rows. The heatmap
// dumps then reuse the sweep's prepared-model cache via ctx.prepared(): one
// set per variant of the grid, of its model at the grid's first class count
// and prune setting. Every sweep axis flag (sweep/spec.h) overrides the
// figure's grid below.
//
//   ./bench_fig3f_heatmap [--variants=vgg16] [--sizes=16,32,64] [--resume]
#include "core/experiments.h"
#include "core/rearrange.h"
#include "map/compaction.h"
#include "map/matrix_view.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace {

void dump_matrix(const std::string& path, const xs::tensor::Tensor& m) {
    std::ofstream os(path);
    for (std::int64_t r = 0; r < m.dim(0); ++r) {
        for (std::int64_t c = 0; c < m.dim(1); ++c) {
            if (c) os << ',';
            os << std::fabs(m.at(r, c));
        }
        os << '\n';
    }
}

void ascii_profile(const char* tag, const xs::tensor::Tensor& m) {
    // Column-mean |w| quantized into 8 shade levels across up to 64 buckets.
    const std::int64_t cols = m.dim(1);
    const std::int64_t buckets = std::min<std::int64_t>(cols, 64);
    std::vector<double> profile(static_cast<std::size_t>(buckets), 0.0);
    double peak = 1e-12;
    for (std::int64_t b = 0; b < buckets; ++b) {
        const std::int64_t c0 = b * cols / buckets, c1 = (b + 1) * cols / buckets;
        double acc = 0.0;
        std::int64_t n = 0;
        for (std::int64_t c = c0; c < std::max(c1, c0 + 1); ++c)
            for (std::int64_t r = 0; r < m.dim(0); ++r) {
                acc += std::fabs(m.at(r, c));
                ++n;
            }
        profile[static_cast<std::size_t>(b)] = acc / static_cast<double>(n);
        peak = std::max(peak, profile[static_cast<std::size_t>(b)]);
    }
    static const char shades[] = " .:-=+*#@";
    std::printf("  %-22s |", tag);
    for (const double v : profile) {
        const int level = static_cast<int>(v / peak * 8.0);
        std::printf("%c", shades[std::min(level, 8)]);
    }
    std::printf("|\n");
}

}  // namespace

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    // Quantitative companion to the heatmaps: tile-average NF with and
    // without R, per crossbar size. nf_only cells are deterministic
    // (variation disabled), so one repeat suffices.
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg16"},
                {"classes", "10"},
                {"prune", "cf:0.8"},
                {"mitigations", "none,rearrange"},
                {"nf-only", "true"},
                {"sweep-repeats", "1"}});

    sweep::SweepOptions opts;
    opts.csv_name = "fig3f_sweep.csv";
    opts.manifest_name = "fig3f_manifest.jsonl";
    opts.resume = flags.get_bool("resume", false);
    flags.check_all_read();

    std::printf("Fig 3(f): C/F-pruned CIFAR10-like — rearrangement heatmaps "
                "+ NF sweep\n\n");
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    // Historical figure CSV, one row per (mitigation, size) in grid order.
    util::CsvWriter csv(ctx.csv_path("fig3f_rearrange_nf.csv"),
                        {"mitigation", "xbar_size", "nf_mean", "tiles"});
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        csv.row(row.cell.mitigation.name(), row.cell.xbar_size, row.nf_mean,
                row.tiles);
    }
    csv.flush();

    // The sweep prepared (or loaded) the models; the heatmaps reuse them.
    const sweep::PruneSetting& pruned = spec.prunes.front();
    for (const std::string& variant : spec.variants) {
        auto& model = ctx.prepared(ctx.spec(variant, spec.class_counts.front(),
                                            pruned.method, pruned.sparsity));
        for (const std::string layer_name : {"conv3", "conv5"}) {
            nn::Layer* layer = model.model.find(layer_name);
            if (!layer) continue;
            const tensor::Tensor matrix = map::extract_matrix(*layer);
            const map::Compaction compaction = map::compact_dense(matrix);

            const auto r = core::compute_rearrangement(
                compaction.matrix, core::RearrangeOrder::kCenterOut);
            const tensor::Tensor rearranged =
                core::apply_columns(compaction.matrix, r);

            const std::string stem = "fig3f_" + variant + "_" + layer_name;
            dump_matrix(ctx.csv_path(stem + "_before.csv"), compaction.matrix);
            dump_matrix(ctx.csv_path(stem + "_after.csv"), rearranged);

            std::printf("%s %s (%lld x %lld after T):\n", variant.c_str(),
                        layer_name.c_str(),
                        static_cast<long long>(compaction.matrix.dim(0)),
                        static_cast<long long>(compaction.matrix.dim(1)));
            ascii_profile("before R", compaction.matrix);
            ascii_profile("after R (centre-out)", rearranged);
            std::printf("\n");
        }
    }
    std::printf("(NF series written to results/fig3f_rearrange_nf.csv, full "
                "heatmaps to results/fig3f_*.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
