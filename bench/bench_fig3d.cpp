// Fig. 3(d): average non-ideality factor (NF) of the unpruned vs C/F-pruned
// VGG11/CIFAR10 weight matrices when the crossbar grows from 32×32 to 64×64.
// Paper shape: NF grows with crossbar size for both; the growth *rate* is
// higher for the unpruned network (it maps onto many more crossbars).
//
// Thin driver over the declarative sweep engine in NF-only mode
// (SweepSpec::nf_only): measure_nf with variation disabled is deterministic,
// so the grid runs with repeats = 1 and the figure CSV is derived from the
// sweep rows instead of a hand-written loop. Every sweep axis flag
// (sweep/spec.h) overrides the figure's grid below.
//
//   ./bench_fig3d [--sizes=32,64] [--parasitic-scales=1] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <map>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    // nf-only: no inference pass, no variation → deterministic, one repeat.
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11"},
                {"classes", "10"},
                {"prune", "none,cf:0.8"},
                {"sizes", "32,64"},
                {"nf-only", "true"},
                {"sweep-repeats", "1"}});

    sweep::SweepOptions opts;
    opts.csv_name = "fig3d_sweep.csv";
    opts.manifest_name = "fig3d_manifest.jsonl";
    opts.resume = flags.get_bool("resume", false);
    flags.check_all_read();

    std::printf("Fig 3(d): average NF, unpruned vs C/F VGG11/CIFAR10\n\n");
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    // Historical figure CSV plus the NF @32→@64 growth table, from the
    // aggregated rows (expansion order: scheme outer, size inner).
    util::CsvWriter csv(ctx.csv_path("fig3d_nf_vs_size.csv"),
                        {"scheme", "xbar_size", "nf_mean", "tiles"});
    std::map<std::string, std::map<std::int64_t, const sweep::GroupRow*>> by;
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        const prune::Method method = row.cell.prune.method;
        const std::string label =
            method == prune::Method::kNone            ? "unpruned"
            : method == prune::Method::kChannelFilter ? "C/F"
                                                      : prune::method_name(method);
        csv.row(label, row.cell.xbar_size, row.nf_mean, row.tiles);
        by[label][row.cell.xbar_size] = &row;
    }
    csv.flush();

    util::TextTable table({"scheme", "NF @32x32", "NF @64x64", "delta",
                           "tiles@32", "tiles@64"});
    for (const char* label : {"unpruned", "C/F"}) {
        const auto& sizes = by[label];
        if (sizes.count(32) == 0 || sizes.count(64) == 0) continue;
        const sweep::GroupRow& r32 = *sizes.at(32);
        const sweep::GroupRow& r64 = *sizes.at(64);
        table.add_row({label, util::fmt(r32.nf_mean, 4), util::fmt(r64.nf_mean, 4),
                       util::fmt(r64.nf_mean - r32.nf_mean, 4),
                       std::to_string(r32.tiles), std::to_string(r64.tiles)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("(series written to results/fig3d_nf_vs_size.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
