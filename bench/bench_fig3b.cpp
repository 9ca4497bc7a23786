// Fig. 3(b): accuracy vs crossbar size for C/F-pruned VGG11/CIFAR10 at
// different sparsity ratios. Paper shape: lower sparsity → smaller
// non-ideal accuracy degradation.
//
// Thin driver over the declarative sweep engine (sweep/runner.h): the
// sparsity × size grid is a SweepSpec, so the bench inherits sharded
// execution, the resumable manifest, and the deterministic aggregate — the
// figure CSV is derived from the sweep rows instead of a hand-written loop.
// Every sweep axis flag (sweep/spec.h) overrides the figure's grid below.
//
//   ./bench_fig3b [--prune=cf:0.5,cf:0.65,cf:0.8] [--sizes=16,32,64]
//                 [--sweep-repeats=2] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11"},
                {"classes", "10"},
                {"prune", "cf:0.5,cf:0.65,cf:0.8"}});

    sweep::SweepOptions opts;
    opts.csv_name = "fig3b_sweep.csv";
    opts.manifest_name = "fig3b_manifest.jsonl";
    opts.resume = flags.get_bool("resume", false);
    flags.check_all_read();

    std::printf("Fig 3(b): C/F-pruned VGG11 / CIFAR10-like — sparsity sweep\n\n");
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    // Historical figure CSV, one row per (sparsity, size) in grid order.
    util::CsvWriter csv(ctx.csv_path("fig3b_vgg11_cifar10_sparsity.csv"),
                        {"sparsity", "xbar_size", "software_acc", "crossbar_acc",
                         "nf_mean"});
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        csv.row(row.cell.prune.sparsity, row.cell.xbar_size, row.software_acc,
                row.acc_mean, row.nf_mean);
    }
    csv.flush();

    std::printf("%s\n", sweep::accuracy_vs_size_table(summary).c_str());
    std::printf("(series written to results/fig3b_vgg11_cifar10_sparsity.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
