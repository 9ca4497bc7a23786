// Fig. 3(c): accuracy vs crossbar size for unpruned and structure-pruned
// (s = 0.8) VGG16 on the CIFAR10-like set — same protocol as Fig. 3(a) with
// the deeper network. Paper shape: same ordering at 16/32; at 64×64 the C/F
// curve can cross above the unpruned one.
//
// A thin SweepSpec driver (DESIGN.md §7): sharded, resumable, repeats
// aggregated to mean±std (results/fig3c_vgg16_cifar10.csv). Every sweep
// axis flag (sweep/spec.h) overrides the figure's grid below.
//
//   ./bench_fig3c [--sizes=16,32,64] [--backends=circuit] [--sweep-repeats=2]
//                 [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/flags.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg16"},
                {"classes", "10"},
                {"prune", "none,cf:0.8,xcs:0.8,xrs:0.8"}});

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.csv_name = "fig3c_vgg16_cifar10.csv";
    opts.manifest_name = "fig3c_vgg16_cifar10_manifest.jsonl";
    flags.check_all_read();

    std::printf("Fig 3(c): VGG16 / CIFAR10-like — accuracy vs crossbar size\n\n");
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    std::printf("\n%s\n", sweep::accuracy_vs_size_table(summary).c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
