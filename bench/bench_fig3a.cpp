// Fig. 3(a): inference accuracy vs crossbar size for the unpruned and
// structure-pruned (C/F, XCS, XRS; s = 0.8) VGG11 on the CIFAR10-like set.
//
// Paper shape: all curves fall as the crossbar grows; the pruned curves fall
// faster than the unpruned one (≈ −21 % unpruned vs −24…−39 % pruned at
// 64×64 relative to software).
//
// A thin SweepSpec driver (DESIGN.md §7): the scheme × size grid runs
// sharded and resumable, Monte-Carlo repeats aggregate to mean±std, and the
// aggregate CSV lands in results/fig3a_<variants>_cifar10.csv. Every sweep
// axis flag (sweep/spec.h) overrides the figure's grid below.
//
//   ./bench_fig3a [--variants=vgg11] [--sizes=16,32,64] [--backends=circuit]
//                 [--sweep-repeats=2] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/flags.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11"},
                {"classes", "10"},
                {"prune", "none,cf:0.8,xcs:0.8,xrs:0.8"}});

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    flags.check_all_read();
    std::string name = "fig3a";
    for (const std::string& variant : spec.variants) name += "_" + variant;
    opts.csv_name = name + "_cifar10.csv";
    opts.manifest_name = name + "_cifar10_manifest.jsonl";

    std::printf("Fig 3(a): CIFAR10-like — accuracy vs crossbar size\n\n");
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    std::printf("\n%s\n", sweep::accuracy_vs_size_table(summary).c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
