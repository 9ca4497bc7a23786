// Mitigation demo: C/F-pruned VGG11 mapped onto non-ideal crossbars with
// (a) no mitigation, (b) crossbar-column rearrangement R, and (c) WCT —
// the paper's §VI strategies. A thin SweepSpec driver: the mitigation axis
// is the grid, repeats aggregate to mean±std, and interrupted runs resume
// (results/mitigation_demo.csv). Every sweep axis flag (sweep/spec.h)
// overrides the demo's grid below.
//
//   ./mitigation_demo [--prune=cf:0.8] [--sizes=64] [--wct-percentile=0.9]
//                     [--backends=circuit,fast] [--resume]
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
                {"prune", "cf:0.8"},
                {"mitigations", "none,rearrange,wct"},
                {"sizes", "64"}});

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.csv_name = "mitigation_demo.csv";
    opts.manifest_name = "mitigation_demo_manifest.jsonl";
    flags.check_all_read();

    sweep::SweepRunner runner(ctx, spec, opts);
    const sweep::SweepSummary summary = runner.run();

    util::TextTable table({"configuration", "software", "crossbar", "NF"});
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        table.add_row({row.cell.label(/*with_size=*/true, /*elide_defaults=*/true),
                       util::fmt(row.software_acc) + "%",
                       util::fmt(row.acc_mean) + "±" + util::fmt(row.acc_std) + "%",
                       util::fmt(row.nf_mean, 4)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
