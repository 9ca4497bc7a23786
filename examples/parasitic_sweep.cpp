// Parasitic sweep: the unpruned VGG11 swept over crossbar size ×
// interconnect-resistance scale, reporting the accuracy and NF surface.
// Useful for calibrating the simulator against published degradation
// levels. A thin SweepSpec driver: the grid runs sharded and resumable,
// and repeats aggregate to mean±std (results/parasitic_sweep.csv). Every
// sweep axis flag (sweep/spec.h) overrides the sweep's grid below.
//
//   ./parasitic_sweep [--parasitic-scales=0.5,0.75,1] [--sizes=16,32,64]
//                     [--resume]
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
                {"prune", "none"},
                {"parasitic-scales", "0.5,0.75,1"}});

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.csv_name = "parasitic_sweep.csv";
    opts.manifest_name = "parasitic_sweep_manifest.jsonl";
    flags.check_all_read();

    sweep::SweepRunner runner(ctx, spec, opts);
    const sweep::SweepSummary summary = runner.run();

    util::TextTable table({"scale", "xbar", "accuracy", "drop", "NF"});
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        table.add_row({util::fmt(row.cell.parasitic_scale, 2),
                       std::to_string(row.cell.xbar_size),
                       util::fmt(row.acc_mean) + "±" + util::fmt(row.acc_std) + "%",
                       util::fmt(row.software_acc - row.acc_mean),
                       util::fmt(row.nf_mean, 4)});
    }
    std::printf("software accuracy: %.2f%%\n\n",
                summary.rows.empty() ? 0.0 : summary.rows.front().software_acc);
    std::printf("%s\n", table.str().c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
