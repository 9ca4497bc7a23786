// Fig. 4(c,d): accuracy vs crossbar size for unpruned, C/F-pruned, and
// C/F + R — VGG11 (c) and VGG16 (d) on the CIFAR100-like set (s = 0.6).
// Paper shape: R again recovers part of the pruned-model loss; on 32×32 the
// rearranged VGG16 even exceeds the unpruned one by ~3 %.
//
// Thin driver over the declarative sweep engine (sweep/runner.h): each
// scheme runs as its own SweepSpec over the figure's grid — the scheme set
// is not a cartesian product (the paper applies R to the pruned model only),
// so a scheme sets only the prune and mitigation axes — and the bench
// inherits sharded execution, resumable manifests, and deterministic
// mean±std aggregation; the figure CSV is derived from the sweep rows
// instead of a hand-written evaluation loop. Every other sweep axis flag
// (sweep/spec.h) overrides the figure's grid below.
//
//   ./bench_fig4cd [--variants=vgg11,vgg16] [--sizes=16,32,64]
//                  [--backends=circuit] [--sweep-repeats=2] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec grid = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11,vgg16"}, {"classes", "100"}});
    const bool resume = flags.get_bool("resume", false);
    flags.check_all_read();

    const double s = 0.6;  // the paper's CIFAR100 sparsity
    struct Scheme {
        const char* label;
        const char* slug;  // manifest/CSV file name component
        sweep::PruneSetting prune;
        sweep::Mitigation mitigation;
    };
    const Scheme schemes[] = {
        {"unpruned", "unpruned", {prune::Method::kNone, 0.0}, {}},
        {"C/F", "cf", {prune::Method::kChannelFilter, s}, {}},
        {"C/F + R", "cf_r", {prune::Method::kChannelFilter, s}, {false, true}},
    };

    util::CsvWriter csv(ctx.csv_path("fig4cd_rearrangement_cifar100.csv"),
                        {"variant", "scheme", "xbar_size", "software_acc",
                         "crossbar_acc", "nf_mean"});
    for (const std::string& variant : grid.variants) {
        std::printf("Fig 4(%s): %s / CIFAR100-like, s=%.2f\n\n",
                    variant == "vgg11" ? "c" : "d", variant.c_str(), s);
        sweep::SweepSummary figure;  // every scheme's rows, for the table
        for (const Scheme& scheme : schemes) {
            sweep::SweepSpec spec = grid;
            spec.variants = {variant};
            spec.prunes = {scheme.prune};
            spec.mitigations = {scheme.mitigation};

            sweep::SweepOptions opts;
            opts.resume = resume;
            opts.csv_name =
                "fig4cd_" + variant + "_" + scheme.slug + "_sweep.csv";
            opts.manifest_name =
                "fig4cd_" + variant + "_" + scheme.slug + "_manifest.jsonl";

            const sweep::SweepSummary summary =
                sweep::SweepRunner(ctx, spec, opts).run();
            for (const sweep::GroupRow& row : summary.rows) {
                if (!row.complete()) continue;
                csv.row(variant, scheme.label, row.cell.xbar_size,
                        row.software_acc, row.acc_mean, row.nf_mean);
            }
            figure.rows.insert(figure.rows.end(), summary.rows.begin(),
                               summary.rows.end());
        }
        std::printf("%s\n", sweep::accuracy_vs_size_table(figure).c_str());
    }
    std::printf("(series written to results/fig4cd_rearrangement_cifar100.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
