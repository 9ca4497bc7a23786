// Fig. 4(e,f): accuracy vs crossbar size for unpruned, C/F-pruned, and
// WCT + C/F-pruned VGG11 — CIFAR10-like (e, s = 0.8) and CIFAR100-like
// (f, s = 0.6). Paper shape: the WCT model holds its accuracy nearly flat
// across crossbar sizes and beats the unpruned model on large crossbars
// (~6–7 % at 64×64 / 32×32).
//
// Thin driver over the declarative sweep engine (sweep/runner.h): each
// scheme runs as its own SweepSpec over the figure's grid at one class
// count — the scheme set is not a cartesian product (WCT applies to the
// pruned model only), so a scheme sets only the prune and mitigation axes —
// and the bench inherits sharded execution, resumable manifests, and
// deterministic mean±std aggregation; the figure CSV is derived from the
// sweep rows instead of a hand-written evaluation loop. Every other sweep
// axis flag (sweep/spec.h) overrides the figure's grid below.
//
//   ./bench_fig4ef [--classes=10,100] [--sizes=16,32,64]
//                  [--sweep-repeats=2] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <string>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec grid = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11"}, {"classes", "10,100"}});
    const bool resume = flags.get_bool("resume", false);
    flags.check_all_read();

    util::CsvWriter csv(ctx.csv_path("fig4ef_wct.csv"),
                        {"dataset", "scheme", "xbar_size", "software_acc",
                         "crossbar_acc", "nf_mean"});
    for (const std::int64_t classes : grid.class_counts) {
        const double s = classes >= 100 ? 0.6 : 0.8;  // the paper's sparsities
        std::printf(
            "Fig 4(%s): VGG11 / CIFAR%lld-like, s=%.2f — WCT mitigation\n\n",
            classes == 10 ? "e" : "f", static_cast<long long>(classes), s);

        struct Scheme {
            const char* label;
            const char* slug;  // manifest/CSV file name component
            sweep::PruneSetting prune;
            sweep::Mitigation mitigation;
        };
        const Scheme schemes[] = {
            {"unpruned", "unpruned", {prune::Method::kNone, 0.0}, {}},
            {"C/F", "cf", {prune::Method::kChannelFilter, s}, {}},
            {"WCT + C/F", "wct_cf", {prune::Method::kChannelFilter, s},
             {true, false}},
        };

        sweep::SweepSummary figure;  // every scheme's rows, for the table
        for (const Scheme& scheme : schemes) {
            sweep::SweepSpec spec = grid;
            spec.class_counts = {classes};
            spec.prunes = {scheme.prune};
            spec.mitigations = {scheme.mitigation};

            sweep::SweepOptions opts;
            opts.resume = resume;
            opts.csv_name = "fig4ef_c" + std::to_string(classes) + "_" +
                            scheme.slug + "_sweep.csv";
            opts.manifest_name = "fig4ef_c" + std::to_string(classes) + "_" +
                                 scheme.slug + "_manifest.jsonl";

            const sweep::SweepSummary summary =
                sweep::SweepRunner(ctx, spec, opts).run();
            for (const sweep::GroupRow& row : summary.rows) {
                if (!row.complete()) continue;
                csv.row(classes, scheme.label, row.cell.xbar_size,
                        row.software_acc, row.acc_mean, row.nf_mean);
            }
            figure.rows.insert(figure.rows.end(), summary.rows.begin(),
                               summary.rows.end());
        }
        std::printf("%s\n", sweep::accuracy_vs_size_table(figure).c_str());
    }
    std::printf("(series written to results/fig4ef_wct.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
