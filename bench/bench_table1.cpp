// Table I: software accuracies of the trained model variants, and the
// crossbar-compression-rate on 32×32 crossbars.
//
// A thin SweepSpec driver (DESIGN.md §7), like the figure benches: the
// variant × scheme grid runs one nf-only sweep per class count — sharded,
// resumable, manifested — and the table's software accuracies come from the
// sweep's aggregate rows (the sweep engine resolves the same width-scaled
// trained models through the on-disk cache). A class count sets only the
// prune axis (s = 0.8 or 0.6); every other sweep axis flag (sweep/spec.h)
// overrides the table's grid below, and each crossbar size of the grid gets
// its own table. Compression rates are purely structural — they depend only
// on the pruning masks and matrix shapes — so they are computed at the
// paper's full network width (--compression-width, default 1.0) from
// freshly pruned-at-init models, which reproduces the magnitude of the
// paper's numbers (C/F ≈ 19.7× at s = 0.8, XCS/XRS ≈ 4–6×).
//
//   ./bench_table1 [--variants=vgg11,vgg16] [--sizes=32] [--resume]
#include "core/evaluator.h"
#include "core/experiments.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <map>
#include <tuple>

namespace {

double structural_compression(const std::string& variant, std::int64_t classes,
                              xs::prune::Method method, double sparsity,
                              double width, std::int64_t xbar_size) {
    using namespace xs;
    nn::VggConfig vc;
    vc.variant = variant;
    vc.num_classes = classes;
    vc.width = width;
    util::Rng rng(1234);
    nn::Sequential model = nn::build_vgg(vc, rng);
    prune::PruneConfig pc;
    pc.method = method;
    pc.sparsity = sparsity;
    pc.segment_size = xbar_size;
    prune::prune_at_init(model, pc);
    core::EvalConfig mapping;
    mapping.xbar.size = xbar_size;
    mapping.method = method;
    return core::MappingPlan(model, mapping).crossbars().compression_rate();
}

}  // namespace

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const double comp_width = flags.get_double("compression-width", 1.0);
    // One nf-only sweep per class count over variant × scheme: no inference
    // pass, no device variation — each cell deterministically prepares (or
    // loads) its trained model and reports its software accuracy.
    const sweep::SweepSpec grid = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11,vgg16"},
                {"classes", "10,100"},
                {"sizes", "32"},
                {"nf-only", "true"},
                {"sweep-repeats", "1"}});
    const bool resume = flags.get_bool("resume", false);
    flags.check_all_read();

    util::CsvWriter csv(ctx.csv_path("table1.csv"),
                        {"dataset", "network", "scheme", "sparsity",
                         "software_acc", "compression_rate"});

    for (const std::int64_t classes : grid.class_counts) {
        const double s = classes >= 100 ? 0.6 : 0.8;  // the paper's sparsities
        struct Scheme {
            const char* label;
            prune::Method method;
        };
        std::vector<Scheme> schemes = {{"unpruned", prune::Method::kNone},
                                       {"C/F", prune::Method::kChannelFilter}};
        if (classes == 10) {
            schemes.push_back({"XCS", prune::Method::kXbarColumn});
            schemes.push_back({"XRS", prune::Method::kXbarRow});
        }

        sweep::SweepSpec spec = grid;
        spec.class_counts = {classes};
        spec.prunes.clear();
        for (const auto& scheme : schemes)
            spec.prunes.push_back(
                {scheme.method,
                 scheme.method == prune::Method::kNone ? 0.0 : s});

        sweep::SweepOptions opts;
        opts.resume = resume;
        opts.csv_name = "table1_c" + std::to_string(classes) + "_sweep.csv";
        opts.manifest_name =
            "table1_c" + std::to_string(classes) + "_manifest.jsonl";
        const sweep::SweepSummary summary =
            sweep::SweepRunner(ctx, spec, opts).run();

        // (variant, scheme, size) → sweep row, keyed the way the table
        // iterates.
        std::map<std::tuple<std::string, prune::Method, std::int64_t>,
                 const sweep::GroupRow*>
            rows;
        for (const sweep::GroupRow& row : summary.rows)
            if (row.complete())
                rows[{row.cell.variant, row.cell.prune.method,
                      row.cell.xbar_size}] = &row;

        std::vector<std::string> header{"network"};
        for (const auto& scheme : schemes)
            header.push_back(std::string(scheme.label) +
                             (scheme.method == prune::Method::kNone
                                  ? ""
                                  : " (s=" + util::fmt(s, 1) + ")"));
        for (const std::int64_t size : spec.sizes) {
            std::printf("Table I — CIFAR%lld-like: software accuracy  ||  "
                        "crossbar-compression-rate (%lldx%lld, width %.2f)\n\n",
                        static_cast<long long>(classes),
                        static_cast<long long>(size),
                        static_cast<long long>(size), comp_width);
            util::TextTable table(header);

            for (const std::string& variant : spec.variants) {
                std::vector<std::string> row{variant};
                for (const auto& scheme : schemes) {
                    const double sp =
                        scheme.method == prune::Method::kNone ? 0.0 : s;
                    const auto it = rows.find({variant, scheme.method, size});
                    if (it == rows.end()) {  // interrupted sweep (--max-cells)
                        row.push_back("--");
                        continue;
                    }
                    std::string cell =
                        util::fmt(it->second->software_acc) + "%";
                    double comp = 0.0;
                    if (scheme.method != prune::Method::kNone) {
                        comp = structural_compression(variant, classes,
                                                      scheme.method, sp,
                                                      comp_width, size);
                        cell += " || " + util::fmt(comp) + "x";
                    } else {
                        cell += " || --";
                    }
                    csv.row(classes, variant, scheme.label, sp,
                            it->second->software_acc, comp);
                    row.push_back(cell);
                }
                table.add_row(row);
            }
            std::printf("%s\n", table.str().c_str());
        }
    }
    std::printf("(rows written to results/table1.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
