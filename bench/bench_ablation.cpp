// Ablation bench (DESIGN.md §6 design choices): the C/F-pruned VGG11/CIFAR10
// model mapped under the default non-ideality stack plus one knob changed at
// a time — write quantization, stuck-at faults, IR-drop column compensation
// ([12]-style baseline), and the paper's two mitigations, on equal footing.
//
// A thin SweepSpec driver (DESIGN.md §7): every ablation case is the
// bench's grid with its prune, mitigation and at most one other axis set
// (sigma, parasitic scale, faults or quant-levels), so each case inherits
// sharded execution, resumable manifests, lane-batched Monte-Carlo repeats,
// and deterministic mean±std aggregation instead of a hand-written
// evaluation loop. Every sweep axis flag (sweep/spec.h) overrides the grid
// below, except where a case sets that axis.
//
//   ./bench_ablation [--sizes=64] [--sweep-repeats=2] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <vector>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec grid = sweep::parse_sweep_spec(
        flags, {{"variants", "vgg11"}, {"classes", "10"}, {"sizes", "64"}});
    const bool resume = flags.get_bool("resume", false);
    flags.check_all_read();

    const double s = 0.8;  // the paper's CIFAR10 sparsity
    const sweep::PruneSetting unpruned{prune::Method::kNone, 0.0};
    const sweep::PruneSetting cf{prune::Method::kChannelFilter, s};

    // One knob per case; everything else stays at the grid's values.
    struct Case {
        const char* label;
        const char* slug;  // manifest/CSV file name component
        sweep::PruneSetting prune;
        sweep::Mitigation mitigation;
        void (*knob)(sweep::SweepSpec&);  // the case's one other axis
    };
    const auto same = [](sweep::SweepSpec&) {};
    const sweep::Mitigation none{};
    const std::vector<Case> cases = {
        {"unpruned baseline", "unpruned", unpruned, none, same},
        {"C/F baseline", "cf", cf, none, same},
        {"C/F, no variation", "novar", cf, none,
         [](sweep::SweepSpec& g) { g.sigmas = {0.0}; }},
        {"C/F, no parasitics", "nopar", cf, none,
         [](sweep::SweepSpec& g) { g.parasitic_scales = {0.0}; }},
        {"C/F + 6-bit write quant", "q64", cf, none,
         [](sweep::SweepSpec& g) { g.quant_levels = {64}; }},
        {"C/F + 4-bit write quant", "q16", cf, none,
         [](sweep::SweepSpec& g) { g.quant_levels = {16}; }},
        {"C/F + 1% stuck faults", "f1", cf, none,
         [](sweep::SweepSpec& g) { g.faults = {{0.005, 0.005}}; }},
        {"C/F + 5% stuck faults", "f5", cf, none,
         [](sweep::SweepSpec& g) { g.faults = {{0.025, 0.025}}; }},
        {"C/F + column compensation", "comp", cf, {false, false, true}, same},
        {"C/F + R", "r", cf, {false, true, false}, same},
        {"C/F + R + compensation", "rcomp", cf, {false, true, true}, same},
        {"WCT + C/F", "wct", cf, {true, false, false}, same},
    };

    util::CsvWriter csv(ctx.csv_path("ablation.csv"),
                        {"variant", "xbar_size", "accuracy", "nf_mean"});
    util::TextTable table({"variant", "xbar", "software", "accuracy", "NF"});

    std::printf("Ablation: C/F-pruned VGG11/CIFAR10 (s=%.2f)\n\n", s);

    for (const Case& c : cases) {
        sweep::SweepSpec spec = grid;
        spec.prunes = {c.prune};
        spec.mitigations = {c.mitigation};
        c.knob(spec);

        sweep::SweepOptions opts;
        opts.resume = resume;
        opts.csv_name = std::string("ablation_") + c.slug + "_sweep.csv";
        opts.manifest_name =
            std::string("ablation_") + c.slug + "_manifest.jsonl";

        const sweep::SweepSummary summary =
            sweep::SweepRunner(ctx, spec, opts).run();
        for (const sweep::GroupRow& row : summary.rows) {
            const std::string size = std::to_string(row.cell.xbar_size);
            if (!row.complete()) {
                table.add_row({c.label, size, "--", "--", "--"});
                continue;
            }
            csv.row(c.label, row.cell.xbar_size, row.acc_mean, row.nf_mean);
            table.add_row({c.label, size, util::fmt(row.software_acc) + "%",
                           util::fmt(row.acc_mean) + "%",
                           util::fmt(row.nf_mean, 4)});
        }
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("(rows written to results/ablation.csv)\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
