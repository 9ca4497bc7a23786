// Structured pruning on crossbars: train an unpruned and a C/F-pruned VGG11
// side by side, compare software accuracy, crossbar counts (compression
// rate), and on-crossbar accuracy across crossbar sizes — the core trade-off
// the paper studies (§V).
//
//   ./prune_and_map [--method=cf|xcs|xrs] [--sparsity=0.8] [--sizes=16,32,64]
#include "core/evaluator.h"
#include "data/synthetic.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "prune/stats.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);

    const auto method = prune::method_from_name(flags.get_string("method", "cf"));
    const double sparsity = flags.get_double("sparsity", 0.8);
    const auto sizes = flags.get_int_list("sizes", {16, 32, 64});
    const std::int64_t train_count = flags.get_int("train-count", 1280);
    const std::int64_t test_count = flags.get_int("test-count", 512);
    nn::VggConfig vgg;
    vgg.width = flags.get_double("width", 0.125);
    nn::TrainConfig train;
    train.epochs = flags.get_int("epochs", 4);
    train.verbose = flags.get_bool("verbose", false);
    flags.check_all_read();

    const data::SyntheticSpec spec = data::cifar10_like();
    const auto tt = data::generate_split(spec, train_count, test_count);

    // --- unpruned baseline ---
    util::Rng rng_a(7);
    nn::Sequential dense = nn::build_vgg(vgg, rng_a);
    nn::train(dense, tt.train, &tt.test, train);
    const double dense_sw = nn::evaluate(dense, tt.test);

    // --- pruned-at-init, then trained ---
    util::Rng rng_b(7);
    nn::Sequential pruned = nn::build_vgg(vgg, rng_b);
    prune::PruneConfig pc;
    pc.method = method;
    pc.sparsity = sparsity;
    const prune::MaskSet masks = prune::prune_at_init(pruned, pc);
    nn::train(pruned, tt.train, &tt.test, train, masks.hook());
    const double pruned_sw = nn::evaluate(pruned, tt.test);

    std::printf("method=%s sparsity=%.2f\n", prune::method_name(method).c_str(),
                sparsity);
    std::printf("software accuracy: unpruned %.2f%%, pruned %.2f%%\n", dense_sw,
                pruned_sw);
    std::printf("element sparsity of pruned model: %.3f\n\n",
                prune::model_sparsity(pruned));

    util::TextTable table({"xbar", "dense #xb", "pruned #xb", "compression",
                           "dense acc (ni)", "pruned acc (ni)"});
    for (const auto size : sizes) {
        core::EvalConfig eval;
        eval.xbar.size = size;
        eval.method = prune::Method::kNone;
        const auto dense_budget = core::MappingPlan(dense, eval).crossbars();
        const auto dense_hw = core::evaluate_on_crossbars(dense, tt.test, eval);
        eval.method = method;
        const auto pruned_budget = core::MappingPlan(pruned, eval).crossbars();
        const auto pruned_hw = core::evaluate_on_crossbars(pruned, tt.test, eval);

        table.add_row({std::to_string(size) + "x" + std::to_string(size),
                       std::to_string(dense_budget.total),
                       std::to_string(pruned_budget.total),
                       util::fmt(static_cast<double>(dense_budget.total) /
                                 static_cast<double>(pruned_budget.total)) + "x",
                       util::fmt(dense_hw.accuracy) + "%",
                       util::fmt(pruned_hw.accuracy) + "%"});
    }
    std::printf("%s\n", table.str().c_str());
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
