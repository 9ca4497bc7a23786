// Energy/area vs accuracy: the full trade-off the paper's abstract
// describes. Trains an unpruned and a C/F-pruned model, then reports
// crossbar count, array+periphery energy, area, and non-ideal accuracy
// side by side across crossbar sizes.
//
//   ./energy_tradeoff [--sparsity=0.8] [--sizes=16,32,64]
#include "core/evaluator.h"
#include "data/synthetic.h"
#include "map/compression.h"
#include "map/energy.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    const double sparsity = flags.get_double("sparsity", 0.8);
    const auto sizes = flags.get_int_list("sizes", {16, 32, 64});
    const std::int64_t train_count = flags.get_int("train-count", 1280);
    const std::int64_t test_count = flags.get_int("test-count", 512);
    nn::VggConfig vgg;
    vgg.width = flags.get_double("width", 0.125);
    nn::TrainConfig train;
    train.epochs = flags.get_int("epochs", 4);
    flags.check_all_read();

    const data::SyntheticSpec spec = data::cifar10_like();
    const auto tt = data::generate_split(spec, train_count, test_count);

    util::Rng rng_a(7);
    nn::Sequential dense = nn::build_vgg(vgg, rng_a);
    nn::train(dense, tt.train, &tt.test, train);

    util::Rng rng_b(7);
    nn::Sequential pruned = nn::build_vgg(vgg, rng_b);
    prune::PruneConfig pc;
    pc.method = prune::Method::kChannelFilter;
    pc.sparsity = sparsity;
    const prune::MaskSet masks = prune::prune_at_init(pruned, pc);
    nn::train(pruned, tt.train, &tt.test, train, masks.hook());

    const map::EnergyConfig energy_config;
    util::TextTable table({"model", "xbar", "tiles", "energy/pass (nJ)",
                           "area (mm^2)", "non-ideal acc"});
    for (const auto size : sizes) {
        for (const bool is_pruned : {false, true}) {
            nn::Sequential& model = is_pruned ? pruned : dense;
            const auto method = is_pruned ? prune::Method::kChannelFilter
                                          : prune::Method::kNone;
            xbar::CrossbarConfig xc;
            xc.size = size;
            const auto energy = map::estimate_energy(model, method, xc, energy_config);
            core::EvalConfig eval;
            eval.xbar = xc;
            eval.method = method;
            const auto r = core::evaluate_on_crossbars(model, tt.test, eval);
            table.add_row({is_pruned ? "C/F pruned" : "unpruned",
                           std::to_string(size), std::to_string(energy.tiles),
                           util::fmt(energy.total_energy_pj() / 1e3, 2),
                           util::fmt(energy.area_um2 / 1e6, 3),
                           util::fmt(r.accuracy) + "%"});
        }
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("Sparser models save energy and area but lose more accuracy to\n"
                "non-idealities — the paper's central trade-off.\n");
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
