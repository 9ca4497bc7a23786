// Quickstart: train a small VGG11 on the synthetic 10-class dataset, map it
// onto non-ideal 32×32 crossbars, and compare software vs on-crossbar
// accuracy.
//
//   ./quickstart [--width=0.125] [--epochs=4] [--train-count=1280]
#include "core/evaluator.h"
#include "data/synthetic.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "util/flags.h"
#include "util/log.h"

#include <cstdio>

int run(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    const std::int64_t train_count = flags.get_int("train-count", 1280);
    const std::int64_t test_count = flags.get_int("test-count", 512);
    nn::VggConfig vgg;
    vgg.variant = "vgg11";
    vgg.num_classes = 10;
    vgg.width = flags.get_double("width", 0.125);
    nn::TrainConfig train;
    train.epochs = flags.get_int("epochs", 4);
    train.verbose = true;
    core::EvalConfig eval;
    eval.xbar.size = flags.get_int("xbar", 32);
    flags.check_all_read();

    // 1. Data: a CIFAR10-like synthetic set (32×32 RGB, 10 classes).
    const data::SyntheticSpec spec = data::cifar10_like();
    const auto tt = data::generate_split(spec, train_count, test_count);

    // 2. Model: width-scaled VGG11 with batch norm.
    util::Rng rng(7);
    nn::Sequential model = nn::build_vgg(vgg, rng);
    std::printf("model:\n%s\n", model.summary().c_str());

    // 3. Train.
    nn::train(model, tt.train, &tt.test, train);
    const double software = nn::evaluate(model, tt.test);

    // 4. Map onto non-ideal crossbars and evaluate.
    const core::EvalResult hw = core::evaluate_on_crossbars(model, tt.test, eval);

    std::printf("\nsoftware accuracy:    %6.2f %%\n", software);
    std::printf("on-crossbar accuracy: %6.2f %%  (%lld crossbars of %lldx%lld, "
                "mean NF %.4f)\n",
                hw.accuracy, static_cast<long long>(hw.total_tiles),
                static_cast<long long>(eval.xbar.size),
                static_cast<long long>(eval.xbar.size), hw.nf_mean);
    return 0;
}

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
