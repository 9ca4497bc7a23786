#include "nn/trainer.h"

#include "nn/infer.h"
#include "tensor/ops.h"
#include "util/log.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

namespace xs::nn {

using tensor::check;
using tensor::Tensor;

void gather_batch(const Dataset& data, const std::vector<std::size_t>& order,
                  std::size_t start, std::size_t count, Tensor& images,
                  std::vector<std::int64_t>& labels) {
    const auto& shape = data.images.shape();
    const std::int64_t item = data.images.numel() / shape[0];
    tensor::Shape batch_shape = shape;
    batch_shape[0] = static_cast<std::int64_t>(count);
    if (images.shape() != batch_shape) images = Tensor(batch_shape);
    labels.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t src = order[start + i];
        std::memcpy(images.data() + static_cast<std::int64_t>(i) * item,
                    data.images.data() + static_cast<std::int64_t>(src) * item,
                    static_cast<std::size_t>(item) * sizeof(float));
        labels[i] = data.labels[src];
    }
}

double evaluate(Sequential& model, const Dataset& data, std::int64_t batch_size) {
    const std::int64_t n = data.size();
    if (n == 0) return 0.0;
    InferenceEngine engine(model);
    // Evaluation order is the identity, so a batch is a contiguous row range
    // of the dataset tensor: forward a view straight into its storage
    // instead of building an order vector and memcpy'ing every batch.
    const std::int64_t item = data.images.numel() / data.images.dim(0);
    tensor::Shape batch_shape = data.images.shape();
    std::int64_t correct = 0;
    for (std::int64_t start = 0; start < n; start += batch_size) {
        const std::int64_t count = std::min(batch_size, n - start);
        batch_shape[0] = count;
        const Tensor& logits =
            engine.forward(data.images.data() + start * item, batch_shape);
        for (std::int64_t i = 0; i < count; ++i)
            if (tensor::argmax_row(logits, i) ==
                data.labels[static_cast<std::size_t>(start + i)])
                ++correct;
    }
    return 100.0 * static_cast<double>(correct) / static_cast<double>(n);
}

std::vector<EpochStats> train(Sequential& model, const Dataset& train_data,
                              const Dataset* test_data, const TrainConfig& config,
                              const StepHook& hook) {
    check(train_data.size() > 0, "train: empty dataset");
    util::Rng rng(config.seed);

    std::unique_ptr<Optimizer> opt;
    if (config.optimizer == "sgd") {
        opt = std::make_unique<Sgd>(model.params(), config.lr, config.momentum,
                                    config.weight_decay);
    } else {
        opt = std::make_unique<Adam>(model.params(), config.lr, 0.9f, 0.999f, 1e-8f,
                                     config.weight_decay);
    }

    // Masks/clips must hold from step zero (prune-at-init).
    if (hook) hook(model);

    std::vector<EpochStats> history;
    const std::size_t n = static_cast<std::size_t>(train_data.size());
    float lr = config.lr;

    Tensor batch;
    std::vector<std::int64_t> labels;
    for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
        util::Stopwatch watch;
        opt->set_lr(lr);
        const std::vector<std::size_t> order = rng.permutation(n);

        double loss_sum = 0.0;
        std::int64_t correct = 0, seen = 0, steps = 0;
        for (std::size_t start = 0; start < n;
             start += static_cast<std::size_t>(config.batch_size)) {
            const std::size_t count = std::min(
                static_cast<std::size_t>(config.batch_size), n - start);
            gather_batch(train_data, order, start, count, batch, labels);

            model.zero_grad();
            const Tensor logits = model.forward(batch, /*training=*/true);
            LossResult loss = softmax_cross_entropy(logits, labels);
            model.backward(loss.grad);
            opt->step();
            if (hook) hook(model);

            loss_sum += loss.loss;
            correct += loss.correct;
            seen += static_cast<std::int64_t>(count);
            ++steps;
        }

        EpochStats stats;
        stats.train_loss = loss_sum / static_cast<double>(std::max<std::int64_t>(steps, 1));
        stats.train_acc = 100.0 * static_cast<double>(correct) /
                          static_cast<double>(std::max<std::int64_t>(seen, 1));
        if (test_data) stats.test_acc = evaluate(model, *test_data);
        stats.seconds = watch.seconds();
        history.push_back(stats);

        if (config.verbose) {
            std::ostringstream os;
            os << "epoch " << (epoch + 1) << "/" << config.epochs << " loss="
               << stats.train_loss << " train_acc=" << stats.train_acc << "%";
            if (test_data) os << " test_acc=" << stats.test_acc << "%";
            os << " (" << stats.seconds << "s)";
            util::log_info(os.str());
        }
        lr *= config.lr_decay;
    }
    return history;
}

}  // namespace xs::nn
