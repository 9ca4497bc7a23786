// Mini-batch trainer with pluggable optimizer and a post-step hook. The hook
// is how pruning masks (src/prune) and WCT weight clipping (src/core) stay
// enforced during training without the trainer knowing about either.
#pragma once

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"

#include <functional>
#include <string>
#include <vector>

namespace xs::nn {

// A labelled image set: images (N, C, H, W), labels[i] in [0, classes).
struct Dataset {
    Tensor images;
    std::vector<std::int64_t> labels;
    std::int64_t num_classes = 0;

    std::int64_t size() const { return images.rank() ? images.dim(0) : 0; }
};

struct TrainConfig {
    std::int64_t epochs = 10;
    std::int64_t batch_size = 32;
    float lr = 2e-3f;
    std::string optimizer = "adam";  // "adam" | "sgd"
    float momentum = 0.9f;
    float weight_decay = 1e-4f;
    float lr_decay = 0.85f;  // multiplicative per-epoch decay
    std::uint64_t seed = 1;
    bool verbose = false;
};

struct EpochStats {
    double train_loss = 0.0;
    double train_acc = 0.0;
    double test_acc = 0.0;
    double seconds = 0.0;
};

// Called after every optimizer step (e.g. to re-apply pruning masks).
using StepHook = std::function<void(Sequential&)>;

// Top-1 accuracy (%) of `model` on `data`, evaluated in inference mode
// through a fused InferenceEngine (nn/infer.h) built for the call.
// Identity-order evaluation forwards contiguous views straight into the
// dataset tensor: no batch gather, no memcpy.
double evaluate(Sequential& model, const Dataset& data, std::int64_t batch_size = 64);

// Trains in place; returns per-epoch stats. If `test` is non-null its
// accuracy is recorded each epoch.
std::vector<EpochStats> train(Sequential& model, const Dataset& train_data,
                              const Dataset* test_data, const TrainConfig& config,
                              const StepHook& hook = {});

// Copy a batch of rows (by index) out of a dataset.
void gather_batch(const Dataset& data, const std::vector<std::size_t>& order,
                  std::size_t start, std::size_t count, Tensor& images,
                  std::vector<std::int64_t>& labels);

}  // namespace xs::nn
