// Weight-Constrained-Training (paper §VI-B, motivated by NEAT).
//
// From the trained weight distribution of every mappable layer a cut-off
// W_cut is chosen (a percentile of the non-zero |w| values). Weights are
// transformed w ← min(|w|, W_cut)·sign(w) and the model is fine-tuned for a
// couple of epochs with the clip (and any pruning masks) re-applied after
// each step. At mapping time the weight→conductance scale stays frozen at
// the pre-clip per-layer max|w| (returned in `w_ref`), so the WCT model
// occupies only the robust low-conductance region of the devices.
#pragma once

#include "nn/sequential.h"
#include "nn/trainer.h"
#include "prune/mask.h"

#include <map>
#include <string>
#include <vector>

namespace xs::core {

struct WctConfig {
    double percentile = 0.80;  // W_cut percentile over non-zero |w|
    nn::TrainConfig finetune;  // defaults overridden to 2 epochs, small LR

    WctConfig() {
        finetune.epochs = 2;
        finetune.lr = 5e-4f;
        finetune.lr_decay = 0.7f;
    }
};

struct WctResult {
    std::map<std::string, double> w_cut;  // per mapped layer
    std::map<std::string, double> w_ref;  // frozen pre-clip scale per layer
    std::vector<nn::EpochStats> history;
};

// Clip the weights of every mappable layer to the given cut-offs.
void clip_weights(nn::Sequential& model,
                  const std::map<std::string, double>& w_cut);

// Full WCT: choose cut-offs, clip, fine-tune with masks + clip enforced.
// `masks` may be empty (unpruned model). The model is modified in place.
WctResult apply_wct(nn::Sequential& model, const nn::Dataset& train,
                    const nn::Dataset* test, const prune::MaskSet& masks,
                    const WctConfig& config);

}  // namespace xs::core
