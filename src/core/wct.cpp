#include "core/wct.h"

#include "map/matrix_view.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/ops.h"
#include "xbar/mapper.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace xs::core {

using tensor::Tensor;

namespace {

Tensor* layer_weights(nn::Layer& layer) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) return &conv->weight().value;
    if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) return &fc->weight().value;
    return nullptr;
}

}  // namespace

void clip_weights(nn::Sequential& model,
                  const std::map<std::string, double>& w_cut) {
    for (nn::Layer* layer : map::mappable_layers(model)) {
        const auto it = w_cut.find(layer->name());
        if (it == w_cut.end() || it->second <= 0.0) continue;
        const float cut = static_cast<float>(it->second);
        Tensor* w = layer_weights(*layer);
        float* p = w->data();
        for (std::int64_t i = 0; i < w->numel(); ++i)
            p[i] = std::clamp(p[i], -cut, cut);
    }
}

WctResult apply_wct(nn::Sequential& model, const nn::Dataset& train,
                    const nn::Dataset* test, const prune::MaskSet& masks,
                    const WctConfig& config) {
    WctResult result;
    for (nn::Layer* layer : map::mappable_layers(model)) {
        const Tensor* w = layer_weights(*layer);
        // Freeze the mapping scale the evaluator would use for the
        // *unconstrained* model, so WCT weights occupy only the
        // low-conductance sub-range after clipping.
        result.w_ref[layer->name()] = xbar::default_w_ref(*w);
        result.w_cut[layer->name()] =
            tensor::abs_percentile_nonzero(*w, config.percentile);
    }

    clip_weights(model, result.w_cut);

    const nn::StepHook hook = [&masks, &result](nn::Sequential& m) {
        if (!masks.empty()) masks.apply(m);
        clip_weights(m, result.w_cut);
    };
    result.history = nn::train(model, train, test, config.finetune, hook);
    return result;
}

}  // namespace xs::core
