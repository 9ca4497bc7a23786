// Adam with decoupled (AdamW-style) weight decay: the one optimizer every
// model and every WCT fine-tune trains with.
#pragma once

#include "nn/layer.h"

#include <vector>

namespace xs::nn {

class Adam {
public:
    Adam(std::vector<Param*> params, float lr, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

    void step();

    void set_lr(float lr) { lr_ = lr; }

private:
    std::vector<Param*> params_;
    float lr_, beta1_, beta2_, eps_, weight_decay_;
    std::int64_t t_ = 0;
    std::vector<Tensor> m_, v_;
};

}  // namespace xs::nn
