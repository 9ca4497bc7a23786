#include "nn/optimizer.h"

#include <cmath>

namespace xs::nn {

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const Param* p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
    }
}

void Adam::step() {
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    const float step_size = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);

    for (std::size_t i = 0; i < params_.size(); ++i) {
        Param& p = *params_[i];
        float* pv = p.value.data();
        float* pg = p.grad.data();
        float* pm = m_[i].data();
        float* ps = v_[i].data();
        for (std::int64_t j = 0; j < p.value.numel(); ++j) {
            const float g = pg[j];
            pm[j] = beta1_ * pm[j] + (1.0f - beta1_) * g;
            ps[j] = beta2_ * ps[j] + (1.0f - beta2_) * g * g;
            pv[j] -= step_size * pm[j] / (std::sqrt(ps[j]) + eps_) +
                     lr_ * weight_decay_ * pv[j];
        }
    }
}

}  // namespace xs::nn
