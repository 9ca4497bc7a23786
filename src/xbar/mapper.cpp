#include "xbar/mapper.h"

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

namespace xs::xbar {

using tensor::Tensor;

ConductanceMapper::ConductanceMapper(const DeviceConfig& device, double w_ref)
    : device_(device), w_ref_(w_ref) {
    tensor::check(w_ref > 0.0, "ConductanceMapper: w_ref must be positive");
    slope_ = (device_.g_max() - device_.g_min()) / w_ref_;
}

double ConductanceMapper::to_conductance(double w_abs) const {
    const double g = device_.g_min() + slope_ * w_abs;
    return std::clamp(g, device_.g_min(), device_.g_max());
}

// to_conductance of each side's magnitude, written as branch-free selects
// over hoisted constants and non-aliasing pointers so the loop vectorizes.
// Each element is the same expression as to_conductance's, so the output is
// bit-identical to calling it per element.
void ConductanceMapper::to_differential(const Tensor& weights, Tensor& g_pos,
                                        Tensor& g_neg) const {
    if (!g_pos.same_shape(weights)) g_pos = Tensor(weights.shape());
    if (!g_neg.same_shape(weights)) g_neg = Tensor(weights.shape());
    const float* __restrict w = weights.data();
    float* __restrict gp = g_pos.data();
    float* __restrict gn = g_neg.data();
    const double g_min = device_.g_min(), g_max = device_.g_max();
    const double k = slope_;
    const std::int64_t n = weights.numel();
    for (std::int64_t i = 0; i < n; ++i) {
        const double x = w[i];
        const double p = g_min + k * (x > 0.0 ? x : 0.0);
        const double m = g_min + k * (x < 0.0 ? -x : 0.0);
        gp[i] = static_cast<float>(p < g_min ? g_min : g_max < p ? g_max : p);
        gn[i] = static_cast<float>(m < g_min ? g_min : g_max < m ? g_max : m);
    }
}

void ConductanceMapper::from_differential_into(const Tensor& g_pos,
                                               const Tensor& g_neg,
                                               Tensor& w) const {
    tensor::check(g_pos.same_shape(g_neg),
                  "from_differential: pos/neg shape mismatch");
    if (!w.same_shape(g_pos)) w = Tensor(g_pos.shape());
    const float* gp = g_pos.data();
    const float* gn = g_neg.data();
    float* pw = w.data();
    const double inv_k = 1.0 / slope_;
    for (std::int64_t i = 0; i < w.numel(); ++i)
        pw[i] = static_cast<float>((static_cast<double>(gp[i]) - gn[i]) * inv_k);
}

Tensor ConductanceMapper::from_differential(const Tensor& g_pos,
                                            const Tensor& g_neg) const {
    Tensor w;
    from_differential_into(g_pos, g_neg, w);
    return w;
}

double default_w_ref(const Tensor& weights) {
    const double w_ref = tensor::abs_percentile_nonzero(weights, 0.995);
    return w_ref > 0.0 ? w_ref : 1.0;
}

}  // namespace xs::xbar
