// Weight ↔ conductance conversion (the "functional modelling" stage of the
// paper's Fig. 2 framework).
//
// Linear mapping with an explicit reference scale:
//     G(|w|) = G_MIN + (|w| / w_ref) · (G_MAX − G_MIN)
// Signs are handled differentially: w = w⁺ − w⁻ with the positive and
// negative parts programmed on separate arrays; the recombined effective
// weight is (G⁺ − G⁻) / k with k = (G_MAX − G_MIN)/w_ref. Keeping w_ref
// frozen across model variants is what gives WCT its low-conductance
// operating region (DESIGN.md §2).
#pragma once

#include "tensor/tensor.h"
#include "xbar/config.h"

namespace xs::xbar {

class ConductanceMapper {
public:
    // w_ref must be positive; weights with |w| > w_ref are clamped to G_MAX.
    ConductanceMapper(const DeviceConfig& device, double w_ref);

    double w_ref() const { return w_ref_; }
    double slope() const { return slope_; }  // k = (G_MAX−G_MIN)/w_ref

    // |w| -> conductance in [G_MIN, G_MAX].
    double to_conductance(double w_abs) const;

    // Differential pair for a signed tile: g_pos/g_neg are tile-shaped.
    // Output tensors are reused when already weight-shaped (no allocation).
    void to_differential(const tensor::Tensor& weights, tensor::Tensor& g_pos,
                         tensor::Tensor& g_neg) const;

    // Effective signed weight of a (possibly degraded) differential pair.
    tensor::Tensor from_differential(const tensor::Tensor& g_pos,
                                     const tensor::Tensor& g_neg) const;
    // Allocation-free variant: reuses `w` when already pair-shaped.
    void from_differential_into(const tensor::Tensor& g_pos,
                                const tensor::Tensor& g_neg,
                                tensor::Tensor& w) const;

private:
    DeviceConfig device_;
    double w_ref_;
    double slope_;
};

// The reference scale a layer maps at unless a frozen scale overrides it
// (WCT): the 0.995 percentile of its non-zero |w|, outlier-robust, or 1.0
// for an all-zero layer. It depends only on the multiset of non-zero
// values, so a T-compacted matrix gives the same scale as the original.
double default_w_ref(const tensor::Tensor& weights);

}  // namespace xs::xbar
