// Elementwise / reduction operations on tensors, plus random initializers.
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"

#include <cstdint>
#include <functional>

namespace xs::tensor {

// ---- elementwise (shapes must match; result has the shape of a) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard product
Tensor scale(const Tensor& a, float s);
Tensor apply(const Tensor& a, const std::function<float(float)>& fn);

// In-place variants used on hot paths.
void add_inplace(Tensor& a, const Tensor& b);
void axpy_inplace(Tensor& a, float alpha, const Tensor& b);  // a += alpha*b
void scale_inplace(Tensor& a, float s);
void mul_inplace(Tensor& a, const Tensor& b);

// ---- reductions ----
double sum(const Tensor& a);
double mean(const Tensor& a);
float max_abs(const Tensor& a);
double l2_norm(const Tensor& a);

// Percentile (in (0, 1]) of the absolute values of the non-zero entries:
// with n of them, the ⌊percentile·n⌋-th smallest from 0 (the largest at
// 1.0). Returns 0 when the tensor has no non-zero entry. Used as the
// outlier-robust weight→conductance reference scale and for the WCT
// cut-off.
double abs_percentile_nonzero(const Tensor& a, double percentile);

// Index of the maximum element in row `r` of a 2-D tensor.
std::int64_t argmax_row(const Tensor& a, std::int64_t r);

// ---- shape ops (rank-2) ----
Tensor transpose(const Tensor& a);

// ---- random initializers ----
void fill_normal(Tensor& a, util::Rng& rng, float mean, float stddev);
// Kaiming/He normal for fan_in inputs (ReLU networks).
void fill_kaiming(Tensor& a, util::Rng& rng, std::int64_t fan_in);

// ---- comparisons (tests) ----
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f, float rtol = 1e-4f);
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace xs::tensor
