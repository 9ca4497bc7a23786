// Crossbar-column rearrangement R (paper §VI-A).
//
// Every column of the (compacted) MAC matrix is scored with √(µ·σ) of its
// absolute weights; columns are then permuted so that similar-conductance
// columns land in the same crossbar tiles. Tiles dominated by
// low-conductance synapses draw small wire currents and suffer little
// IR-drop, so most tiles become near-ideal and the damage concentrates in
// the few high-conductance tiles. R is applied at mapping time only —
// R⁻¹ restores the logical column order after non-ideality injection, so
// there is no training cost and inference is unchanged functionally.
#pragma once

#include "tensor/tensor.h"

#include <cstdint>
#include <vector>

namespace xs::core {

enum class RearrangeOrder {
    kAscending,  // lowest √(µσ) first — groups low-G columns into tiles
    kCenterOut,  // lowest √(µσ) at the matrix centre (the paper's Fig. 3(f)
                 // heatmap layout); equivalent grouping, different aesthetics
};

struct Rearrangement {
    // perm[new_position] = original column index.
    std::vector<std::int64_t> perm;
};

// Scores every column with √(µ·σ) of its absolute values (the paper's
// criterion) and orders the columns by score; ties keep column order.
Rearrangement compute_rearrangement(const tensor::Tensor& matrix,
                                    RearrangeOrder order);

// R: returns the matrix with columns permuted per `r`.
tensor::Tensor apply_columns(const tensor::Tensor& matrix, const Rearrangement& r);

// R⁻¹: undoes apply_columns.
tensor::Tensor invert_columns(const tensor::Tensor& matrix, const Rearrangement& r);

}  // namespace xs::core
