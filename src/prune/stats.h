// Sparsity reporting: per-layer element sparsity and structured-zero counts
// (zero filters / zero rows / zero segments), for tables and sanity checks.
#pragma once

#include "nn/sequential.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xs::prune {

struct LayerSparsity {
    std::string layer;
    std::int64_t rows = 0;          // MAC-matrix rows (Cin·k·k or in_features)
    std::int64_t cols = 0;          // MAC-matrix cols (Cout or out_features)
    std::int64_t zeros = 0;         // zero weight entries
    std::int64_t total = 0;         // weight entries
    std::int64_t zero_cols = 0;     // all-zero matrix columns (pruned filters)
    std::int64_t zero_rows = 0;     // all-zero matrix rows (pruned channels)

    double element_sparsity() const {
        return total ? static_cast<double>(zeros) / static_cast<double>(total) : 0.0;
    }
};

// One entry per mapped (conv/linear) layer, in network order.
std::vector<LayerSparsity> layer_sparsity(nn::Sequential& model);

// Whole-model element sparsity over mapped layers.
double model_sparsity(nn::Sequential& model);

}  // namespace xs::prune
