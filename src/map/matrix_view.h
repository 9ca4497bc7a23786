// Layer ↔ 2-D MAC-matrix conversion (the "unroll convolutions into MAC
// operations" stage of the paper's Fig. 2 framework).
//
// Orientation convention used throughout the repo: the MAC matrix is
// (rows = inputs, cols = outputs). Inputs drive crossbar rows; each output
// unit (conv filter / FC neuron) is one crossbar column. A conv layer with
// weights (Cout, Cin, k, k) therefore yields a (Cin·k·k × Cout) matrix — the
// transpose of its flattened parameter block.
#pragma once

#include "nn/sequential.h"
#include "tensor/tensor.h"

#include <string>
#include <vector>

namespace xs::map {

// All layers that are mapped onto crossbars (Conv2d, Linear), in network
// order.
std::vector<nn::Layer*> mappable_layers(nn::Sequential& model);

// Extract the (rows × cols) MAC matrix of a conv/linear layer.
// Throws for non-mappable layers. Each call counts in the
// map.matrices_extracted counter: the mapping work a sweep does.
tensor::Tensor extract_matrix(const nn::Layer& layer);

// Write a (possibly modified) MAC matrix back into the layer's weights.
void inject_matrix(nn::Layer& layer, const tensor::Tensor& matrix);

}  // namespace xs::map
