#include "map/matrix_view.h"

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace xs::map {

using tensor::check;
using tensor::Tensor;

namespace {

bool is_mappable(const nn::Layer& layer) {
    return dynamic_cast<const nn::Conv2d*>(&layer) != nullptr ||
           dynamic_cast<const nn::Linear*>(&layer) != nullptr;
}

}  // namespace

std::vector<nn::Layer*> mappable_layers(nn::Sequential& model) {
    std::vector<nn::Layer*> out;
    model.for_each([&out](nn::Layer& layer) {
        if (is_mappable(layer)) out.push_back(&layer);
    });
    return out;
}

Tensor extract_matrix(const nn::Layer& layer) {
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
        const std::int64_t rows =
            conv->in_channels() * conv->kernel() * conv->kernel();
        const std::int64_t cols = conv->out_channels();
        // Parameter layout is (cols, rows); the MAC matrix is the transpose.
        return tensor::transpose(conv->weight().value.reshaped({cols, rows}));
    }
    if (const auto* fc = dynamic_cast<const nn::Linear*>(&layer)) {
        return tensor::transpose(fc->weight().value);  // (in × out)
    }
    check(false, "extract_matrix: layer '" + layer.name() + "' is not mappable");
    return Tensor();
}

void inject_matrix(nn::Layer& layer, const Tensor& matrix) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
        const std::int64_t rows =
            conv->in_channels() * conv->kernel() * conv->kernel();
        const std::int64_t cols = conv->out_channels();
        check(matrix.rank() == 2 && matrix.dim(0) == rows && matrix.dim(1) == cols,
              "inject_matrix: shape mismatch for '" + layer.name() + "'");
        const Tensor back = tensor::transpose(matrix);
        conv->weight().value = back.reshaped(conv->weight().value.shape());
        return;
    }
    if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
        check(matrix.rank() == 2 && matrix.dim(0) == fc->in_features() &&
                  matrix.dim(1) == fc->out_features(),
              "inject_matrix: shape mismatch for '" + layer.name() + "'");
        fc->weight().value = tensor::transpose(matrix);
        return;
    }
    check(false, "inject_matrix: layer '" + layer.name() + "' is not mappable");
}

}  // namespace xs::map
