#include "prune/stats.h"

#include "nn/conv2d.h"
#include "nn/linear.h"

namespace xs::prune {
namespace {

LayerSparsity analyze(const std::string& name, const float* w, std::int64_t rows,
                      std::int64_t cols, bool row_major_cols_first) {
    // `row_major_cols_first` = true when w is laid out (cols, rows) — the
    // conv/linear parameter layout; the MAC matrix is its transpose.
    LayerSparsity s;
    s.layer = name;
    s.rows = rows;
    s.cols = cols;
    s.total = rows * cols;
    auto value = [&](std::int64_t r, std::int64_t c) {
        return row_major_cols_first ? w[c * rows + r] : w[r * cols + c];
    };
    for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c = 0; c < cols; ++c)
            if (value(r, c) == 0.0f) ++s.zeros;
    for (std::int64_t c = 0; c < cols; ++c) {
        bool all_zero = true;
        for (std::int64_t r = 0; r < rows && all_zero; ++r)
            if (value(r, c) != 0.0f) all_zero = false;
        if (all_zero) ++s.zero_cols;
    }
    for (std::int64_t r = 0; r < rows; ++r) {
        bool all_zero = true;
        for (std::int64_t c = 0; c < cols && all_zero; ++c)
            if (value(r, c) != 0.0f) all_zero = false;
        if (all_zero) ++s.zero_rows;
    }
    return s;
}

}  // namespace

std::vector<LayerSparsity> layer_sparsity(nn::Sequential& model) {
    std::vector<LayerSparsity> out;
    model.for_each([&out](nn::Layer& layer) {
        if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
            const std::int64_t rows =
                conv->in_channels() * conv->kernel() * conv->kernel();
            out.push_back(analyze(layer.name(), conv->weight().value.data(), rows,
                                  conv->out_channels(), true));
        } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
            out.push_back(analyze(layer.name(), fc->weight().value.data(),
                                  fc->in_features(), fc->out_features(), true));
        }
    });
    return out;
}

double model_sparsity(nn::Sequential& model) {
    std::int64_t zeros = 0, total = 0;
    for (const auto& s : layer_sparsity(model)) {
        zeros += s.zeros;
        total += s.total;
    }
    return total ? static_cast<double>(zeros) / static_cast<double>(total) : 0.0;
}

}  // namespace xs::prune
