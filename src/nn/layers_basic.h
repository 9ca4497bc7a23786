// Parameter-free layers: ReLU, MaxPool2d, Flatten.
#pragma once

#include "nn/layer.h"

#include <vector>

namespace xs::nn {

class ReLU : public Layer {
public:
    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    std::string type() const override { return "ReLU"; }

private:
    Tensor input_;
};

// 2×2 max pooling with stride 2, the VGG configuration. Each output is
// the first maximal element of its window in scan order.
class MaxPool2d : public Layer {
public:
    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    std::string type() const override { return "MaxPool2d"; }
    std::string describe() const override { return "MaxPool2d(2)"; }

private:
    tensor::Shape in_shape_;
    std::vector<std::int64_t> argmax_;  // flat input index per output element
};

// (N, C, H, W) -> (N, C*H*W)
class Flatten : public Layer {
public:
    Tensor forward(const Tensor& x, bool training) override;
    Tensor backward(const Tensor& dy) override;
    std::string type() const override { return "Flatten"; }

private:
    tensor::Shape in_shape_;
};

}  // namespace xs::nn
