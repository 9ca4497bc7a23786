// Layer abstraction: explicit forward/backward with cached activations.
//
// The library deliberately avoids a general autograd graph — every layer
// knows its own backward rule, which keeps the implementation small,
// deterministic, and easy to verify with finite differences (see
// tests/nn_gradcheck_test.cpp).
#pragma once

#include "tensor/tensor.h"

#include <memory>
#include <string>
#include <vector>

namespace xs::nn {

using tensor::Tensor;

// A trainable parameter: value + gradient accumulated during backward.
struct Param {
    std::string name;   // unique within a model, e.g. "conv3.weight"
    Tensor value;
    Tensor grad;

    Param() = default;
    Param(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)) {
        grad = Tensor(value.shape());
    }

    void zero_grad() { grad.zero(); }
};

class Layer {
public:
    virtual ~Layer() = default;

    // Forward pass. `training` toggles BN batch statistics and gates every
    // backward cache: layers must keep NO per-call state when `training` is
    // false, so eval-mode forwards are side-effect free and an inference
    // engine (nn/infer.h) can stream activations through caller-owned
    // arenas without the layers retaining copies.
    virtual Tensor forward(const Tensor& x, bool training) = 0;

    // Backward pass: receives dL/dy, accumulates parameter grads, returns
    // dL/dx. Must be called after the matching forward(x, /*training=*/true).
    virtual Tensor backward(const Tensor& dy) = 0;

    // Trainable parameters (empty for stateless layers).
    virtual std::vector<Param*> params() { return {}; }

    // Layer kind, e.g. "Conv2d".
    virtual std::string type() const = 0;

    // Instance name assigned by the model builder, e.g. "conv3".
    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    // Human-readable one-line description for model summaries.
    virtual std::string describe() const { return type(); }

private:
    std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace xs::nn
