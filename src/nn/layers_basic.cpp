#include "nn/layers_basic.h"

#include <limits>

namespace xs::nn {

using tensor::check;

// ---- ReLU ----

Tensor ReLU::forward(const Tensor& x, bool training) {
    if (training) input_ = x;  // backward needs the pre-activation sign
    Tensor y = x;
    float* p = y.data();
    for (std::int64_t i = 0; i < y.numel(); ++i)
        if (p[i] < 0.0f) p[i] = 0.0f;
    return y;
}

Tensor ReLU::backward(const Tensor& dy) {
    check(dy.same_shape(input_), "ReLU: grad shape mismatch");
    Tensor dx = dy;
    const float* px = input_.data();
    float* pd = dx.data();
    for (std::int64_t i = 0; i < dx.numel(); ++i)
        if (px[i] <= 0.0f) pd[i] = 0.0f;
    return dx;
}

// ---- MaxPool2d ----

Tensor MaxPool2d::forward(const Tensor& x, bool training) {
    constexpr std::int64_t k = 2;
    check(x.rank() == 4, "MaxPool2d: expects NCHW input");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    check(h % k == 0 && w % k == 0,
          "MaxPool2d: input height and width must be even");
    const std::int64_t oh = h / k, ow = w / k;
    in_shape_ = x.shape();
    Tensor y({n, c, oh, ow});
    // The argmax routing table is backward-only state.
    if (training) argmax_.assign(static_cast<std::size_t>(y.numel()), 0);

    std::int64_t out_idx = 0;
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ch = 0; ch < c; ++ch) {
            const float* plane = x.data() + (i * c + ch) * h * w;
            for (std::int64_t oi = 0; oi < oh; ++oi)
                for (std::int64_t oj = 0; oj < ow; ++oj, ++out_idx) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t best_idx = 0;
                    for (std::int64_t ki = 0; ki < k; ++ki)
                        for (std::int64_t kj = 0; kj < k; ++kj) {
                            const std::int64_t idx =
                                (oi * k + ki) * w + (oj * k + kj);
                            if (plane[idx] > best) {
                                best = plane[idx];
                                best_idx = idx;
                            }
                        }
                    y[out_idx] = best;
                    if (training)
                        argmax_[static_cast<std::size_t>(out_idx)] =
                            (i * c + ch) * h * w + best_idx;
                }
        }
    return y;
}

Tensor MaxPool2d::backward(const Tensor& dy) {
    check(static_cast<std::size_t>(dy.numel()) == argmax_.size(),
          "MaxPool2d: grad size mismatch");
    Tensor dx(in_shape_);
    for (std::int64_t i = 0; i < dy.numel(); ++i)
        dx[argmax_[static_cast<std::size_t>(i)]] += dy[i];
    return dx;
}

// ---- Flatten ----

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
    in_shape_ = x.shape();
    const std::int64_t n = x.dim(0);
    return x.reshaped({n, x.numel() / n});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshaped(in_shape_); }

}  // namespace xs::nn
