// im2col / col2im — the unrolling that turns a convolution into the MAC
// (matrix) form that is mapped onto crossbars (paper §III: "a Python wrapper
// ... unrolls each and every convolution operation into MAC operations").
#pragma once

#include "tensor/tensor.h"

namespace xs::tensor {

// Input  x: (C, H, W) single image.
// Output col: (C*kh*kw, out_h*out_w) where each column is one receptive
// field, laid out channel-major then kernel-row then kernel-col — the same
// ordering the crossbar mapper assumes for weight-matrix rows.
void im2col(const float* x, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* col);

// Scatter-add transpose of im2col (for convolution input gradients).
void col2im(const float* col, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* x);

// Batched im2col straight into the packed-B panel layout consumed by
// gemm_prepacked_tiles (geometry constants in tensor/gemm.h): column
// j = img·out_h·out_w + pos of the virtual (C·kh·kw × n_imgs·out_h·out_w)
// matrix is receptive field `pos` of image `img`, so one GEMM covers the
// whole batch. The input may be batch-major (NCHW: stride_img = C·H·W,
// stride_c = H·W) or channel-major (CN: stride_c = n_imgs·H·W,
// stride_img = H·W), the layouts of the inference engine's conv inputs
// (DESIGN.md §6). Packs the global column-panel range [panel_lo,
// panel_hi); panels are independent, so callers parallelize over them.
//
// The engine itself reads B in place (gemm_conv_tiles). This packed path is
// its bit-identity reference in the tests and perfbench's per-layer probe
// (tensor.conv<i>.im2col_us / gemm_us), and it covers any stride and pad.
void im2col_pack_b(const float* x, std::int64_t n_imgs, std::int64_t channels,
                   std::int64_t height, std::int64_t width,
                   std::int64_t stride_img, std::int64_t stride_c,
                   std::int64_t kh, std::int64_t kw, std::int64_t stride,
                   std::int64_t pad, float* packed, std::int64_t panel_lo,
                   std::int64_t panel_hi);

// Spatial output size for one axis.
inline std::int64_t conv_out_size(std::int64_t in, std::int64_t k,
                                  std::int64_t stride, std::int64_t pad) {
    return (in + 2 * pad - k) / stride + 1;
}

}  // namespace xs::tensor
