#include "core/rearrange.h"

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace xs::core {

using tensor::check;
using tensor::Tensor;

namespace {

// Every column's √(µ·σ) over absolute values, in two row-major passes:
// each column's sums run over its rows in order, as a column-by-column
// loop would, so the scores are bit-identical to scoring one column at a
// time.
std::vector<double> column_scores(const Tensor& matrix) {
    const std::int64_t rows = matrix.dim(0), cols = matrix.dim(1);
    const auto n = static_cast<double>(rows);
    std::vector<double> mu(static_cast<std::size_t>(cols), 0.0);
    // Σ(|w| − µ)² per column until the last loop turns it into the score.
    std::vector<double> score(static_cast<std::size_t>(cols), 0.0);
    double* __restrict pm = mu.data();
    double* __restrict pv = score.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        const float* __restrict row = matrix.data() + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) pm[c] += std::fabs(row[c]);
    }
    for (std::int64_t c = 0; c < cols; ++c) pm[c] /= n;
    for (std::int64_t r = 0; r < rows; ++r) {
        const float* __restrict row = matrix.data() + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
            const double d = std::fabs(row[c]) - pm[c];
            pv[c] += d * d;
        }
    }
    for (std::int64_t c = 0; c < cols; ++c)
        pv[c] = std::sqrt(pm[c] * std::sqrt(pv[c] / n));
    return score;
}

}  // namespace

Rearrangement compute_rearrangement(const Tensor& matrix, RearrangeOrder order) {
    check(matrix.rank() == 2, "compute_rearrangement: expects a rank-2 matrix");
    const std::int64_t cols = matrix.dim(1);
    const std::vector<double> scores = column_scores(matrix);

    std::vector<std::int64_t> ascending(static_cast<std::size_t>(cols));
    std::iota(ascending.begin(), ascending.end(), 0);
    std::stable_sort(ascending.begin(), ascending.end(),
                     [&scores](std::int64_t a, std::int64_t b) {
                         return scores[static_cast<std::size_t>(a)] <
                                scores[static_cast<std::size_t>(b)];
                     });

    Rearrangement r;
    if (order == RearrangeOrder::kAscending) {
        r.perm = std::move(ascending);
        return r;
    }
    // Centre-out: place the lowest scores in the middle positions, growing
    // outward alternately left/right, so heatmaps show light centres and
    // dark peripheries as in the paper's Fig. 3(f).
    r.perm.assign(static_cast<std::size_t>(cols), 0);
    std::int64_t left = (cols - 1) / 2, right = (cols - 1) / 2 + 1;
    bool to_left = true;
    for (const std::int64_t col : ascending) {
        if (to_left && left >= 0) {
            r.perm[static_cast<std::size_t>(left--)] = col;
        } else if (right < cols) {
            r.perm[static_cast<std::size_t>(right++)] = col;
        } else {
            r.perm[static_cast<std::size_t>(left--)] = col;
        }
        to_left = !to_left;
    }
    return r;
}

Tensor apply_columns(const Tensor& matrix, const Rearrangement& r) {
    check(matrix.rank() == 2 &&
              matrix.dim(1) == static_cast<std::int64_t>(r.perm.size()),
          "apply_columns: permutation size mismatch");
    const std::int64_t rows = matrix.dim(0), cols = matrix.dim(1);
    Tensor out({rows, cols});
    const std::int64_t* perm = r.perm.data();
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* src = matrix.data() + row * cols;
        float* dst = out.data() + row * cols;
        for (std::int64_t c = 0; c < cols; ++c) dst[c] = src[perm[c]];
    }
    return out;
}

Tensor invert_columns(const Tensor& matrix, const Rearrangement& r) {
    check(matrix.rank() == 2 &&
              matrix.dim(1) == static_cast<std::int64_t>(r.perm.size()),
          "invert_columns: permutation size mismatch");
    const std::int64_t rows = matrix.dim(0), cols = matrix.dim(1);
    Tensor out({rows, cols});
    for (std::int64_t c = 0; c < cols; ++c) {
        const std::int64_t dst = r.perm[static_cast<std::size_t>(c)];
        for (std::int64_t row = 0; row < rows; ++row)
            out.at(row, dst) = matrix.at(row, c);
    }
    return out;
}

}  // namespace xs::core
