#include "map/tiling.h"

#include <cstring>

namespace xs::map {

using tensor::check;
using tensor::Tensor;

Tiling tile_dense(std::int64_t rows, std::int64_t cols, std::int64_t xbar_size) {
    check(rows > 0 && cols > 0 && xbar_size > 0, "tile_dense: bad dimensions");
    Tiling t;
    t.xbar_size = xbar_size;
    t.matrix_rows = rows;
    t.matrix_cols = cols;
    for (std::int64_t r0 = 0; r0 < rows; r0 += xbar_size) {
        for (std::int64_t c0 = 0; c0 < cols; c0 += xbar_size) {
            Tile tile;
            for (std::int64_t r = r0; r < std::min(rows, r0 + xbar_size); ++r)
                tile.rows.push_back(r);
            for (std::int64_t c = c0; c < std::min(cols, c0 + xbar_size); ++c)
                tile.cols.push_back(c);
            t.tiles.push_back(std::move(tile));
        }
    }
    return t;
}

Tiling tile_xcs(const Tensor& matrix, std::int64_t xbar_size) {
    check(matrix.rank() == 2, "tile_xcs: expects a rank-2 matrix");
    check(xbar_size > 0, "tile_xcs: crossbar size must be positive");
    const std::int64_t rows = matrix.dim(0), cols = matrix.dim(1);
    Tiling t;
    t.xbar_size = xbar_size;
    t.matrix_rows = rows;
    t.matrix_cols = cols;

    for (std::int64_t r0 = 0; r0 < rows; r0 += xbar_size) {
        const std::int64_t r1 = std::min(rows, r0 + xbar_size);
        // Surviving columns: the segment [r0, r1) × {c} has a non-zero entry.
        std::vector<std::int64_t> survivors;
        for (std::int64_t c = 0; c < cols; ++c) {
            bool nonzero = false;
            for (std::int64_t r = r0; r < r1 && !nonzero; ++r)
                nonzero = matrix.at(r, c) != 0.0f;
            if (nonzero) survivors.push_back(c);
        }
        if (survivors.empty()) continue;
        for (std::size_t s0 = 0; s0 < survivors.size();
             s0 += static_cast<std::size_t>(xbar_size)) {
            Tile tile;
            for (std::int64_t r = r0; r < r1; ++r) tile.rows.push_back(r);
            const std::size_t s1 = std::min(
                survivors.size(), s0 + static_cast<std::size_t>(xbar_size));
            for (std::size_t s = s0; s < s1; ++s) tile.cols.push_back(survivors[s]);
            t.tiles.push_back(std::move(tile));
        }
    }
    return t;
}

Tiling tile_xrs(const Tensor& matrix, std::int64_t xbar_size) {
    check(matrix.rank() == 2, "tile_xrs: expects a rank-2 matrix");
    check(xbar_size > 0, "tile_xrs: crossbar size must be positive");
    const std::int64_t rows = matrix.dim(0), cols = matrix.dim(1);
    Tiling t;
    t.xbar_size = xbar_size;
    t.matrix_rows = rows;
    t.matrix_cols = cols;

    for (std::int64_t c0 = 0; c0 < cols; c0 += xbar_size) {
        const std::int64_t c1 = std::min(cols, c0 + xbar_size);
        std::vector<std::int64_t> survivors;
        for (std::int64_t r = 0; r < rows; ++r) {
            bool nonzero = false;
            for (std::int64_t c = c0; c < c1 && !nonzero; ++c)
                nonzero = matrix.at(r, c) != 0.0f;
            if (nonzero) survivors.push_back(r);
        }
        if (survivors.empty()) continue;
        for (std::size_t s0 = 0; s0 < survivors.size();
             s0 += static_cast<std::size_t>(xbar_size)) {
            Tile tile;
            const std::size_t s1 = std::min(
                survivors.size(), s0 + static_cast<std::size_t>(xbar_size));
            for (std::size_t s = s0; s < s1; ++s) tile.rows.push_back(survivors[s]);
            for (std::int64_t c = c0; c < c1; ++c) tile.cols.push_back(c);
            t.tiles.push_back(std::move(tile));
        }
    }
    return t;
}

Tiling tile_for(prune::Method method, const Tensor& work,
                std::int64_t xbar_size) {
    switch (method) {
        case prune::Method::kXbarColumn:
            return tile_xcs(work, xbar_size);
        case prune::Method::kXbarRow:
            return tile_xrs(work, xbar_size);
        default:
            return tile_dense(work.dim(0), work.dim(1), xbar_size);
    }
}

void extract_tile_into(const Tensor& matrix, const Tile& tile,
                       std::int64_t xbar_size, Tensor& out) {
    if (!(out.rank() == 2 && out.dim(0) == xbar_size && out.dim(1) == xbar_size))
        out = Tensor({xbar_size, xbar_size}, 0.0f);
    const std::int64_t n_rows = static_cast<std::int64_t>(tile.rows.size());
    const std::int64_t n_cols = static_cast<std::int64_t>(tile.cols.size());
    const float* src = matrix.data();
    const std::int64_t ld = matrix.dim(1);
    float* dst = out.data();
    // Index lists are ascending; consecutive columns (every dense tile, and
    // most packed ones) copy as one memcpy per row.
    const bool contiguous =
        n_cols > 0 && tile.cols.back() - tile.cols.front() + 1 == n_cols;
    for (std::int64_t i = 0; i < n_rows; ++i) {
        const float* srow = src + tile.rows[static_cast<std::size_t>(i)] * ld;
        float* drow = dst + i * xbar_size;
        if (contiguous) {
            std::memcpy(drow, srow + tile.cols.front(),
                        static_cast<std::size_t>(n_cols) * sizeof(float));
        } else {
            for (std::int64_t j = 0; j < n_cols; ++j)
                drow[j] = srow[tile.cols[static_cast<std::size_t>(j)]];
        }
        // Zero only the right padding (instead of pre-zeroing the tile).
        for (std::int64_t j = n_cols; j < xbar_size; ++j) drow[j] = 0.0f;
    }
    for (std::int64_t i = n_rows; i < xbar_size; ++i) {
        float* drow = dst + i * xbar_size;
        for (std::int64_t j = 0; j < xbar_size; ++j) drow[j] = 0.0f;
    }
}

Tensor extract_tile(const Tensor& matrix, const Tile& tile, std::int64_t xbar_size) {
    Tensor sub;
    extract_tile_into(matrix, tile, xbar_size, sub);
    return sub;
}

void scatter_tile(Tensor& matrix, const Tile& tile, const Tensor& sub) {
    const std::int64_t n_rows = static_cast<std::int64_t>(tile.rows.size());
    const std::int64_t n_cols = static_cast<std::int64_t>(tile.cols.size());
    float* dst = matrix.data();
    const std::int64_t ld = matrix.dim(1);
    const float* src = sub.data();
    const std::int64_t sld = sub.dim(1);
    const bool contiguous =
        n_cols > 0 && tile.cols.back() - tile.cols.front() + 1 == n_cols;
    for (std::int64_t i = 0; i < n_rows; ++i) {
        float* drow = dst + tile.rows[static_cast<std::size_t>(i)] * ld;
        const float* srow = src + i * sld;
        if (contiguous) {
            std::memcpy(drow + tile.cols.front(), srow,
                        static_cast<std::size_t>(n_cols) * sizeof(float));
        } else {
            for (std::int64_t j = 0; j < n_cols; ++j)
                drow[tile.cols[static_cast<std::size_t>(j)]] = srow[j];
        }
    }
}

}  // namespace xs::map
