// Partitioning of a MAC matrix into X×X crossbar tiles.
//
// Three schemes matching the pruning methods:
//  * dense      — contiguous row/column blocks (used for unpruned and for
//                 C/F-pruned matrices after T-compaction);
//  * XCS-packed — per row-block, the surviving (non-zero) column segments
//                 are packed side by side, so zero column segments consume
//                 no crossbar columns (paper §III T(W) for XCS);
//  * XRS-packed — symmetric packing of surviving row segments.
//
// A Tile holds the matrix indices it covers; entry (i, j) of the tile is
// matrix(rows[i], cols[j]), zero-padded beyond the index lists. This uniform
// representation lets the evaluator treat all schemes identically.
//
// Index lists are strictly ascending — every producer here emits them that
// way, and extract_tile_into/scatter_tile rely on it: their memcpy fast
// path detects contiguous columns as cols.back() − cols.front() + 1 ==
// cols.size(), which a permuted list would satisfy while needing the
// gather/scatter path. Keep new producers ascending.
#pragma once

#include "prune/prune.h"
#include "tensor/tensor.h"

#include <cstdint>
#include <vector>

namespace xs::map {

struct Tile {
    std::vector<std::int64_t> rows;  // matrix row index per tile row (≤ X)
    std::vector<std::int64_t> cols;  // matrix col index per tile col (≤ X)
};

struct Tiling {
    std::int64_t xbar_size = 0;
    std::int64_t matrix_rows = 0;
    std::int64_t matrix_cols = 0;
    std::vector<Tile> tiles;

    std::int64_t count() const { return static_cast<std::int64_t>(tiles.size()); }
};

// Dense partition of an (rows × cols) matrix: ⌈rows/X⌉·⌈cols/X⌉ tiles.
Tiling tile_dense(std::int64_t rows, std::int64_t cols, std::int64_t xbar_size);

// XCS packing: for each block of X consecutive rows, columns whose segment
// within the block is entirely zero are skipped; survivors pack into
// ⌈survivors/X⌉ tiles.
Tiling tile_xcs(const tensor::Tensor& matrix, std::int64_t xbar_size);

// XRS packing: symmetric, skipping zero row segments within column blocks.
Tiling tile_xrs(const tensor::Tensor& matrix, std::int64_t xbar_size);

// The tiling a pruning method maps with: XCS / XRS packing for their
// methods, dense for the rest. `work` is the mapping target, i.e. already
// T-compacted for C/F.
Tiling tile_for(prune::Method method, const tensor::Tensor& work,
                std::int64_t xbar_size);

// Materialize a tile as an X×X tensor (zero-padded).
tensor::Tensor extract_tile(const tensor::Tensor& matrix, const Tile& tile,
                            std::int64_t xbar_size);

// Allocation-free variant: reuses `out` when it is already X×X.
void extract_tile_into(const tensor::Tensor& matrix, const Tile& tile,
                       std::int64_t xbar_size, tensor::Tensor& out);

// Scatter an X×X tile back into the matrix (only covered entries written).
void scatter_tile(tensor::Tensor& matrix, const Tile& tile,
                  const tensor::Tensor& sub);

}  // namespace xs::map
