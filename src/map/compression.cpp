#include "map/compression.h"

#include "map/compaction.h"
#include "map/matrix_view.h"
#include "map/tiling.h"

namespace xs::map {

CrossbarBudget count_crossbars(nn::Sequential& model, prune::Method method,
                               std::int64_t xbar_size) {
    CrossbarBudget budget;
    budget.xbar_size = xbar_size;

    for (nn::Layer* layer : mappable_layers(model)) {
        const tensor::Tensor matrix = extract_matrix(*layer);
        LayerCrossbarCount entry;
        entry.layer = layer->name();
        entry.rows = matrix.dim(0);
        entry.cols = matrix.dim(1);
        entry.dense_tiles =
            tile_dense(entry.rows, entry.cols, xbar_size).count();

        // T: C/F maps the matrix without its all-zero rows and columns.
        // Scattered (unstructured) zeros save no crossbars.
        entry.tiles =
            (method == prune::Method::kChannelFilter
                 ? tile_for(method, compact_dense(matrix).matrix, xbar_size)
                 : tile_for(method, matrix, xbar_size))
                .count();
        budget.dense_total += entry.dense_tiles;
        budget.total += entry.tiles;
        budget.layers.push_back(std::move(entry));
    }
    return budget;
}

}  // namespace xs::map
