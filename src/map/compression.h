// Crossbar accounting: how many X×X crossbars a model needs under each
// pruning scheme, and the crossbar-compression-rate of paper Table I
// (crossbars for the unpruned layout ÷ crossbars after T-compaction).
//
// core::MappingPlan::crossbars fills the budget from the plan's own tiling:
//  * kNone, kUnstructured — dense tiling of the full matrices (scattered
//    zeros save no crossbars);
//  * kChannelFilter       — dense tiling after dropping all-zero rows/columns;
//  * kXbarColumn/Row      — XCS/XRS segment packing.
// R permutes columns before tiling, which leaves every count but XRS's
// unchanged: it breaks up the row segments XRS packs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xs::map {

struct LayerCrossbarCount {
    std::string layer;
    std::int64_t rows = 0;        // original MAC-matrix rows
    std::int64_t cols = 0;        // original MAC-matrix cols
    std::int64_t dense_tiles = 0; // tiles for the unpruned layout
    std::int64_t tiles = 0;       // tiles the plan maps (T, R, scheme tiling)
};

struct CrossbarBudget {
    std::int64_t xbar_size = 0;
    std::vector<LayerCrossbarCount> layers;
    std::int64_t dense_total = 0;
    std::int64_t total = 0;

    double compression_rate() const {
        return total ? static_cast<double>(dense_total) / static_cast<double>(total)
                     : 0.0;
    }
};

}  // namespace xs::map
