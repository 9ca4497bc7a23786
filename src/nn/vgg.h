// VGG11 / VGG16 builders with a width multiplier so the same topology the
// paper evaluates (8 or 13 conv layers + classifier, BN, 2×2 max-pools)
// trains in CPU-budget time. Width only scales channel counts; the crossbar
// mapping, compression arithmetic, and pruning structure are unaffected.
#pragma once

#include "nn/sequential.h"
#include "util/rng.h"

#include <string>
#include <vector>

namespace xs::nn {

struct VggConfig {
    std::string variant = "vgg11";  // "vgg11" | "vgg16"
    std::int64_t num_classes = 10;
    std::int64_t in_channels = 3;
    std::int64_t input_size = 32;   // square input
    double width = 1.0;             // channel multiplier
    std::int64_t min_channels = 8;  // floor after scaling
};

// Per-conv-layer output channels for a variant/width ("M" pool positions are
// implicit in build_vgg). Exposed so pruners/benches can reason about shape.
std::vector<std::int64_t> vgg_channels(const VggConfig& config);

// Builds the network; conv layers are named conv1..convN, the final
// classifier fc1 (these names are what the mapping pipeline looks up).
Sequential build_vgg(const VggConfig& config, util::Rng& rng);

// Names of the conv layers of a variant, in order ("conv1", ...).
std::vector<std::string> vgg_conv_names(const VggConfig& config);

}  // namespace xs::nn
