#include "nn/vgg.h"

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "tensor/tensor.h"

#include <algorithm>
#include <memory>

namespace xs::nn {
namespace {

// -1 encodes a 2×2 max-pool ("M" in the torchvision configuration strings).
const std::vector<std::int64_t>& plan(const std::string& variant) {
    static const std::vector<std::int64_t> vgg11 = {64, -1, 128, -1, 256, 256, -1,
                                                    512, 512, -1, 512, 512, -1};
    static const std::vector<std::int64_t> vgg16 = {
        64, 64, -1, 128, 128, -1, 256, 256, 256, -1,
        512, 512, 512, -1, 512, 512, 512, -1};
    if (variant == "vgg16") return vgg16;
    tensor::check(variant == "vgg11", "unknown VGG variant '" + variant + "'");
    return vgg11;
}

std::int64_t scaled(std::int64_t base, const VggConfig& config) {
    const auto c = static_cast<std::int64_t>(base * config.width + 0.5);
    return std::max(c, config.min_channels);
}

}  // namespace

std::vector<std::int64_t> vgg_channels(const VggConfig& config) {
    std::vector<std::int64_t> out;
    for (const auto entry : plan(config.variant))
        if (entry > 0) out.push_back(scaled(entry, config));
    return out;
}

std::vector<std::string> vgg_conv_names(const VggConfig& config) {
    std::vector<std::string> names;
    std::size_t idx = 1;
    for (const auto entry : plan(config.variant))
        if (entry > 0) names.push_back("conv" + std::to_string(idx++));
    return names;
}

Sequential build_vgg(const VggConfig& config, util::Rng& rng) {
    Sequential model;
    std::int64_t in_c = config.in_channels;
    std::int64_t spatial = config.input_size;
    std::size_t conv_idx = 1, pool_idx = 1, misc_idx = 1;

    for (const auto entry : plan(config.variant)) {
        if (entry < 0) {
            tensor::check(spatial % 2 == 0, "VGG: input size not divisible by pools");
            model.add(std::make_unique<MaxPool2d>(),
                      "pool" + std::to_string(pool_idx++));
            spatial /= 2;
            continue;
        }
        const std::int64_t out_c = scaled(entry, config);
        const std::string id = std::to_string(conv_idx);
        // Bias is folded into the BN that follows (standard practice).
        model.add(std::make_unique<Conv2d>(in_c, out_c, 3, 1, 1, rng,
                                           /*bias=*/false),
                  "conv" + id);
        model.add(std::make_unique<BatchNorm2d>(out_c), "bn" + id);
        model.add(std::make_unique<ReLU>(), "relu" + std::to_string(misc_idx++));
        in_c = out_c;
        ++conv_idx;
    }

    model.add(std::make_unique<Flatten>(), "flatten");
    const std::int64_t features = in_c * spatial * spatial;
    model.add(std::make_unique<Linear>(features, config.num_classes, rng), "fc1");
    return model;
}

}  // namespace xs::nn
