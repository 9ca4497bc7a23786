#include "core/workspace.h"

#include "nn/model_io.h"
#include "util/csv.h"
#include "util/log.h"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace xs::core {
namespace {

std::string sanitize(double v) {
    std::ostringstream os;
    os << v;
    std::string s = os.str();
    for (auto& ch : s)
        if (ch == '.' || ch == '-') ch = 'p';
    return s;
}

// Sidecar metadata: accuracy and (for WCT) the frozen w_ref scales.
struct Meta {
    double accuracy = 0.0;
    std::map<std::string, double> w_ref;
};

void write_meta(const std::string& path, const Meta& meta) {
    std::ofstream os(path);
    os << std::setprecision(17) << "accuracy " << meta.accuracy << '\n';
    for (const auto& [layer, v] : meta.w_ref) os << "w_ref " << layer << ' ' << v << '\n';
}

bool read_meta(const std::string& path, Meta& meta) {
    std::ifstream is(path);
    if (!is) return false;
    std::string tag;
    while (is >> tag) {
        if (tag == "accuracy") {
            is >> meta.accuracy;
        } else if (tag == "w_ref") {
            std::string layer;
            double v;
            is >> layer >> v;
            meta.w_ref[layer] = v;
        } else {
            return false;
        }
    }
    return true;
}

}  // namespace

std::string ModelSpec::key() const {
    std::ostringstream os;
    os << vgg.variant << "_c" << vgg.num_classes << "_w" << sanitize(vgg.width)
       << "_n" << train_count << "_e" << train.epochs << "_b" << train.batch_size
       << "_lr" << sanitize(train.lr) << "_adam_s"
       << train.seed << "_i" << init_seed << "_d" << data.seed << "_j"
       << sanitize(data.class_jitter) << "_pn" << sanitize(data.pixel_noise)
       << "_" << prune::method_name(prune.method);
    if (prune.method != prune::Method::kNone)
        os << sanitize(prune.sparsity) << "_seg" << prune.segment_size;
    if (wct)
        os << "_wct" << sanitize(wct_config.percentile) << "_we"
           << wct_config.finetune.epochs;
    return os.str();
}

PreparedModel prepare_model(const ModelSpec& spec, const nn::Dataset& train_data,
                            const nn::Dataset& test_data,
                            const std::string& cache_dir, bool verbose) {
    namespace fs = std::filesystem;
    PreparedModel prepared;

    util::Rng init_rng(spec.init_seed);
    prepared.model = nn::build_vgg(spec.vgg, init_rng);

    const std::string base = cache_dir.empty()
                                 ? std::string()
                                 : cache_dir + "/" + spec.key();
    if (!cache_dir.empty()) fs::create_directories(cache_dir);

    if (!base.empty() && fs::exists(base + ".bin")) {
        Meta meta;
        if (nn::load_model(prepared.model, base + ".bin") &&
            read_meta(base + ".meta", meta)) {
            prepared.software_accuracy = meta.accuracy;
            prepared.w_ref = meta.w_ref;
            prepared.masks = prune::MaskSet::from_zeros(prepared.model);
            prepared.from_cache = true;
            if (verbose)
                util::log_info("loaded cached model " + spec.key() + " (acc " +
                               util::fmt(meta.accuracy) + "%)");
            return prepared;
        }
    }

    // Prune at initialization, then train with the masks enforced.
    if (spec.prune.method != prune::Method::kNone)
        prepared.masks = prune::prune_at_init(prepared.model, spec.prune);

    if (verbose)
        util::log_info("training " + spec.key() + " (" +
                       std::to_string(prepared.model.param_count()) + " params)");
    const nn::StepHook hook = prepared.masks.empty()
                                  ? nn::StepHook{}
                                  : prepared.masks.hook();
    nn::train(prepared.model, train_data, &test_data, spec.train, hook);

    if (spec.wct) {
        WctConfig wct_config = spec.wct_config;
        wct_config.finetune.seed = spec.train.seed + 1;
        wct_config.finetune.batch_size = spec.train.batch_size;
        wct_config.finetune.verbose = spec.train.verbose;
        const WctResult wct = apply_wct(prepared.model, train_data, &test_data,
                                        prepared.masks, wct_config);
        prepared.w_ref = wct.w_ref;
    }

    prepared.software_accuracy = nn::evaluate(prepared.model, test_data);
    if (verbose)
        util::log_info("trained " + spec.key() + ": software accuracy " +
                       util::fmt(prepared.software_accuracy) + "%");

    if (!base.empty()) {
        nn::save_model(prepared.model, base + ".bin");
        Meta meta;
        meta.accuracy = prepared.software_accuracy;
        meta.w_ref = prepared.w_ref;
        write_meta(base + ".meta", meta);
    }
    return prepared;
}

}  // namespace xs::core
