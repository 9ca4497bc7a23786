#include "core/experiments.h"

#include "util/log.h"

#include <exception>
#include <filesystem>
#include <sstream>

namespace xs::core {

ExperimentContext::ExperimentContext(const util::Flags& flags) {
    width_ = flags.get_double("width", 0.1875);
    train_count_ = flags.get_int("train-count", 2048);
    test_count_ = flags.get_int("test-count", 512);
    epochs_ = flags.get_int("epochs", 5);
    batch_ = flags.get_int("batch", 32);
    wct_percentile_ = flags.get_double("wct-percentile", WctConfig().percentile);
    seed_ = static_cast<std::uint64_t>(flags.get_int("seed", 11));
    cache_dir_ = flags.get_string("cache-dir", "results/models");
    out_dir_ = flags.get_string("out-dir", "results");
    verbose_ = flags.get_bool("verbose", false);
    if (verbose_) util::set_log_level(util::LogLevel::kDebug);
}

template <typename Key, typename T, typename Build>
T& ExperimentContext::prepared_slot(
    std::map<Key, std::shared_ptr<Slot<T>>>& cache, const Key& key,
    const Build& build) {
    std::shared_ptr<Slot<T>> slot;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto& entry = cache[key];
        if (!entry) {
            entry = std::make_shared<Slot<T>>();
            builder = true;
        }
        slot = entry;
    }
    if (builder) {
        std::unique_ptr<T> value;
        std::exception_ptr error;
        try {
            value = build();
        } catch (...) {
            error = std::current_exception();
        }
        if (error) {
            // Evict so a later request retries the build (a transient
            // failure must not poison the cache); current waiters keep the
            // slot alive via their shared_ptr and rethrow the stored error.
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = cache.find(key);
            if (it != cache.end() && it->second == slot) cache.erase(it);
        }
        {
            std::lock_guard<std::mutex> lock(slot->m);
            slot->value = std::move(value);
            slot->error = error;
            slot->ready = true;
        }
        slot->cv.notify_all();
    } else {
        std::unique_lock<std::mutex> lock(slot->m);
        slot->cv.wait(lock, [&] { return slot->ready; });
    }
    if (slot->error) std::rethrow_exception(slot->error);
    return *slot->value;
}

const data::TrainTest& ExperimentContext::dataset(std::int64_t num_classes) {
    return prepared_slot(datasets_, num_classes, [&] {
        const data::SyntheticSpec spec = num_classes >= 100
                                             ? data::cifar100_like(seed_ + 100)
                                             : data::cifar10_like(seed_);
        util::log_info("generating " + std::to_string(num_classes) +
                       "-class dataset (" + std::to_string(train_count_) +
                       " train / " + std::to_string(test_count_) + " test)");
        return std::make_unique<data::TrainTest>(
            data::generate_split(spec, train_count_, test_count_));
    });
}

ModelSpec ExperimentContext::spec(const std::string& variant,
                                  std::int64_t num_classes, prune::Method method,
                                  double sparsity, bool wct) const {
    ModelSpec s;
    s.vgg.variant = variant;
    s.vgg.num_classes = num_classes;
    s.vgg.width = width_;
    s.data = num_classes >= 100 ? data::cifar100_like(seed_ + 100)
                                : data::cifar10_like(seed_);
    s.train_count = train_count_;
    s.test_count = test_count_;
    s.prune.method = method;
    s.prune.sparsity = sparsity;
    s.train.epochs = epochs_;
    s.train.batch_size = batch_;
    s.train.seed = seed_ + 3;
    s.train.verbose = verbose_;
    s.init_seed = seed_ + 7;
    s.wct = wct;
    s.wct_config.percentile = wct_percentile_;
    return s;
}

PreparedModel& ExperimentContext::prepared(const ModelSpec& spec) {
    return prepared_slot(models_, spec.key(), [&] {
        const data::TrainTest& tt = dataset(spec.vgg.num_classes);
        return std::make_unique<PreparedModel>(
            prepare_model(spec, tt.train, tt.test, cache_dir_, /*verbose=*/true));
    });
}

xbar::CrossbarConfig ExperimentContext::xbar(std::int64_t size) const {
    xbar::CrossbarConfig config;
    config.size = size;
    return config;
}

std::string ExperimentContext::csv_path(const std::string& name) const {
    std::filesystem::create_directories(out_dir_);
    return out_dir_ + "/" + name;
}

std::string ExperimentContext::fingerprint() const {
    std::ostringstream os;
    os << "w" << width_ << "/n" << train_count_ << "/t" << test_count_ << "/e"
       << epochs_ << "/b" << batch_ << "/seed" << seed_ << "/wp"
       << wct_percentile_;
    return os.str();
}

}  // namespace xs::core
