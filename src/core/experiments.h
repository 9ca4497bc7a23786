// Shared infrastructure for the bench binaries that regenerate the paper's
// tables and figures: flag-driven experiment scale and dataset/model
// caching. The grid itself (crossbar sizes, sigmas, prune settings,
// repeats, ...) is a sweep::SweepSpec and has its own flags (sweep/spec.h).
//
// Experiment flags (all optional):
//   --width=0.1875       VGG width multiplier
//   --train-count=2048   training images per dataset
//   --test-count=512     test images
//   --epochs=5           training epochs
//   --batch=32           batch size
//   --wct-percentile=0.8 W_cut percentile for WCT model variants
//   --seed=11            master seed
//   --cache-dir=results/models  trained-model cache
//   --out-dir=results    CSV output directory
//   --verbose            log training progress
#pragma once

#include "core/evaluator.h"
#include "core/workspace.h"
#include "util/flags.h"

#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xs::core {

class ExperimentContext {
public:
    explicit ExperimentContext(const util::Flags& flags);

    // The master seed; per-cell seeds derive from it (sweep::cell_seed).
    std::uint64_t seed() const { return seed_; }

    // Dataset for 10 or 100 classes (generated once, shared). Thread-safe:
    // concurrent first requests for the same class count generate once;
    // the others block until the generator finishes.
    const data::TrainTest& dataset(std::int64_t num_classes);

    // Model spec for a variant ("vgg11"/"vgg16"), class count and scheme.
    ModelSpec spec(const std::string& variant, std::int64_t num_classes,
                   prune::Method method, double sparsity, bool wct = false) const;

    // Train-or-load; results cached in memory by spec key as well as on disk.
    // Thread-safe with per-key in-flight deduplication: concurrent requests
    // for the same spec train (or load) exactly once and share the result,
    // while requests for distinct specs proceed independently — a sweep grid
    // never retrains a shared model twice (DESIGN.md §7).
    PreparedModel& prepared(const ModelSpec& spec);

    // The default crossbar configuration (σ = 0.10) at a given size.
    xbar::CrossbarConfig xbar(std::int64_t size) const;

    // CSV path under out_dir (directories created on demand).
    std::string csv_path(const std::string& name) const;

    // Compact fingerprint of every context field that changes experiment
    // results (model weights, dataset, seeds). Sweep manifests record it so
    // --resume refuses to mix results from different configurations.
    std::string fingerprint() const;

private:
    // One lazily-built cache slot. The slot (not the whole cache) carries
    // the in-flight state so concurrent builders of *different* keys never
    // serialize on each other — only duplicate requests for the same key
    // wait, on the slot's condition variable. Slots are shared_ptr-owned:
    // a failed build evicts its map entry (so a later request retries) while
    // in-flight waiters keep the slot alive and observe the stored error.
    template <typename T>
    struct Slot {
        std::mutex m;
        std::condition_variable cv;
        bool ready = false;
        std::exception_ptr error;  // set when the build threw
        std::unique_ptr<T> value;
    };

    // Claim `key`'s slot in `cache` and build-or-wait via `build()`.
    template <typename Key, typename T, typename Build>
    T& prepared_slot(std::map<Key, std::shared_ptr<Slot<T>>>& cache,
                     const Key& key, const Build& build);

    double width_;
    std::int64_t train_count_, test_count_, epochs_, batch_;
    double wct_percentile_;
    std::uint64_t seed_;
    std::string cache_dir_, out_dir_;
    bool verbose_;

    std::mutex mu_;  // guards the cache maps (not the per-slot builds)
    std::map<std::int64_t, std::shared_ptr<Slot<data::TrainTest>>> datasets_;
    std::map<std::string, std::shared_ptr<Slot<PreparedModel>>> models_;
};

}  // namespace xs::core
