// The paper-grid benchmark's program (perfbench/README.md). run.py calls it;
// every experiment and grid flag is the sweep_runner one
// (core::ExperimentContext, sweep::parse_sweep_spec). One call does one job:
//
//   xsbench <flags> --result=r.json [--workers=N] [--trace=t.json]
//       set up (context, dataset, every grid model from the primed cache),
//       run the grid once through SweepRunner::run or run_supervised, and
//       write the timings and resource use to r.json (--setup-only: stop
//       after set-up)
//   xsbench <flags> --prime=p.json
//       train whatever grid model the cache lacks; report software accuracy
//   xsbench <flags> --probe=p.json --trace=t.json
//       time calls into each module's public functions on the grid's own
//       models, tiles and conv shapes, plus one traced lane-batched group and
//       a few traced nf-only cells
//   xsbench <flags> --worker --wire-in=… --wire-out=…
//       the supervisor's worker entry (never passed by hand)
#include "core/experiments.h"
#include "core/rearrange.h"
#include "map/compaction.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "nn/conv2d.h"
#include "nn/infer.h"
#include "sweep/manifest.h"
#include "sweep/runner.h"
#include "sweep/supervisor.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"
#include "xbar/backend.h"
#include "xbar/degrade.h"
#include "xbar/mapper.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace xs;
using tensor::Tensor;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Flat JSON object: numbers keep 17 significant digits, raw values (arrays,
// the metrics snapshot) are embedded verbatim.
class JsonOut {
public:
    JsonOut& num(const std::string& key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonOut& str(const std::string& key, const std::string& v) {
        std::string escaped;
        for (const char c : v) {
            if (c == '"' || c == '\\') escaped += '\\';
            escaped += c;
        }
        return raw(key, "\"" + escaped + "\"");
    }
    JsonOut& raw(const std::string& key, const std::string& json) {
        body_ += (body_.empty() ? "{\"" : ",\"") + key + "\":" + json;
        return *this;
    }
    std::string text() const { return (body_.empty() ? "{" : body_) + "}"; }
    bool write(const std::string& path) const {
        std::ofstream f(path);
        f << text() << "\n";
        return static_cast<bool>(f);
    }

private:
    std::string body_;
};

double cpu_seconds(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long max_rss_kb(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    return ru.ru_maxrss;
}

// The grid's distinct models in first-use order (the set SweepRunner::run
// prepares before its first cell).
std::vector<core::ModelSpec> grid_models(const core::ExperimentContext& ctx,
                                         const sweep::SweepSpec& spec) {
    std::vector<core::ModelSpec> specs;
    std::set<std::string> seen;
    for (const sweep::SweepCell& c : spec.expand()) {
        core::ModelSpec ms = ctx.spec(c.variant, c.num_classes, c.prune.method,
                                      c.prune.sparsity, c.mitigation.wct);
        if (seen.insert(ms.key()).second) specs.push_back(std::move(ms));
    }
    return specs;
}

struct Inputs {
    double data_s = 0.0;    // dataset generation
    double models_s = 0.0;  // every grid model, trained or loaded
    bool cold = false;      // some model was trained, not loaded
    double unpruned_acc = -1.0;
    std::string models_json = "[]";
};

// The calls that come before a sweep's first cell: the dataset and every
// grid model (ExperimentContext caches both in memory).
Inputs load_inputs(core::ExperimentContext& ctx, const sweep::SweepSpec& spec) {
    Inputs in;
    auto t0 = Clock::now();
    for (const std::int64_t classes : spec.class_counts) ctx.dataset(classes);
    in.data_s = seconds_since(t0);
    t0 = Clock::now();
    in.models_json = "[";
    for (const core::ModelSpec& ms : grid_models(ctx, spec)) {
        const core::PreparedModel& m = ctx.prepared(ms);
        in.cold = in.cold || !m.from_cache;
        if (ms.prune.method == prune::Method::kNone && !ms.wct)
            in.unpruned_acc = m.software_accuracy;
        if (in.models_json.size() > 1) in.models_json += ",";
        in.models_json += JsonOut()
                              .str("key", ms.key())
                              .num("software_acc", m.software_accuracy)
                              .raw("from_cache", m.from_cache ? "true" : "false")
                              .text();
    }
    in.models_json += "]";
    in.models_s = seconds_since(t0);
    return in;
}

int run_grid(int argc, char** argv, const util::Flags& flags) {
    const std::string result_path = flags.get_string("result", "");
    const auto t0 = Clock::now();
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    const Inputs in = load_inputs(ctx, spec);
    const double setup_s = seconds_since(t0);
    if (in.cold) {
        util::log_error(
            "xsbench: the model cache was cold, so set-up trained models; "
            "prime the cache first (--prime)");
        return 3;
    }
    if (flags.get_bool("setup-only", false)) {
        JsonOut out;
        out.num("setup_s", setup_s).num("data_s", in.data_s).num("models_s",
                                                                 in.models_s);
        return out.write(result_path) ? 0 : 1;
    }

    const std::int64_t workers = flags.get_int("workers", 0);
    const std::string trace_path = flags.get_string("trace", "");
    const double cpu0 = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
    if (!trace_path.empty()) util::trace::start(trace_path);
    const auto t1 = Clock::now();
    sweep::SweepSummary summary;
    const sweep::SweepOptions opts;  // fresh manifest, one shard per pool worker
    if (workers > 0) {
        sweep::SupervisorOptions sup;
        sup.workers = workers;
        sup.worker_cmd = sweep::worker_command_from_argv(argc, argv);
        summary = sweep::run_supervised(ctx, spec, opts, sup);
    } else {
        summary = sweep::SweepRunner(ctx, spec, opts).run();
    }
    const double sweep_s = seconds_since(t1);
    util::trace::stop_and_write();
    const double cpu_s =
        cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) - cpu0;

    const std::int64_t spawned =
        workers > 0 ? std::min<std::int64_t>(workers, summary.cells_total) +
                          summary.worker_restarts
                    : 0;
    JsonOut out;
    out.num("setup_s", setup_s)
        .num("data_s", in.data_s)
        .num("models_s", in.models_s)
        .num("unpruned_acc", in.unpruned_acc)
        .num("sweep_s", sweep_s)
        .num("cpu_s", cpu_s)
        .num("rss_self_kb", static_cast<double>(max_rss_kb(RUSAGE_SELF)))
        .num("rss_child_max_kb",
             static_cast<double>(max_rss_kb(RUSAGE_CHILDREN)))
        .num("workers_spawned", static_cast<double>(spawned))
        .num("executors",
             static_cast<double>(
                 workers > 0 ? std::min<std::int64_t>(workers, summary.cells_total)
                             : static_cast<std::int64_t>(util::worker_count())))
        .num("worker_count", static_cast<double>(util::worker_count()))
        .num("cells_total", static_cast<double>(summary.cells_total))
        .num("cells_executed", static_cast<double>(summary.cells_executed))
        .num("cells_failed", static_cast<double>(summary.cells_failed))
        .str("csv", summary.csv_path)
        .str("manifest", summary.manifest_path)
        .raw("metrics", summary.metrics_json.empty() ? "{}"
                                                     : summary.metrics_json);
    return out.write(result_path) ? 0 : 1;
}

int run_worker(const util::Flags& flags) {
    const std::string trace_path = flags.get_string("trace", "");
    if (!trace_path.empty())
        util::trace::start(trace_path + ".w" + std::to_string(::getpid()));
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    {
        // Resolve the dataset and every grid model before serving deals:
        // the loads a lazy worker pays inside its first cells, here in one
        // span so the worker's set-up is measured apart from its cells.
        util::trace::Span span("bench.worker_setup");
        load_inputs(ctx, spec);
    }
    const int rc = sweep::worker_main(
        ctx, spec, static_cast<int>(flags.get_int("wire-in", -1)),
        static_cast<int>(flags.get_int("wire-out", -1)));
    util::trace::stop_and_write();
    return rc;
}

int run_prime(const util::Flags& flags) {
    core::ExperimentContext ctx(flags);
    const Inputs in = load_inputs(ctx, sweep::parse_sweep_spec(flags));
    JsonOut out;
    out.num("unpruned_acc", in.unpruned_acc).raw("models", in.models_json);
    return out.write(flags.get_string("prime", "")) ? 0 : 1;
}

// ---- probes ----

// Median wall time of fn() in microseconds over at least `reps` calls and
// 30 ms, after one untimed warm-up call; prep() runs untimed before each.
template <typename Fn, typename Prep>
double median_us(Fn&& fn, Prep&& prep, int reps = 9) {
    prep();
    fn();
    std::vector<double> t;
    const auto start = Clock::now();
    while (static_cast<int>(t.size()) < reps ||
           (seconds_since(start) < 0.03 && t.size() < 2000)) {
        prep();
        const auto t0 = Clock::now();
        fn();
        t.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    std::nth_element(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(t.size() / 2),
                     t.end());
    return t[t.size() / 2];
}

template <typename Fn>
double median_us(Fn&& fn) {
    return median_us(fn, [] {});
}

core::PreparedModel& model_for(core::ExperimentContext& ctx,
                               const sweep::SweepSpec& spec,
                               prune::Method method) {
    for (const core::ModelSpec& ms : grid_models(ctx, spec))
        if (ms.prune.method == method && !ms.wct) return ctx.prepared(ms);
    throw std::runtime_error("xsbench: the grid has no model for pruning method " +
                             prune::method_name(method));
}

// Each conv layer of `model` with its real input: eval-mode forwards of
// `batch` through the layer stack.
std::vector<std::pair<const nn::Conv2d*, Tensor>> conv_inputs(
    nn::Sequential& model, const Tensor& batch) {
    std::vector<std::pair<const nn::Conv2d*, Tensor>> out;
    Tensor x = batch;
    for (std::size_t i = 0; i < model.size(); ++i) {
        nn::Layer& layer = model.layer(i);
        if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer))
            out.emplace_back(conv, x);
        x = layer.forward(x, /*training=*/false);
    }
    return out;
}

std::vector<const nn::Conv2d*> convs_of(nn::Sequential& model) {
    std::vector<const nn::Conv2d*> out;
    for (std::size_t i = 0; i < model.size(); ++i)
        if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(i)))
            out.push_back(conv);
    return out;
}

// A real tile: the middle x×x tile of `matrix`, mapped to conductances at
// the evaluator's default w_ref, with one device-variation draw.
Tensor real_tile(const Tensor& matrix, std::int64_t x,
                 const xbar::DeviceConfig& device, std::uint64_t draw) {
    const double w_ref = tensor::abs_percentile_nonzero(matrix, 0.995);
    const map::Tiling tiling = map::tile_dense(matrix.dim(0), matrix.dim(1), x);
    const Tensor sub =
        map::extract_tile(matrix, tiling.tiles[tiling.tiles.size() / 2], x);
    Tensor g_pos, g_neg;
    xbar::ConductanceMapper(device, w_ref).to_differential(sub, g_pos, g_neg);
    util::Rng rng(draw);
    xbar::apply_variation(g_pos, device, rng);
    return g_pos;
}

// One lane-batched group and a few nf-only cells of the grid, traced, so
// every workload's traced run can attribute compile / infer / conv and
// measure_nf time even when its own sweep has no such spans.
void traced_cells(core::ExperimentContext& ctx, const sweep::SweepSpec& spec,
                  JsonOut& out) {
    const std::vector<sweep::SweepCell> cells = spec.expand();
    std::int64_t group_cells = 0;
    for (const xbar::BackendKind backend :
         {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast}) {
        std::vector<const sweep::SweepCell*> group;
        for (const sweep::SweepCell& c : cells)
            if (c.xbar_size == 32 && c.backend == backend &&
                c.prune.method == prune::Method::kNone && !c.mitigation.wct &&
                !c.mitigation.rearrange)
                group.push_back(&c);
        if (group.empty()) continue;
        sweep::run_sweep_group(ctx, spec, group);
        group_cells += static_cast<std::int64_t>(group.size());
    }
    tensor::check(group_cells > 0,
                  "xsbench: the grid has no 32x32 unpruned group to probe");
    out.num("probe_group_cells", static_cast<double>(group_cells));
    sweep::SweepSpec nf = spec;
    nf.nf_only = true;
    nf.repeats = 1;
    nf.sizes = {32};
    nf.backends = {xbar::BackendKind::kCircuit};
    nf.mitigations = {sweep::Mitigation{}};
    for (const sweep::SweepCell& c : nf.expand()) sweep::run_sweep_cell(ctx, nf, c);
}

void probe_modules(core::ExperimentContext& ctx, const sweep::SweepSpec& spec,
                   JsonOut& out) {
    const nn::Dataset& test = ctx.dataset(spec.class_counts.front()).test;
    core::PreparedModel& dense = model_for(ctx, spec, prune::Method::kNone);
    core::PreparedModel& xcs = model_for(ctx, spec, prune::Method::kXbarColumn);
    core::PreparedModel& cf = model_for(ctx, spec, prune::Method::kChannelFilter);

    // The evaluator's batch: the first 64 test images.
    const std::int64_t nb = std::min<std::int64_t>(64, test.size());
    tensor::Shape shape = test.images.shape();
    shape[0] = nb;
    Tensor batch(shape);
    std::memcpy(batch.data(), test.images.data(),
                static_cast<std::size_t>(batch.numel()) * sizeof(float));

    // tensor: im2col_pack_b and the prepacked conv GEMM per conv layer, on
    // the unpruned model's real activations; the sparse GEMM multiplies the
    // same panels by the xcs-pruned model's weights.
    const auto cases = conv_inputs(dense.model, batch);
    const std::vector<const nn::Conv2d*> sparse_convs = convs_of(xcs.model);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const nn::Conv2d& conv = *cases[i].first;
        const Tensor& in = cases[i].second;
        const std::int64_t c = in.dim(1), h = in.dim(2), w = in.dim(3);
        const std::int64_t k = conv.kernel(), s = conv.stride(), p = conv.pad();
        const std::int64_t n = nb * tensor::conv_out_size(h, k, s, p) *
                               tensor::conv_out_size(w, k, s, p);
        const std::int64_t patch = c * k * k, cout = conv.out_channels();
        std::vector<float> packed(
            static_cast<std::size_t>(tensor::packed_b_size(patch, n)));
        const std::string name = "tensor.conv" + std::to_string(i);
        out.num(name + ".im2col_us", median_us([&] {
                    tensor::im2col_pack_b(in.data(), nb, c, h, w, c * h * w, h * w,
                                          k, k, s, p, packed.data(), 0,
                                          tensor::packed_b_panels(n));
                }));
        std::vector<float> result(static_cast<std::size_t>(cout * n));
        const std::vector<float> bias(static_cast<std::size_t>(cout), 0.0f);
        const auto gemm_us = [&](const nn::Conv2d& weights) {
            const float* a = weights.weight().value.data();
            tensor::PackedGemmA pa;
            tensor::gemm_pack_a(cout, patch, a, patch, pa);
            return median_us([&] {
                tensor::gemm_prepacked_tiles(pa, a, patch, packed.data(), n,
                                             result.data(), n, bias.data(), true,
                                             0, tensor::gemm_tile_count(cout, n));
            });
        };
        out.num(name + ".gemm_us", gemm_us(conv));
        tensor::check(i < sparse_convs.size() &&
                          sparse_convs[i]->weight().value.same_shape(
                              conv.weight().value),
                      "xsbench: xcs model's conv shapes differ from the dense model's");
        out.num(name + ".gemm_sparse_us", gemm_us(*sparse_convs[i]));
    }

    // nn: compile and lane-batched forwards of the unpruned model.
    nn::InferenceEngine engine(dense.model);
    std::vector<nn::CompiledInstance> instances(4);
    for (nn::CompiledInstance& inst : instances) engine.compile_instance({}, inst);
    out.num("nn.compile_us_per_slot",
            median_us([&] { engine.compile_instance({}, instances[0]); }) /
                static_cast<double>(engine.mappable_count()));
    const nn::CompiledInstance* inst_ptrs[4] = {&instances[0], &instances[1],
                                                &instances[2], &instances[3]};
    for (const std::size_t lanes : {std::size_t{4}, std::size_t{1}})
        out.num("nn.forward_us_per_image.lanes" + std::to_string(lanes),
                median_us([&] {
                    engine.forward_batched(batch.data(), batch.shape(), inst_ptrs,
                                           lanes);
                }) / static_cast<double>(nb * static_cast<std::int64_t>(lanes)));

    // xbar: real tiles of the unpruned model's largest MAC matrix.
    Tensor big;
    for (nn::Layer* layer : map::mappable_layers(dense.model)) {
        Tensor m = map::extract_matrix(*layer);
        if (m.numel() > big.numel()) big = std::move(m);
    }
    for (const std::int64_t x : {32, 64, 128}) {
        const xbar::CrossbarConfig cfg = ctx.xbar(x);
        const xbar::CircuitSolver solver(cfg);
        xbar::SolveWorkspace ws;
        const std::vector<double> v_in(static_cast<std::size_t>(x),
                                       cfg.parasitics.v_nom);
        const Tensor g = real_tile(big, x, cfg.device, 1);
        out.num("xbar.solve_us.x" + std::to_string(x), median_us([&] {
                    ws.invalidate();
                    solver.solve(g, v_in.data(), ws);
                }));
    }
    for (const std::int64_t x : {16, 32, 64}) {
        const xbar::CrossbarConfig cfg = ctx.xbar(x);
        const xbar::CircuitSolver solver(cfg);
        const std::vector<double> v_in(static_cast<std::size_t>(x),
                                       cfg.parasitics.v_nom);
        std::vector<Tensor> tiles;
        for (std::uint64_t r = 0; r < xbar::kMaxSolveLanes; ++r)
            tiles.push_back(real_tile(big, x, cfg.device, r + 1));
        std::vector<const Tensor*> ptrs;
        for (const Tensor& t : tiles) ptrs.push_back(&t);
        xbar::BatchedSolveWorkspace bws;
        out.num("xbar.solve_batched_us_per_lane.x" + std::to_string(x),
                median_us([&] {
                    bws.invalidate();
                    solver.solve_batched(ptrs.data(), xbar::kMaxSolveLanes,
                                         v_in.data(), bws);
                }) / xbar::kMaxSolveLanes);
        const xbar::FastBackend fast(cfg);
        xbar::DegradeWorkspace dws;
        xbar::TileDegradeResult res;
        out.num("xbar.fast_degrade_us.x" + std::to_string(x),
                median_us([&] { fast.degrade(tiles[0], dws, res); }));
    }
    {
        const xbar::DeviceConfig device = ctx.xbar(32).device;
        const Tensor base = real_tile(big, 32, device, 1);
        Tensor work;
        util::Rng rng(5);
        out.num("xbar.variation_us_per_tile",
                median_us([&] { xbar::apply_variation(work, device, rng); },
                          [&] { work = base; }));
    }

    // map: one model's whole mapping plan at 32×32 with rearrangement.
    const struct {
        const char* label;
        core::PreparedModel* model;
        prune::Method method;
    } plans[] = {{"none", &dense, prune::Method::kNone},
                 {"cf", &cf, prune::Method::kChannelFilter},
                 {"xcs", &xcs, prune::Method::kXbarColumn}};
    for (const auto& plan : plans) {
        std::int64_t tiles = 0;
        out.num(std::string("map.plan_ms.") + plan.label, median_us([&] {
                    for (nn::Layer* layer : map::mappable_layers(plan.model->model)) {
                        Tensor work = map::extract_matrix(*layer);
                        if (plan.method == prune::Method::kChannelFilter)
                            work = map::compact_dense(work).matrix;
                        work = core::apply_columns(
                            work, core::compute_rearrangement(
                                      work, core::RearrangeOrder::kAscending));
                        tiles += plan.method == prune::Method::kXbarColumn
                                     ? map::tile_xcs(work, 32).count()
                                     : map::tile_dense(work.dim(0), work.dim(1), 32)
                                           .count();
                    }
                }) / 1000.0);
    }

    // sweep: the durable manifest append (write + flush + fsync).
    sweep::ManifestWriter manifest(ctx.csv_path("probe_manifest.jsonl"), false);
    sweep::CellResult cell;
    cell.accuracy = 50.0;
    cell.tiles = 100;
    std::int64_t record = 0;
    out.num("sweep.manifest_record_us", median_us([&] {
                manifest.record("probe/r" + std::to_string(record++), cell);
            }));
}

int run_probe(const util::Flags& flags) {
    core::ExperimentContext ctx(flags);
    const sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    const Inputs in = load_inputs(ctx, spec);
    if (in.cold) {
        util::log_error("xsbench: the model cache was cold; prime it first");
        return 3;
    }
    JsonOut out;
    std::exception_ptr error;
    // Probe inside a pool region so nested dispatches run inline on this
    // thread, as they do inside an in-process sweep shard: single-thread
    // timings, steadier than pool-wide ones.
    util::parallel_for_workers(
        0, util::worker_count(), [&](std::size_t, std::size_t lo, std::size_t) {
            if (lo != 0) return;
            try {
                util::metrics::reset();
                util::trace::start(flags.get_string("trace", "probe_trace.json"));
                traced_cells(ctx, spec, out);
                util::trace::stop_and_write();
                out.raw("metrics",
                        util::metrics::to_json(util::metrics::snapshot()));
                probe_modules(ctx, spec, out);
            } catch (...) {
                error = std::current_exception();
            }
        });
    if (error) std::rethrow_exception(error);
    return out.write(flags.get_string("probe", "")) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    try {
        if (flags.get_bool("worker", false)) return run_worker(flags);
        if (flags.has("prime")) return run_prime(flags);
        if (flags.has("probe")) return run_probe(flags);
        return run_grid(argc, argv, flags);
    } catch (const std::exception& e) {
        util::log_error(std::string("xsbench: ") + e.what());
        return 1;
    }
}
