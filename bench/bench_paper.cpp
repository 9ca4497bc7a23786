// The paper's figures and tables as data (DESIGN.md §7). One registry entry
// per figure or table holds its title, its CSV name, its figure grid and its
// parts; one driver runs the chosen entries as at most two sweeps, one
// inference and one NF-only (cell ids do not encode the mode), so a cell
// that several figures share runs once.
//
// Each part of an entry resolves through sweep::parse_sweep_spec over the
// entry's grid overlaid with the part's keys: every axis key resolves CLI
// flag, --spec file, part, figure grid, built-in default, so a CLI axis
// flag overrides every part. A figure CSV is the projection of the figure's
// aggregate rows: each axis that takes more than one value among them
// (backend and quant levels included), then the aggregate CSV's metric
// columns, so no two rows print alike. An entry has a hook only where its
// output is no such projection.
//
// Under --out-dir: paper_sweep.csv and paper_manifest.jsonl (the inference
// sweep), paper_nf_sweep.csv and paper_nf_manifest.jsonl (the NF-only
// sweep), and each chosen entry's CSV.
//
//   ./bench_paper [--figures=all|3a,3b,3c,3d,3f,4ab,4cd,4e,4f,table1,ablation]
//                 [--sizes=16,32,64] [--sweep-repeats=2] [--backends=circuit]
//                 [--resume]
#include "core/experiments.h"
#include "core/rearrange.h"
#include "map/compaction.h"
#include "map/matrix_view.h"
#include "nn/vgg.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace xs;
using Keys = std::map<std::string, std::string>;
using Rows = std::vector<const sweep::GroupRow*>;

// A figure CSV before it is written.
struct Table {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

using Hook = void (*)(core::ExperimentContext&, const Rows&, Table&);

struct Figure {
    const char* key;  // its --figures name
    const char* title;
    const char* csv;  // under --out-dir
    Keys grid;        // the figure's map, in spec-file keys
    // One product each: the grid overlaid with the part's keys.
    std::vector<Keys> parts = {Keys{}};
    // Output that is no projection of the rows; it may append columns.
    Hook hook = nullptr;
};

// Fig. 3(d): the NF growth of each configuration from 32×32 to 64×64.
void nf_growth(core::ExperimentContext&, const Rows& rows, Table&) {
    std::map<std::string, std::map<std::int64_t, const sweep::GroupRow*>> by;
    for (const sweep::GroupRow* row : rows)
        by[row->cell.label(/*with_size=*/false, /*elide_defaults=*/true)]
          [row->cell.xbar_size] = row;
    util::TextTable table({"configuration", "NF @32x32", "NF @64x64", "delta",
                           "tiles@32", "tiles@64"});
    for (const auto& [label, sizes] : by) {
        if (sizes.count(32) == 0 || sizes.count(64) == 0) continue;
        const sweep::GroupRow& r32 = *sizes.at(32);
        const sweep::GroupRow& r64 = *sizes.at(64);
        table.add_row({label, util::fmt(r32.nf_mean, 4), util::fmt(r64.nf_mean, 4),
                       util::fmt(r64.nf_mean - r32.nf_mean, 4),
                       std::to_string(r32.tiles), std::to_string(r64.tiles)});
    }
    std::printf("%s\n", table.str().c_str());
}

void dump_matrix(const std::string& path, const tensor::Tensor& m) {
    std::ofstream os(path);
    for (std::int64_t r = 0; r < m.dim(0); ++r) {
        for (std::int64_t c = 0; c < m.dim(1); ++c) {
            if (c) os << ',';
            os << std::fabs(m.at(r, c));
        }
        os << '\n';
    }
}

void ascii_profile(const char* tag, const tensor::Tensor& m) {
    // Column-mean |w| quantized into 8 shade levels across up to 64 buckets.
    const std::int64_t cols = m.dim(1);
    const std::int64_t buckets = std::min<std::int64_t>(cols, 64);
    std::vector<double> profile(static_cast<std::size_t>(buckets), 0.0);
    double peak = 1e-12;
    for (std::int64_t b = 0; b < buckets; ++b) {
        const std::int64_t c0 = b * cols / buckets, c1 = (b + 1) * cols / buckets;
        double acc = 0.0;
        std::int64_t n = 0;
        for (std::int64_t c = c0; c < std::max(c1, c0 + 1); ++c)
            for (std::int64_t r = 0; r < m.dim(0); ++r) {
                acc += std::fabs(m.at(r, c));
                ++n;
            }
        profile[static_cast<std::size_t>(b)] = acc / static_cast<double>(n);
        peak = std::max(peak, profile[static_cast<std::size_t>(b)]);
    }
    static const char shades[] = " .:-=+*#@";
    std::printf("  %-22s |", tag);
    for (const double v : profile) {
        const int level = static_cast<int>(v / peak * 8.0);
        std::printf("%c", shades[std::min(level, 8)]);
    }
    std::printf("|\n");
}

// Fig. 3(f): |W| of conv3 and conv5 after T-compaction, before and after
// the centre-out rearrangement R, as CSVs plus a column-profile digest on
// stdout — for the first model of each variant among the rows, which the
// sweep has already prepared.
void heatmaps(core::ExperimentContext& ctx, const Rows& rows, Table&) {
    std::set<std::string> done;
    for (const sweep::GroupRow* row : rows) {
        const sweep::SweepCell& c = row->cell;
        if (!done.insert(c.variant).second) continue;
        auto& model = ctx.prepared(ctx.spec(c.variant, c.num_classes,
                                            c.prune.method, c.prune.sparsity,
                                            c.mitigation.wct));
        for (const std::string layer_name : {"conv3", "conv5"}) {
            nn::Layer* layer = model.model.find(layer_name);
            if (!layer) continue;
            const map::Compaction compaction =
                map::compact_dense(map::extract_matrix(*layer));
            const tensor::Tensor rearranged = core::apply_columns(
                compaction.matrix,
                core::compute_rearrangement(compaction.matrix,
                                            core::RearrangeOrder::kCenterOut));
            const std::string stem =
                ctx.csv_path("fig3f_" + c.variant + "_" + layer_name);
            dump_matrix(stem + "_before.csv", compaction.matrix);
            dump_matrix(stem + "_after.csv", rearranged);
            std::printf("%s %s (%lld x %lld after T; %s_{before,after}.csv):\n",
                        c.variant.c_str(), layer_name.c_str(),
                        static_cast<long long>(compaction.matrix.dim(0)),
                        static_cast<long long>(compaction.matrix.dim(1)),
                        stem.c_str());
            ascii_profile("before R", compaction.matrix);
            ascii_profile("after R (centre-out)", rearranged);
            std::printf("\n");
        }
    }
}

// The crossbar-compression rate of a cell's pruning at the paper's full
// network width. It is structural (pruning masks and matrix shapes only),
// so a freshly pruned-at-init model reproduces the magnitude of the paper's
// numbers (C/F ≈ 19.7× at s = 0.8, XCS/XRS ≈ 4–6×).
double full_width_compression(const sweep::SweepCell& c) {
    nn::VggConfig vc;
    vc.variant = c.variant;
    vc.num_classes = c.num_classes;
    vc.width = 1.0;
    util::Rng rng(1234);
    nn::Sequential model = nn::build_vgg(vc, rng);
    prune::PruneConfig pc;
    pc.method = c.prune.method;
    pc.sparsity = c.prune.sparsity;
    pc.segment_size = c.xbar_size;
    prune::prune_at_init(model, pc);
    core::EvalConfig mapping;
    mapping.xbar.size = c.xbar_size;
    mapping.method = c.prune.method;
    return core::MappingPlan(model, mapping).crossbars().compression_rate();
}

// Table I: software accuracy beside the full-width compression rate, as a
// column of the CSV and a table on stdout.
void compression(core::ExperimentContext&, const Rows& rows, Table& table) {
    table.header.push_back("compression_rate");
    util::TextTable text({"configuration", "software", "compression"});
    std::map<std::string, double> rates;  // by what the rate depends on
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const sweep::SweepCell& c = rows[i]->cell;
        const std::string key =
            c.variant + "-c" + std::to_string(c.num_classes) + "/" +
            prune::method_name(c.prune.method) + ":" +
            util::fmt_g(c.prune.sparsity) + "/x" + std::to_string(c.xbar_size);
        // An unpruned model maps densely: rate 1 by construction.
        if (rates.count(key) == 0)
            rates[key] = c.prune.method == prune::Method::kNone
                             ? 1.0
                             : full_width_compression(c);
        table.rows[i].push_back(util::fmt(rates[key]));
        text.add_row({c.label(/*with_size=*/true, /*elide_defaults=*/true),
                      util::fmt(rows[i]->software_acc) + "%",
                      util::fmt(rates[key]) + "x"});
    }
    std::printf("%s\n", text.str().c_str());
}

// The paper's sparsities: s = 0.8 on CIFAR10, 0.6 on CIFAR100.
const Figure kFigures[] = {
    {"3a", "Fig. 3(a): accuracy vs crossbar size, VGG11 / CIFAR10-like",
     "fig3a.csv",
     {{"variants", "vgg11"},
      {"classes", "10"},
      {"prune", "none,cf:0.8,xcs:0.8,xrs:0.8"}}},
    {"3b", "Fig. 3(b): C/F-pruned VGG11 / CIFAR10-like, sparsity sweep",
     "fig3b.csv",
     {{"variants", "vgg11"},
      {"classes", "10"},
      {"prune", "cf:0.5,cf:0.65,cf:0.8"}}},
    {"3c", "Fig. 3(c): accuracy vs crossbar size, VGG16 / CIFAR10-like",
     "fig3c.csv",
     {{"variants", "vgg16"},
      {"classes", "10"},
      {"prune", "none,cf:0.8,xcs:0.8,xrs:0.8"}}},
    {"3d", "Fig. 3(d): average NF, unpruned vs C/F VGG11 / CIFAR10-like",
     "fig3d.csv",
     {{"variants", "vgg11"},
      {"classes", "10"},
      {"prune", "none,cf:0.8"},
      {"sizes", "32,64"},
      {"nf-only", "true"},
      {"sweep-repeats", "1"}},
     {Keys{}},
     nf_growth},
    {"3f", "Fig. 3(f): C/F-pruned VGG16 / CIFAR10-like, NF and |W| before and "
           "after rearrangement",
     "fig3f.csv",
     {{"variants", "vgg16"},
      {"classes", "10"},
      {"prune", "cf:0.8"},
      {"mitigations", "none,rearrange"},
      {"nf-only", "true"},
      {"sweep-repeats", "1"}},
     {Keys{}},
     heatmaps},
    {"4ab", "Fig. 4(a,b): rearrangement R, VGG11 and VGG16 / CIFAR10-like",
     "fig4ab.csv",
     {{"variants", "vgg11,vgg16"}, {"classes", "10"}, {"prune", "none,cf:0.8"}},
     {Keys{}, {{"prune", "cf:0.8"}, {"mitigations", "rearrange"}}}},
    {"4cd", "Fig. 4(c,d): rearrangement R, VGG11 and VGG16 / CIFAR100-like",
     "fig4cd.csv",
     {{"variants", "vgg11,vgg16"}, {"classes", "100"}, {"prune", "none,cf:0.6"}},
     {Keys{}, {{"prune", "cf:0.6"}, {"mitigations", "rearrange"}}}},
    {"4e", "Fig. 4(e): WCT, VGG11 / CIFAR10-like", "fig4e.csv",
     {{"variants", "vgg11"}, {"classes", "10"}, {"prune", "none,cf:0.8"}},
     {Keys{}, {{"prune", "cf:0.8"}, {"mitigations", "wct"}}}},
    {"4f", "Fig. 4(f): WCT, VGG11 / CIFAR100-like", "fig4f.csv",
     {{"variants", "vgg11"}, {"classes", "100"}, {"prune", "none,cf:0.6"}},
     {Keys{}, {{"prune", "cf:0.6"}, {"mitigations", "wct"}}}},
    {"table1", "Table I: software accuracy and full-width compression rate",
     "table1.csv",
     {{"variants", "vgg11,vgg16"},
      {"sizes", "32"},
      {"nf-only", "true"},
      {"sweep-repeats", "1"}},
     {{{"classes", "10"}, {"prune", "none,cf:0.8,xcs:0.8,xrs:0.8"}},
      {{"classes", "100"}, {"prune", "none,cf:0.6"}}},
     compression},
    // The C/F model under the default non-idealities, with one of them
    // changed or one mitigation applied at a time.
    {"ablation", "Ablation: C/F-pruned VGG11 / CIFAR10-like, one knob at a time",
     "ablation.csv",
     {{"variants", "vgg11"}, {"classes", "10"}, {"prune", "cf:0.8"}, {"sizes", "64"}},
     {{{"prune", "none,cf:0.8"}},
      {{"sigmas", "0"}},
      {{"parasitic-scales", "0"}},
      {{"quant-levels", "64,16"}},
      {{"faults", "0.005:0.005,0.025:0.025"}},
      {{"mitigations", "comp,rearrange,rearrange+comp,wct"}}}},
};

std::vector<const Figure*> chosen_figures(const std::string& list) {
    std::set<std::string> keys;
    std::stringstream ss(list);
    for (std::string key; std::getline(ss, key, ',');) keys.insert(key);
    const bool all = keys.erase("all") != 0;
    std::vector<const Figure*> out;
    for (const Figure& f : kFigures)
        if (keys.erase(f.key) != 0 || all) out.push_back(&f);
    if (!keys.empty()) {
        std::string names = "all";
        for (const Figure& f : kFigures) names += std::string(",") + f.key;
        throw std::invalid_argument("--figures: unknown figure '" +
                                    *keys.begin() + "' (" + names + ")");
    }
    if (out.empty()) throw std::invalid_argument("--figures: no figure chosen");
    return out;
}

// A figure's grid as a union of its parts.
sweep::SweepSpec figure_spec(const util::Flags& flags, const Figure& fig) {
    sweep::SweepSpec spec;
    for (std::size_t i = 0; i < fig.parts.size(); ++i) {
        Keys keys = fig.parts[i];
        keys.insert(fig.grid.begin(), fig.grid.end());  // the part's keys win
        sweep::SweepSpec part = sweep::parse_sweep_spec(flags, keys);
        if (i == 0)
            spec = std::move(part);
        else
            spec.parts.push_back(std::move(part));
    }
    return spec;
}

// Each aggregate CSV axis column that takes more than one value among the
// rows, quant levels (which the aggregate CSV does not print) likewise,
// then the aggregate CSV's metric columns.
Table project(const Rows& rows) {
    std::vector<std::string> header = sweep::aggregate_csv_header();
    const auto metrics = static_cast<std::size_t>(
        std::find(header.begin(), header.end(), "repeats") - header.begin());
    const auto quant_at = header.begin() + static_cast<std::ptrdiff_t>(metrics);
    header.insert(quant_at, "quant_levels");
    std::vector<std::vector<std::string>> cells;
    for (const sweep::GroupRow* row : rows) {
        std::vector<std::string> c = sweep::aggregate_csv_cells(*row);
        c.insert(c.begin() + static_cast<std::ptrdiff_t>(metrics),
                 std::to_string(row->cell.quant_levels));
        cells.push_back(std::move(c));
    }
    std::vector<std::size_t> keep;
    for (std::size_t col = 0; col < header.size(); ++col) {
        bool varies = col > metrics;
        for (const auto& c : cells) varies = varies || c[col] != cells[0][col];
        if (varies) keep.push_back(col);
    }
    Table table;
    for (const std::size_t col : keep) table.header.push_back(header[col]);
    for (const auto& c : cells) {
        table.rows.emplace_back();
        for (const std::size_t col : keep) table.rows.back().push_back(c[col]);
    }
    return table;
}

int run(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const std::vector<const Figure*> figures =
        chosen_figures(flags.get_string("figures", "all"));
    std::vector<sweep::SweepSpec> specs;
    for (const Figure* fig : figures) specs.push_back(figure_spec(flags, *fig));
    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    flags.check_all_read();

    std::string closing;
    for (const bool nf : {false, true}) {
        std::optional<sweep::SweepSpec> grid;  // the union of the mode's figures
        for (const sweep::SweepSpec& spec : specs) {
            if (spec.nf_only != nf) continue;
            if (grid)
                grid->parts.push_back(spec);
            else
                grid = spec;
        }
        if (!grid) continue;
        opts.csv_name = nf ? "paper_nf_sweep.csv" : "paper_sweep.csv";
        opts.manifest_name = nf ? "paper_nf_manifest.jsonl" : "paper_manifest.jsonl";
        const sweep::SweepSummary summary =
            sweep::SweepRunner(ctx, *grid, opts).run();
        closing += std::string(nf ? "NF-only" : "inference") + " sweep: " +
                   std::to_string(summary.cells_total) + " cells (" +
                   std::to_string(summary.cells_executed) + " executed, " +
                   std::to_string(summary.cells_resumed) + " resumed)\n  " +
                   summary.csv_path + "\n  " + summary.manifest_path + "\n";

        std::map<std::string, const sweep::GroupRow*> by_group;
        for (const sweep::GroupRow& row : summary.rows)
            if (row.complete()) by_group[row.cell.group_id()] = &row;
        for (std::size_t f = 0; f < figures.size(); ++f) {
            if (specs[f].nf_only != nf) continue;
            const Figure& fig = *figures[f];
            Rows rows;
            for (const sweep::SweepCell& cell : specs[f].expand()) {
                if (cell.repeat != 0) continue;
                const auto it = by_group.find(cell.group_id());
                if (it != by_group.end()) rows.push_back(it->second);
            }
            std::printf("\n%s\n\n", fig.title);
            if (!nf) {
                sweep::SweepSummary view;
                for (const sweep::GroupRow* row : rows) view.rows.push_back(*row);
                std::printf("%s\n", sweep::accuracy_vs_size_table(view).c_str());
            }
            Table table = project(rows);
            if (fig.hook) fig.hook(ctx, rows, table);
            const std::string path = ctx.csv_path(fig.csv);
            util::CsvWriter csv(path, table.header);
            for (const auto& row : table.rows) csv.row(row);
            csv.flush();
            if (!csv.ok()) throw std::runtime_error("failed writing '" + path + "'");
            closing += std::string(fig.key) + ": " + path + "\n";
        }
    }
    std::printf("\n%s", closing.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) { return xs::util::run_main(argc, argv, run); }
