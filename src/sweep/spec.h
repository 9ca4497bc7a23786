// Declarative experiment grids over the paper's evaluation axes. A SweepSpec
// names the values of every axis — model variant, class count, pruning
// method/sparsity, mitigation (WCT / rearrangement), crossbar size, device
// sigma, parasitic scale, stuck-fault rates, and the Monte-Carlo repeat —
// and expand() emits the full cartesian product as SweepCells. The runner
// (sweep/runner.h) executes cells sharded and resumable; cells that differ
// only in `repeat` aggregate into one mean±std row of the output CSV.
//
// Specs parse from CLI flags, optionally overlaid on a `key = value` spec
// file (--spec=<path>; '#' starts a comment; CLI flags win over the file),
// which in turn overlays a driver's own grid written in the same keys.
#pragma once

#include "prune/prune.h"
#include "util/flags.h"
#include "xbar/backend.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xs::sweep {

// One mitigation setting (paper §VI): weight-clipping training, crossbar-
// column rearrangement, and/or the [12]-style IR-drop column-compensation
// baseline, independently toggleable.
struct Mitigation {
    bool wct = false;
    bool rearrange = false;
    bool compensate = false;

    // "none" or the active toggles joined by '+' in wct/rearrange/comp
    // order (e.g. "wct+rearrange", "rearrange+comp") — also the parse
    // syntax.
    std::string name() const;
};

struct PruneSetting {
    prune::Method method = prune::Method::kNone;
    double sparsity = 0.0;
};

struct FaultSetting {
    double p_stuck_min = 0.0;  // SA0 rate
    double p_stuck_max = 0.0;  // SA1 rate
};

// One fully-resolved grid point.
struct SweepCell {
    std::string variant = "vgg11";
    std::int64_t num_classes = 10;
    PruneSetting prune;
    Mitigation mitigation;
    std::int64_t xbar_size = 32;
    double sigma = 0.10;
    double parasitic_scale = 1.0;
    FaultSetting faults;
    // Conductance write-quantization levels; 0 = continuous writes (keep
    // whatever the experiment context's evaluation default is).
    std::int64_t quant_levels = 0;
    xbar::BackendKind backend = xbar::BackendKind::kCircuit;
    std::int64_t repeat = 0;

    // Stable identifier of the cell's aggregation group (everything except
    // the repeat axis); the manifest keys off it.
    std::string group_id() const;
    // group_id() + "/r<repeat>" — the manifest key of this cell.
    std::string id() const;
    // group_id() without the backend axis: the per-cell RNG seed keys off
    // this, so cells that differ only in backend see identical stochastic
    // draws — a fast-vs-circuit accuracy gap is pure model error, never a
    // different Monte-Carlo draw.
    std::string seed_key() const;
    // Display label: group_id() optionally without the size axis and with
    // axes still at their SweepCell defaults elided (table row headers).
    std::string label(bool with_size, bool elide_defaults) const;
};

struct SweepSpec {
    std::vector<std::string> variants = {"vgg11"};
    std::vector<std::int64_t> class_counts = {10};
    std::vector<PruneSetting> prunes = {{}};
    std::vector<Mitigation> mitigations = {{}};
    std::vector<std::int64_t> sizes = {16, 32, 64};
    std::vector<double> sigmas = {0.10};
    std::vector<double> parasitic_scales = {1.0};
    std::vector<FaultSetting> faults = {{}};
    // Write-quantization axis (ablation bench): conductance level counts,
    // 0 = continuous.
    std::vector<std::int64_t> quant_levels = {0};
    // Crossbar evaluation backends (xbar/backend.h): circuit / fast / ideal.
    std::vector<xbar::BackendKind> backends = {xbar::BackendKind::kCircuit};
    // Monte-Carlo repeats; expanded as the innermost axis so one group's
    // cells are contiguous in expansion order.
    std::int64_t repeats = 2;
    // NF-measurement mode (paper Fig. 3(d)): cells run measure_nf() at
    // σ = 0, whatever `sigmas` holds, instead of a full inference pass — NF
    // is a parasitics metric and this makes each cell deterministic, so
    // drivers normally pair nf_only with repeats = 1. Accuracy columns
    // read 0.
    bool nf_only = false;

    // Full cartesian grid in deterministic order (repeat innermost).
    std::vector<SweepCell> expand() const;
    // Human-readable axis summary, e.g. for a run banner.
    std::string describe() const;
};

// Parse a spec file into a key→value map: one `key = value` per line,
// '#' comments, blank lines ignored. Throws on unreadable files.
std::map<std::string, std::string> read_spec_file(const std::string& path);

// Resolve the sweep axes. Each key takes the first non-empty value found
// in: the CLI flag, the --spec=<file> entry, `defaults` (a driver's figure
// grid, in spec-file keys and syntax), then the SweepSpec default. An
// unknown key in the file or in `defaults` throws.
// Axis keys (CLI flag == spec-file key):
//   variants=vgg11,vgg16       classes=10,100
//   prune=none,cf:0.8,xcs:0.8  mitigations=none,rearrange,wct,comp,wct+r
//   sizes=16,32,64             sigmas=0.10
//   parasitic-scales=1.0       faults=0:0,0.01:0.001   (SA0:SA1)
//   quant-levels=0,64,16       backends=circuit,fast,ideal
//   sweep-repeats=2            nf-only=false
// A value no grid can run throws, naming its key: sizes or sweep-repeats
// below 1, negative parasitic scales, sigmas that are negative or not
// finite, quant-levels other than 0 or ≥ 2, and fault rates below 0 or
// summing above 1.
SweepSpec parse_sweep_spec(const util::Flags& flags,
                           const std::map<std::string, std::string>& defaults = {});

}  // namespace xs::sweep
