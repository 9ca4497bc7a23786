#include "sweep/spec.h"

#include "tensor/tensor.h"  // tensor::check
#include "util/csv.h"       // util::fmt_g

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

namespace xs::sweep {

namespace {

using util::fmt_g;

std::vector<std::string> split(const std::string& s, char sep) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, sep))
        if (!item.empty()) out.push_back(item);
    return out;
}

std::string strip(const std::string& s) {
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos) return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

Mitigation parse_mitigation(const std::string& name) {
    Mitigation m;
    if (name == "none") return m;
    for (const std::string& part : split(name, '+')) {
        if (part == "wct") {
            m.wct = true;
        } else if (part == "rearrange" || part == "r") {
            m.rearrange = true;
        } else if (part == "comp" || part == "compensate") {
            m.compensate = true;
        } else {
            tensor::check(false, "sweep: unknown mitigation '" + name + "'");
        }
    }
    return m;
}

PruneSetting parse_prune(const std::string& text) {
    PruneSetting p;
    const auto colon = text.find(':');
    p.method = prune::method_from_name(text.substr(0, colon));
    if (colon != std::string::npos)
        p.sparsity = util::parse_double(text.substr(colon + 1), "prune");
    tensor::check(p.method == prune::Method::kNone || p.sparsity > 0.0,
                  "sweep: pruned setting '" + text + "' needs a sparsity "
                  "(method:sparsity)");
    return p;
}

FaultSetting parse_fault(const std::string& text) {
    FaultSetting f;
    const auto colon = text.find(':');
    f.p_stuck_min = util::parse_double(text.substr(0, colon), "faults");
    if (colon != std::string::npos)
        f.p_stuck_max = util::parse_double(text.substr(colon + 1), "faults");
    return f;
}

}  // namespace

std::string Mitigation::name() const {
    std::string out;
    const auto add = [&out](const char* part) {
        if (!out.empty()) out += '+';
        out += part;
    };
    if (wct) add("wct");
    if (rearrange) add("rearrange");
    if (compensate) add("comp");
    return out.empty() ? "none" : out;
}

namespace {

// Shared label builder: group_id() and seed_key() differ only in whether the
// backend axis participates (seed_key() omits it so backends share draws).
std::string cell_label(const SweepCell& cell, bool with_size,
                       bool elide_defaults, bool with_backend) {
    const SweepCell defaults;
    std::ostringstream os;
    os << cell.variant << "-c" << cell.num_classes << "/"
       << prune::method_name(cell.prune.method);
    if (cell.prune.method != prune::Method::kNone)
        os << ":" << fmt_g(cell.prune.sparsity);
    os << "/" << cell.mitigation.name();
    if (with_size) os << "/x" << cell.xbar_size;
    if (!elide_defaults || cell.sigma != defaults.sigma)
        os << "/sig" << fmt_g(cell.sigma);
    if (!elide_defaults || cell.parasitic_scale != defaults.parasitic_scale)
        os << "/par" << fmt_g(cell.parasitic_scale);
    if (!elide_defaults ||
        cell.faults.p_stuck_min != defaults.faults.p_stuck_min ||
        cell.faults.p_stuck_max != defaults.faults.p_stuck_max)
        os << "/f" << fmt_g(cell.faults.p_stuck_min) << ":"
           << fmt_g(cell.faults.p_stuck_max);
    // Like the backend below, the continuous-write default is elided even
    // from group_id(): manifests recorded before the quantization axis
    // existed keep their ids and still resume.
    if (cell.quant_levels != defaults.quant_levels)
        os << "/q" << cell.quant_levels;
    // Unlike the other axes the default backend is elided even from
    // group_id(): circuit cells keep their pre-backend-axis ids, so
    // manifests recorded before the axis existed still resume.
    if (with_backend && cell.backend != defaults.backend)
        os << "/bk-" << xbar::backend_name(cell.backend);
    return os.str();
}

}  // namespace

std::string SweepCell::group_id() const { return cell_label(*this, true, false, true); }

std::string SweepCell::seed_key() const {
    return cell_label(*this, true, false, false);
}

std::string SweepCell::label(bool with_size, bool elide_defaults) const {
    return cell_label(*this, with_size, elide_defaults, true);
}

std::string SweepCell::id() const {
    return group_id() + "/r" + std::to_string(repeat);
}

std::vector<SweepCell> SweepSpec::expand() const {
    std::vector<SweepCell> cells;
    for (const auto& variant : variants)
        for (const auto classes : class_counts)
            for (const auto& prune : prunes)
                for (const auto& mitigation : mitigations)
                    for (const auto size : sizes)
                        for (const auto sigma : sigmas)
                            for (const auto scale : parasitic_scales)
                                for (const auto& fault : faults)
                                    for (const auto quant : quant_levels)
                                        for (const auto backend : backends)
                                            for (std::int64_t r = 0; r < repeats; ++r) {
                                                SweepCell c;
                                                c.variant = variant;
                                                c.num_classes = classes;
                                                c.prune = prune;
                                                c.mitigation = mitigation;
                                                c.xbar_size = size;
                                                c.sigma = sigma;
                                                c.parasitic_scale = scale;
                                                c.faults = fault;
                                                c.quant_levels = quant;
                                                c.backend = backend;
                                                c.repeat = r;
                                                cells.push_back(std::move(c));
                                            }
    if (parts.empty()) return cells;
    std::set<std::string> seen;
    for (const SweepCell& c : cells) seen.insert(c.id());
    for (const SweepSpec& part : parts) {
        tensor::check(part.nf_only == nf_only && part.repeats == repeats,
                      "sweep: the parts of a union must share nf-only and "
                      "sweep-repeats");
        std::vector<std::string> emitted;
        for (SweepCell& c : part.expand()) {
            std::string id = c.id();
            if (seen.count(id) != 0) continue;
            emitted.push_back(std::move(id));
            cells.push_back(std::move(c));
        }
        seen.insert(emitted.begin(), emitted.end());
    }
    return cells;
}

std::string SweepSpec::describe() const {
    std::ostringstream os;
    auto axis = [&os](const char* name, std::size_t n) {
        os << name << "=" << n << " ";
    };
    axis("variants", variants.size());
    axis("classes", class_counts.size());
    axis("prunes", prunes.size());
    axis("mitigations", mitigations.size());
    axis("sizes", sizes.size());
    axis("sigmas", sigmas.size());
    axis("parasitic-scales", parasitic_scales.size());
    axis("faults", faults.size());
    axis("quant-levels", quant_levels.size());
    axis("backends", backends.size());
    if (!parts.empty()) os << "parts=" << parts.size() + 1 << " ";
    if (nf_only) os << "nf-only ";
    os << "repeats=" << repeats << " -> " << expand().size() << " cells";
    return os.str();
}

std::map<std::string, std::string> read_spec_file(const std::string& path) {
    std::ifstream in(path);
    tensor::check(in.good(), "sweep: cannot read spec file '" + path + "'");
    std::map<std::string, std::string> kv;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        line = strip(line);
        if (line.empty()) continue;
        const auto eq = line.find('=');
        tensor::check(eq != std::string::npos,
                      "sweep: spec line without '=': '" + line + "'");
        kv[strip(line.substr(0, eq))] = strip(line.substr(eq + 1));
    }
    return kv;
}

SweepSpec parse_sweep_spec(const util::Flags& flags,
                           const std::map<std::string, std::string>& defaults) {
    std::map<std::string, std::string> file;
    if (flags.has("spec")) file = read_spec_file(flags.get_string("spec", ""));
    // A misspelled axis key would otherwise silently run the default grid —
    // the worst failure mode for a reproducibility tool.
    static const std::set<std::string> known = {
        "variants", "classes",          "prune",      "mitigations",
        "sizes",    "sigmas",           "faults",     "parasitic-scales",
        "quant-levels", "backends",     "sweep-repeats", "nf-only"};
    // Below the CLI, in order of precedence.
    const std::map<std::string, std::string>* layers[] = {&file, &defaults};
    for (const auto* kv : layers)
        for (const auto& [key, unused] : *kv) {
            (void)unused;
            tensor::check(known.count(key) != 0,
                          "sweep: unknown spec-file key '" + key + "'");
        }

    // CLI wins over the spec file, the file over the driver's defaults, and
    // those over the built-in ones. An empty value at any layer is unset.
    const auto value = [&](const std::string& key) -> std::string {
        if (std::string v = flags.get_string(key, ""); !v.empty()) return v;
        for (const auto* kv : layers)
            if (const auto it = kv->find(key);
                it != kv->end() && !it->second.empty())
                return it->second;
        return "";
    };

    SweepSpec spec;
    // A set key replaces its axis with the parse of every comma-separated
    // item; a malformed item throws naming the key.
    const auto axis = [&value](const char* key, auto& values, auto parse) {
        const std::string v = value(key);
        if (v.empty()) return;
        values.clear();
        for (const auto& item : split(v, ',')) values.push_back(parse(item, key));
    };
    const auto as_int = [](const std::string& s, const char* key) {
        return util::parse_int(s, key);
    };
    const auto as_double = [](const std::string& s, const char* key) {
        return util::parse_double(s, key);
    };
    axis("variants", spec.variants,
         [](const std::string& s, const char*) { return s; });
    axis("classes", spec.class_counts, as_int);
    axis("prune", spec.prunes,
         [](const std::string& s, const char*) { return parse_prune(s); });
    axis("mitigations", spec.mitigations,
         [](const std::string& s, const char*) { return parse_mitigation(s); });
    axis("sizes", spec.sizes, as_int);
    axis("sigmas", spec.sigmas, as_double);
    axis("parasitic-scales", spec.parasitic_scales, as_double);
    axis("faults", spec.faults,
         [](const std::string& s, const char*) { return parse_fault(s); });
    axis("quant-levels", spec.quant_levels, as_int);
    axis("backends", spec.backends, [](const std::string& s, const char*) {
        return xbar::backend_from_name(s);
    });
    if (const auto v = value("sweep-repeats"); !v.empty())
        spec.repeats = util::parse_int(v, "sweep-repeats");
    if (const auto v = value("nf-only"); !v.empty())
        spec.nf_only = util::parse_bool(v, "nf-only");
    tensor::check(spec.repeats >= 1, "sweep: sweep-repeats must be >= 1");
    for (const std::int64_t size : spec.sizes)
        tensor::check(size >= 1, "sweep: sizes must be >= 1, got " +
                                     std::to_string(size));
    for (const double scale : spec.parasitic_scales)
        tensor::check(scale >= 0.0,
                      "sweep: parasitic-scales must be >= 0, got " +
                          fmt_g(scale));
    for (const double sigma : spec.sigmas)
        tensor::check(std::isfinite(sigma) && sigma >= 0.0,
                      "sweep: sigmas must be finite and >= 0, got " +
                          fmt_g(sigma));
    for (const std::int64_t levels : spec.quant_levels)
        tensor::check(levels == 0 || levels >= 2,
                      "sweep: quant-levels must be 0 (continuous) or >= 2, "
                      "got " + std::to_string(levels));
    for (const FaultSetting& f : spec.faults)
        tensor::check(f.p_stuck_min >= 0.0 && f.p_stuck_max >= 0.0 &&
                          f.p_stuck_min + f.p_stuck_max <= 1.0,
                      "sweep: faults rates must be >= 0 and sum to <= 1, "
                      "got " + fmt_g(f.p_stuck_min) + ":" +
                          fmt_g(f.p_stuck_max));
    return spec;
}

}  // namespace xs::sweep
