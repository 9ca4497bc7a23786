#include "sweep/manifest.h"

#include "util/faultinject.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unistd.h>

namespace xs::sweep {

namespace {

// 17 significant digits: the shortest precision that round-trips every
// double exactly through strtod.
void append_number(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void append_field(std::string& out, const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    append_number(out, v);
}

// Reason strings carry exception text — escape the characters that would
// break the one-line flat-JSON format.
void append_escaped(std::string& out, const std::string& text) {
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n' || c == '\r') {
            out += ' ';
        } else {
            out += c;
        }
    }
}

std::string unescape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        out += text[i];
    }
    return out;
}

// Scan `line` for `"key":` and parse the number that follows. The manifest
// only ever contains flat objects with a few string fields, so this does
// not need a general JSON parser.
bool find_number(const std::string& line, const char* key, double& out) {
    const std::string needle = "\"" + std::string(key) + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return false;
    const char* start = line.c_str() + pos + needle.size();
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    out = v;
    return true;
}

// Find `"key":"<value>"` honouring backslash escapes in the value. Returns
// false when the key is absent; `ok` reports whether the value terminated
// properly (an unterminated string means a torn line).
bool find_string(const std::string& line, const char* key, std::string& out,
                 bool& ok) {
    const std::string needle = "\"" + std::string(key) + "\":\"";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return false;
    const auto start = pos + needle.size();
    std::size_t end = start;
    while (end < line.size()) {
        if (line[end] == '\\') {
            end += 2;
            continue;
        }
        if (line[end] == '"') break;
        ++end;
    }
    ok = end < line.size();
    if (ok) out = unescape(line.substr(start, end - start));
    return true;
}

}  // namespace

std::string encode_manifest_line(const std::string& cell_id, const CellResult& r) {
    std::string out = "{\"cell\":\"" + cell_id + "\"";
    if (r.failed()) {
        out += ",\"status\":\"";
        append_escaped(out, r.status);
        out += "\",\"reason\":\"";
        append_escaped(out, r.reason);
        out += "\",\"backend\":\"" + r.backend + "\"";
        append_field(out, "attempts", static_cast<double>(r.attempts));
        out += "}";
        return out;
    }
    out += ",\"backend\":\"" + r.backend + "\"";
    append_field(out, "accuracy", r.accuracy);
    append_field(out, "nf_mean", r.nf_mean);
    append_field(out, "energy_pj", r.energy_pj);
    append_field(out, "software_acc", r.software_acc);
    append_field(out, "tiles", static_cast<double>(r.tiles));
    append_field(out, "solver_failures", static_cast<double>(r.solver_failures));
    append_field(out, "wall_ms", r.wall_ms);
    if (r.attempts > 1)
        append_field(out, "attempts", static_cast<double>(r.attempts));
    out += "}";
    return out;
}

bool decode_manifest_line(const std::string& line, std::string& cell_id,
                          CellResult& r) {
    if (line.empty() || line.front() != '{' || line.back() != '}') return false;
    // Mid-line corruption check: a torn record with the next append glued on
    // ("{\"cell\":\"a\",\"accu{\"cell\":\"b\",…}") still starts with '{' and
    // ends with '}', but a well-formed flat record contains exactly one of
    // each. Reject anything else rather than parse a chimera of two cells.
    if (std::count(line.begin(), line.end(), '{') != 1 ||
        std::count(line.begin(), line.end(), '}') != 1)
        return false;

    CellResult parsed;
    bool str_ok = false;
    std::string id;
    if (!find_string(line, "cell", id, str_ok) || !str_ok) return false;

    std::string status;
    if (find_string(line, "status", status, str_ok)) {
        if (!str_ok) return false;
        parsed.status = status;
    }
    double attempts = 1.0;
    if (find_number(line, "attempts", attempts))
        parsed.attempts = static_cast<std::int64_t>(attempts);
    if (find_string(line, "backend", parsed.backend, str_ok) && !str_ok)
        return false;

    if (parsed.failed()) {
        // Quarantined cell: no result numbers, just the taxonomy.
        if (find_string(line, "reason", parsed.reason, str_ok) && !str_ok)
            return false;
        cell_id = std::move(id);
        r = std::move(parsed);
        return true;
    }

    double tiles = 0.0, failures = 0.0;
    if (!find_number(line, "accuracy", parsed.accuracy)) return false;
    if (!find_number(line, "nf_mean", parsed.nf_mean)) return false;
    if (!find_number(line, "energy_pj", parsed.energy_pj)) return false;
    if (!find_number(line, "software_acc", parsed.software_acc)) return false;
    if (!find_number(line, "tiles", tiles)) return false;
    // Renamed in PR 6; legacy manifests spell it "unconverged", and ones
    // predating the field decode to 0 solver failures.
    if (!find_number(line, "solver_failures", failures))
        find_number(line, "unconverged", failures);
    find_number(line, "wall_ms", parsed.wall_ms);  // informational; optional
    parsed.tiles = static_cast<std::int64_t>(tiles);
    parsed.solver_failures = static_cast<std::int64_t>(failures);

    cell_id = std::move(id);
    r = std::move(parsed);
    return true;
}

ManifestLoad load_manifest_file(const std::string& path) {
    ManifestLoad load;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        // Telemetry summary record (nested JSON, so the exactly-one-brace
        // cell decoder would misread it as torn). Keep the inner snapshot,
        // last-wins: each run's record already folds in its predecessor's
        // totals, so the newest one is the whole history.
        if (line.compare(0, 12, "{\"metrics\":{") == 0) {
            if (line.back() == '}')
                load.metrics_json = line.substr(11, line.size() - 12);
            continue;
        }
        const auto cfg = line.find("\"sweep_config\":\"");
        if (cfg != std::string::npos) {
            const auto start = cfg + std::strlen("\"sweep_config\":\"");
            const auto end = line.find('"', start);
            if (end != std::string::npos)
                load.config = line.substr(start, end - start);
            continue;
        }
        std::string id;
        CellResult r;
        if (decode_manifest_line(line, id, r))
            load.results[id] = std::move(r);
        else
            ++load.skipped_lines;
    }
    return load;
}

std::map<std::string, CellResult> load_manifest(const std::string& path) {
    return load_manifest_file(path).results;
}

ManifestWriter::ManifestWriter(const std::string& path, bool append)
    : f_(std::fopen(path.c_str(), append ? "ab" : "wb")) {
    ok_ = f_ != nullptr;
}

ManifestWriter::~ManifestWriter() {
    if (f_) std::fclose(f_);
}

void ManifestWriter::write_lines(const std::vector<std::string>& lines,
                                 bool count_records) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!f_) {
        ok_ = false;
        return;
    }
    std::string bytes;
    for (const std::string& line : lines) {
        if (count_records &&
            util::fault::at("record", records_) ==
                util::fault::Action::kTruncate) {
            // Simulate a crash mid-append: half the record, no newline. The
            // next record glues onto it — exactly the mid-line corruption
            // the resume parser must survive.
            bytes.append(line, 0, line.size() / 2);
        } else {
            bytes += line;
            bytes += '\n';
        }
        if (count_records) ++records_;
    }
    if (std::fwrite(bytes.data(), 1, bytes.size(), f_) != bytes.size() ||
        std::fflush(f_) != 0 || ::fsync(fileno(f_)) != 0)
        ok_ = false;
}

void ManifestWriter::record_config(const std::string& fingerprint) {
    write_lines({"{\"sweep_config\":\"" + fingerprint + "\"}"},
                /*count_records=*/false);
}

void ManifestWriter::record(const std::string& cell_id, const CellResult& r) {
    write_lines({encode_manifest_line(cell_id, r)}, /*count_records=*/true);
}

void ManifestWriter::record(const std::vector<std::string>& cell_ids,
                            const std::vector<CellResult>& results) {
    std::vector<std::string> lines;
    lines.reserve(cell_ids.size());
    for (std::size_t i = 0; i < cell_ids.size(); ++i)
        lines.push_back(encode_manifest_line(cell_ids[i], results.at(i)));
    write_lines(lines, /*count_records=*/true);
}

void ManifestWriter::record_metrics(const std::string& metrics_json) {
    write_lines({"{\"metrics\":" + metrics_json + "}"},
                /*count_records=*/false);
}

}  // namespace xs::sweep
