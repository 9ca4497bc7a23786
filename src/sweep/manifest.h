// Crash-safe sweep progress log: one flat JSON object per line, appended as
// each cell completes. Every append is write + flush + fsync *before* the
// cell counts as acknowledged, so a cell recorded is a cell durably
// recorded — a power cut after the ack loses nothing. --resume reads the
// manifest back, skips every recorded cell, and aggregates from the
// recorded numbers; doubles are written with 17 significant digits so the
// string round-trips exactly and a resumed sweep reproduces the same
// aggregate CSV byte for byte.
//
// Failure taxonomy (DESIGN.md §9): cells the coordinator quarantines after
// exhausting retries are recorded as {"cell":…,"status":"failed",
// "reason":…,"attempts":N} instead of aborting the sweep. Failed cells are
// skipped on resume like finished ones but never aggregate into the CSV.
//
// The loader survives a corrupt manifest, not just a truncated tail: torn
// mid-file records (a crash between write and the next append leaves the
// next record glued onto the partial line) are skipped and counted, and the
// caller warns loudly with the count.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace xs::sweep {

// Everything a finished cell contributes to aggregation (plus wall_ms,
// backend and attempts, which are informational only and never aggregated).
struct CellResult {
    double accuracy = 0.0;      // % on the test set
    double nf_mean = 0.0;       // tile-average non-ideality factor
    double energy_pj = 0.0;     // estimated per-inference MAC-pass energy
    double software_acc = 0.0;  // the prepared model's software accuracy (%)
    std::int64_t tiles = 0;
    // Circuit solves that hit max_sweeps without reaching tolerance, summed
    // over the cell's tiles (propagated from xbar/solver.* through the
    // backend and TileContext). Manifests predating the rename decode
    // their "unconverged" field; ones predating the field decode to 0.
    std::int64_t solver_failures = 0;
    double wall_ms = 0.0;
    // Crossbar backend that produced this cell (xbar/backend.h). Manifests
    // predating the backend axis decode to the then-only "circuit".
    std::string backend = "circuit";
    // "ok" for a completed cell; "failed" for a quarantined poison cell.
    std::string status = "ok";
    std::string reason;         // failure taxonomy text for failed cells
    std::int64_t attempts = 1;  // deal attempts this outcome consumed

    bool failed() const { return status != "ok"; }
};

// {"cell":"<id>","accuracy":...,...} — one line, no trailing newline.
// Failed cells encode status/reason/attempts and omit the result numbers.
std::string encode_manifest_line(const std::string& cell_id, const CellResult& r);

// Inverse of encode; tolerant of field order and of the legacy
// "unconverged" spelling. Returns false (and leaves the outputs untouched)
// for malformed, torn, or truncated lines — including a record with another
// record glued onto it (mid-line corruption).
bool decode_manifest_line(const std::string& line, std::string& cell_id,
                          CellResult& r);

struct ManifestLoad {
    std::map<std::string, CellResult> results;  // later duplicates win
    std::string config;                // fingerprint line, "" when absent
    // Inner JSON of the last {"metrics":…} record (last-wins, like results:
    // a resumed run appends a fresh record and the newest one carries the
    // accumulated totals forward). "" when the manifest has none.
    std::string metrics_json;
    std::int64_t skipped_lines = 0;    // corrupt/torn lines ignored
};

// Load every well-formed line, the recorded config fingerprint, and the
// count of corrupt lines skipped (the caller should warn when nonzero).
ManifestLoad load_manifest_file(const std::string& path);

// The records of load_manifest_file().
std::map<std::string, CellResult> load_manifest(const std::string& path);

// Serialized durable append writer shared by all sweep shards (and used by
// the service's coordinator, where the append is the deal
// acknowledgement). Each
// record is written, flushed, and fsync'd before record() returns.
class ManifestWriter {
public:
    // append=false truncates (fresh sweep); append=true resumes.
    ManifestWriter(const std::string& path, bool append);
    ~ManifestWriter();
    ManifestWriter(const ManifestWriter&) = delete;
    ManifestWriter& operator=(const ManifestWriter&) = delete;

    // First line of a fresh manifest: {"sweep_config":"<fingerprint>"} so a
    // resume under different experiment flags is refused instead of
    // silently mixing two configurations' results.
    void record_config(const std::string& fingerprint);
    void record(const std::string& cell_id, const CellResult& r);
    // Uncounted informational record appended at the end of a run:
    // {"metrics":<util/metrics.h snapshot JSON>}. The loader skips it
    // silently (nested JSON would otherwise trip the torn-record check).
    void record_metrics(const std::string& metrics_json);
    bool ok() const { return ok_; }

private:
    void write_line(const std::string& line, bool count_record);

    std::mutex mu_;
    std::FILE* f_ = nullptr;
    bool ok_ = true;
    std::int64_t records_ = 0;  // fault-injection site "record"
};

}  // namespace xs::sweep
