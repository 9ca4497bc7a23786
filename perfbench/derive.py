"""Pure derivations of the paper-grid benchmark: percentiles, CSV checks,
the fast/circuit pairing, and span arithmetic over chrome traces.

run.py feeds these the files one grid run leaves behind (aggregate CSV,
manifest, trace); test_derive.py pins them on synthetic inputs.
"""

import csv
import io
import json
import math

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

# CSV columns that identify a grid point apart from the backend; rows that
# agree on all of them are the fast/circuit pair of one grid point.
GRID_POINT_COLUMNS = ("variant", "classes", "method", "sparsity", "mitigation",
                      "xbar_size", "sigma", "parasitic_scale", "p_stuck_min",
                      "p_stuck_max")


def median(values):
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail_percentile(n, min_beyond=10):
    """Highest ladder percentile with at least `min_beyond` of `n` samples
    above it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        # Rounded: 100 − 99.9 is not exact in binary floating point.
        if round(n * (100.0 - p) / 100.0, 9) >= min_beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def csv_mismatch(expected, actual):
    """None when the two CSV texts are byte-identical, else a message naming
    what differs: the header, the row count, or the differing columns."""
    if expected == actual:
        return None
    eh, er = parse_csv(expected)
    ah, ar = parse_csv(actual)
    if eh != ah:
        return "header differs: %s vs %s" % (",".join(eh), ",".join(ah))
    if len(er) != len(ar):
        return "row count differs: %d vs %d" % (len(er), len(ar))
    cols = {}
    for i, (e, a) in enumerate(zip(er, ar)):
        for name, ev, av in zip(eh, e, a):
            if ev != av:
                cols.setdefault(name, []).append(i + 1)
    if not cols:
        return "bytes differ outside the parsed cells (line endings or quoting)"
    return "columns differ: " + ", ".join(
        "%s (rows %s)" % (name, ",".join(map(str, rows[:5])) +
                          ("…" if len(rows) > 5 else ""))
        for name, rows in cols.items())


def fast_circuit_pairs(header, rows):
    """[(circuit_row, fast_row)] of the grid points that have both backends,
    in CSV order of the circuit row. Rows are dicts keyed by header."""
    key_idx = [header.index(c) for c in GRID_POINT_COLUMNS]
    b = header.index("backend")
    by_key = {}
    for row in rows:
        by_key.setdefault(tuple(row[i] for i in key_idx), {})[row[b]] = row
    pairs = []
    for backends in by_key.values():
        if "circuit" in backends and "fast" in backends:
            pairs.append((dict(zip(header, backends["circuit"])),
                          dict(zip(header, backends["fast"]))))
    return pairs


def fast_gap_pp(pairs, column):
    """Mean |fast − circuit| of `column` over the pairs, in percentage
    points: acc_mean is already in %, nf_mean is a fraction (× 100)."""
    if not pairs:
        raise ValueError("no fast/circuit pairs")
    scale = 100.0 if column == "nf_mean" else 1.0
    return scale * sum(abs(float(f[column]) - float(c[column]))
                       for c, f in pairs) / len(pairs)


def converged_frac(header, rows):
    """1 − Σ solver_failures ÷ Σ tiles × repeats over the CSV rows."""
    t, r, f = (header.index(c) for c in ("tiles", "repeats", "solver_failures"))
    solves = sum(int(row[t]) * int(row[r]) for row in rows)
    failures = sum(int(row[f]) for row in rows)
    return 1.0 - failures / solves if solves else 1.0


def manifest_cells(text):
    """[(cell_id, wall_ms, ok)] of the manifest's cell records."""
    cells = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if "cell" in rec:
            cells.append((rec["cell"], float(rec.get("wall_ms", 0.0)),
                          rec.get("status", "ok") == "ok"))
    return cells


def load_trace_events(text, source=0):
    """Complete ('X') events of one chrome trace as dicts with name, ts, end
    (µs), and a thread key unique across trace files via `source`."""
    events = []
    for e in json.loads(text).get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        ts = float(e["ts"])
        events.append({"name": e["name"], "ts": ts, "end": ts + float(e["dur"]),
                       "thread": (source, e.get("pid"), e.get("tid"))})
    return events


def span_stats(events):
    """{name: (count, total µs, self µs)}. Spans of one thread nest (they are
    scopes), so a span's parent is the innermost open span that started
    before it and has not ended; self time is the duration minus the direct
    children's durations."""
    stats = {}
    by_thread = {}
    for e in events:
        by_thread.setdefault(e["thread"], []).append(e)
    for evs in by_thread.values():
        evs.sort(key=lambda e: (e["ts"], -e["end"]))
        stack = []  # [event, child µs]
        for e in evs:
            while stack and stack[-1][0]["end"] <= e["ts"]:
                _close(stack.pop(), stats)
            if stack:
                stack[-1][1] += e["end"] - e["ts"]
            stack.append([e, 0.0])
        while stack:
            _close(stack.pop(), stats)
    return stats


def _close(entry, stats):
    e, child = entry
    dur = e["end"] - e["ts"]
    count, total, self_us = stats.get(e["name"], (0, 0.0, 0.0))
    stats[e["name"]] = (count + 1, total + dur, self_us + dur - child)


def first_span_start(events, names):
    """{thread: ts of its first span named in `names`}."""
    first = {}
    for e in events:
        if e["name"] in names:
            t = e["thread"]
            first[t] = min(first.get(t, e["ts"]), e["ts"])
    return first


def busy_frac(unit_ms_sum, sweep_ms, executors):
    """Share of the executors' sweep time spent inside work units."""
    return unit_ms_sum / (sweep_ms * executors)


def overhead_ms_per_cell(sweep_ms, executors, cell_ms_sum, cells):
    """Executor time not spent in cells, per cell."""
    return (sweep_ms * executors - cell_ms_sum) / cells


def comparable(a, b):
    """None when two result records may be compared, else why not: results
    from pools of different sizes measure different machines."""
    wa = a.get("fingerprint", {}).get("worker_count")
    wb = b.get("fingerprint", {}).get("worker_count")
    if wa is None or wb is None:
        return "a result has no worker_count in its fingerprint"
    if wa != wb:
        return "worker_count differs: %s vs %s" % (wa, wb)
    return None
