#!/usr/bin/env python3
"""Validate sweep telemetry artifacts (DESIGN.md §10).

Usage: check_metrics.py [--clean] METRICS_JSON [TRACE_JSON] [MANIFEST_JSONL]
       check_metrics.py [--clean] --manifest=MANIFEST_JSONL METRICS_JSON

Checks, in order:
  * METRICS_JSON parses and has exactly the schema keys "counters" and
    "histograms"; counter values are non-negative integers; every histogram
    is self-consistent (count == sum(buckets), sum == 0 when count == 0,
    buckets no longer than the 64 fixed log2 slots).
  * The sweep counters are present; with --clean (a run known free of
    crashes and retries) additionally sweep.cells.done ==
    sweep.cells.executed — every executed cell was acknowledged and
    recorded. Without --clean the equality is not an invariant: a killed
    worker's executed-count dies with it (its kMetrics frame is only sent
    on clean shutdown) and retried cells execute more than once.
  * TRACE_JSON (when given) is a chrome://tracing file: non-empty
    traceEvents, each a complete "X" event with name/ph/ts/dur/pid/tid.
  * MANIFEST_JSONL (when given, positionally after a trace or with
    --manifest= for a run without one) is cross-checked against the counters:
    sweep.cells.done == number of ok cell records (the acknowledgement
    count), and the trailing {"metrics": ...} record matches METRICS_JSON.

Exits nonzero with a message on the first violation. Only meaningful on a
fresh (non --resume) run: resumed cells are replayed from the manifest, not
re-executed, so the counters intentionally cover executed cells only.
"""
import json
import sys


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(metrics, clean):
    if set(metrics.keys()) != {"counters", "histograms"}:
        fail(f"schema keys {sorted(metrics.keys())} != ['counters', 'histograms']")
    counters, histograms = metrics["counters"], metrics["histograms"]
    for name, v in counters.items():
        if not isinstance(v, int) or v < 0:
            fail(f"counter {name} = {v!r} is not a non-negative integer")
    for name, h in histograms.items():
        if set(h.keys()) != {"count", "sum", "buckets"}:
            fail(f"histogram {name} keys {sorted(h.keys())}")
        if len(h["buckets"]) > 64:
            fail(f"histogram {name} has {len(h['buckets'])} buckets (max 64)")
        if sum(h["buckets"]) != h["count"]:
            fail(f"histogram {name}: sum(buckets) {sum(h['buckets'])} != count {h['count']}")
        if h["count"] == 0 and h["sum"] != 0:
            fail(f"histogram {name}: empty but sum {h['sum']}")
        if not name.endswith(".ns"):
            fail(f"histogram {name} does not carry the .ns unit suffix")

    done = counters.get("sweep.cells.done")
    executed = counters.get("sweep.cells.executed")
    if done is None or executed is None:
        fail("sweep.cells.done / sweep.cells.executed counters missing")
    if clean and done != executed:
        fail(f"sweep.cells.done {done} != sweep.cells.executed {executed}")
    return counters


def check_trace(path):
    with open(path) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    for e in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event {e} lacks '{key}'")
        if e["ph"] != "X" or e["dur"] < 0:
            fail(f"{path}: malformed complete event {e}")
    print(f"check_metrics: {path}: {len(events)} trace events ok")


def check_manifest(path, counters, metrics):
    acks = 0
    recorded_metrics = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith('{"metrics":'):
                recorded_metrics = json.loads(line)["metrics"]
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn records are the loader's concern, not ours
            if "cell" in rec and rec.get("status", "ok") == "ok":
                acks += 1
    if counters["sweep.cells.done"] != acks:
        fail(f"sweep.cells.done {counters['sweep.cells.done']} != "
             f"{acks} ok manifest records")
    if recorded_metrics is None:
        fail(f"{path}: no {{\"metrics\": ...}} record")
    if recorded_metrics != metrics:
        fail(f"{path}: recorded metrics differ from the metrics JSON")
    print(f"check_metrics: {path}: {acks} acks match sweep.cells.done")


def main(argv):
    args = argv[1:]
    clean = "--clean" in args
    manifest = [a.split("=", 1)[1] for a in args if a.startswith("--manifest=")]
    args = [a for a in args if a != "--clean" and not a.startswith("--manifest=")]
    if not args or len(manifest) > 1 or (manifest and len(args) > 1):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0]) as f:
        metrics = json.load(f)
    counters = check_metrics(metrics, clean)
    print(f"check_metrics: {args[0]}: {len(counters)} counters, "
          f"{len(metrics['histograms'])} histograms ok")
    if len(args) > 1:
        check_trace(args[1])
    if len(args) > 2:
        manifest = [args[2]]
    if manifest:
        check_manifest(manifest[0], counters, metrics)
    print("check_metrics: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
