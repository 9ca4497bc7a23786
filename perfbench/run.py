#!/usr/bin/env python3
"""Paper-grid benchmark: fixed paper grids through the sweep layer, end to
end, with per-layer numbers from a separate traced run. See README.md.

    python3 perfbench/run.py --workload grid-inproc --seed 1 --seconds 40 --trace 0

Builds perfbench/ (the library plus the xsbench program) into .bench_build/,
primes the model cache once per program seed, then runs the workload's grid
again and again for --seconds, one xsbench process per grid. The last line of
stdout is the JSON result; earlier lines are the human-readable report.

    --update-reference   regenerate perfbench/reference/ (after a change that
                         is meant to move results)
    --compare A B        compare two saved result records (refuses when their
                         worker_count differs)
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of build output
import derive  # noqa: E402

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
XSBENCH = os.path.join(CMAKE_DIR, "xsbench")
MODELS = os.path.join(BUILD, "models")
LOCAL_REF = os.path.join(BUILD, "reference")
RUNS = os.path.join(BUILD, "runs")
RESULTS = os.path.join(BUILD, "results")
REF_DIR = os.path.join(HERE, "reference")

SCALE = ["--width=0.125", "--train-count=1024", "--test-count=512",
         "--epochs=4"]
GRID = ["--variants=vgg11", "--prune=none,cf:0.8,xcs:0.8",
        "--mitigations=none,rearrange,wct", "--sizes=16,32,64",
        "--backends=circuit,fast", "--sweep-repeats=4"]
NF = ["--nf-only", "--sweep-repeats=1", "--sizes=32,64,128",
      "--parasitic-scales=0.5,1,2,4", "--prune=none,cf:0.8,xcs:0.8",
      "--mitigations=none,rearrange"]
SPECS = {"grid": GRID, "nf": NF + ["--backends=circuit"],
         "nf-fast": NF + ["--backends=fast"]}

# name → (reference kind, forked workers, cells per grid). BENCHMARK.json
# gates the first two; grid-workers runs by name only (see README.md).
WORKLOADS = {
    "grid-inproc": ("grid", 0, 216),
    "nf-sweep": ("nf", 0, 72),
    "grid-workers": ("grid", 2, 216),
}

# Every run alternates between both program seeds, so each run sees the
# same models and draws and fast_gap_pp is the same on every run; --seed
# picks which comes first. Two seeds bound the cache priming (~1 min
# per seed) and the stored references.
PROGRAM_SEEDS = (11, 12)
MIN_GRIDS = 2
MIN_SETUPS = 9
MIN_UNPRUNED_ACC = 30.0  # % on 10 classes; chance is 10 %
GRID_TIMEOUT_S = 170

END_TO_END = {
    "cells_per_s": "cells/s", "setup_s": "s", "cell_ms_p50": "ms",
    "cell_ms_tail": "ms", "cpu_s_per_cell": "s", "peak_rss_mb": "MB",
    "fast_gap_pp": "pp", "cells_ok_frac": "frac",
    "solver_converged_frac": "frac",
}
PER_LAYER = {
    "sweep.busy_frac": "frac", "sweep.unit_ms_p50": "ms",
    "sweep.unit_ms_tail": "ms", "sweep.overhead_ms_per_cell": "ms",
    "sweep.worker_setup_s": "s", "sweep.manifest_record_us": "us",
    "core.compile_ms_per_instance": "ms", "core.infer_ms_per_instance": "ms",
    "core.compile_frac": "frac", "core.infer_frac": "frac",
    "core.measure_nf_ms_per_cell": "ms", "core.model_load_s": "s",
    "nn.forward_us_per_image.lanes4": "us",
    "nn.forward_us_per_image.lanes1": "us", "nn.compile_us_per_slot": "us",
    "nn.conv_frac": "frac",
    "xbar.solve_us.x32": "us", "xbar.solve_us.x64": "us",
    "xbar.solve_us.x128": "us", "xbar.sweeps_per_solve": "count",
    "xbar.unconverged_frac": "frac", "xbar.solve_frac": "frac",
    "xbar.solve_batched_us_per_lane.x16": "us",
    "xbar.solve_batched_us_per_lane.x32": "us",
    "xbar.solve_batched_us_per_lane.x64": "us",
    "xbar.fast_degrade_us.x16": "us", "xbar.fast_degrade_us.x32": "us",
    "xbar.fast_degrade_us.x64": "us", "xbar.fast_calibration_hit_ratio": "frac",
    "xbar.variation_us_per_tile": "us",
    "map.plan_ms.none": "ms", "map.plan_ms.cf": "ms", "map.plan_ms.xcs": "ms",
    "data.generate_s": "s", "trace_overhead_frac": "frac",
}
for _i in range(8):
    for _m in ("gemm_us", "gemm_sparse_us", "im2col_us"):
        PER_LAYER["tensor.conv%d.%s" % (_i, _m)] = "us"

UNIT_SPANS = ("cell_group", "cell")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def read(path):
    with open(path) as f:
        return f.read()


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def run_proc(cmd, log_path, timeout):
    """Run cmd in its own process group with output to log_path; on timeout
    kill the whole group (forked workers included) and wait for it."""
    with open(log_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, start_new_session=True)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            while True:  # reparented workers die on their own; wait for them
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            raise BenchError("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    if rc != 0:
        tail = read(log_path).splitlines()[-15:]
        raise BenchError("exit %d: %s\n%s" % (rc, " ".join(cmd), "\n".join(tail)))


# ---- build, cache, references ----

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources next to perfbench/; "
                         "nothing to build")
    os.makedirs(CMAKE_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    blog = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_proc(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], blog, 600)
    run_proc(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "xsbench"],
             blog, 900)


def xs_flags(pseed, out_dir):
    return SCALE + ["--seed=%d" % pseed, "--cache-dir=" + MODELS,
                    "--out-dir=" + out_dir]


def prime(pseed):
    """Train the grid models of `pseed` into the cache once per checkout and
    check that the unpruned model learned."""
    stamp = os.path.join(MODELS, "primed-s%d.json" % pseed)
    if os.path.isfile(stamp):
        return json.loads(read(stamp))
    d = os.path.join(RUNS, "prime-s%d" % pseed)
    os.makedirs(d, exist_ok=True)
    out = os.path.join(d, "prime.json")
    log("priming the model cache for program seed %d (untimed)" % pseed)
    t0 = time.monotonic()
    run_proc([XSBENCH] + xs_flags(pseed, d) + GRID + ["--prime=" + out],
             os.path.join(d, "prime.log"), 850)
    rec = json.loads(read(out))
    rec["prime_s"] = time.monotonic() - t0
    if rec["unpruned_acc"] < MIN_UNPRUNED_ACC:
        raise BenchError("unpruned model of seed %d reaches only %.2f%% "
                         "(need ≥ %.0f%%): the accuracy columns would not "
                         "see accuracy bugs" % (pseed, rec["unpruned_acc"],
                                                MIN_UNPRUNED_ACC))
    write(stamp, json.dumps(rec, indent=1))
    shutil.rmtree(d, ignore_errors=True)
    return rec


def machine_key():
    flags = set()
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            break
    isa = sorted(flags & {"avx2", "fma", "avx512f", "avx512dq", "avx512bw",
                          "avx512vl"})
    return {"isa": isa, "worker_count": os.cpu_count()}


def reference_csv(kind, pseed):
    """The expected aggregate CSV: the stored one when this machine matches
    the one it was recorded on, else a local one made once per checkout by
    an untimed in-process run (results may depend on the ISA and pool size)."""
    stored = os.path.join(REF_DIR, "%s-s%d.csv" % (kind, pseed))
    meta = os.path.join(REF_DIR, "machine.json")
    if (os.path.isfile(stored) and os.path.isfile(meta) and
            json.loads(read(meta)) == machine_key()):
        return read(stored)
    local = os.path.join(LOCAL_REF, "%s-s%d.csv" % (kind, pseed))
    if not os.path.isfile(local):
        log("no stored reference for this machine; making a local one for "
            "%s seed %d (untimed)" % (kind, pseed))
        r = run_grid("ref-%s-s%d" % (kind, pseed), pseed, SPECS[kind], 0)
        write(local, r["csv_text"])
    return read(local)


# ---- one grid ----

def run_grid(tag, pseed, spec, workers, trace_path=None, setup_only=False):
    d = os.path.join(RUNS, tag)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    res = os.path.join(d, "result.json")
    cmd = [XSBENCH] + xs_flags(pseed, d) + spec + ["--result=" + res]
    if workers:
        cmd.append("--workers=%d" % workers)
    if trace_path:
        cmd.append("--trace=" + trace_path)
    if setup_only:
        cmd.append("--setup-only")
    run_proc(cmd, os.path.join(d, "xsbench.log"), GRID_TIMEOUT_S)
    r = json.loads(read(res))
    r["pseed"] = pseed
    if not setup_only:
        r["csv_text"] = read(r["csv"])
        r["cells"] = derive.manifest_cells(read(r["manifest"]))
    shutil.rmtree(d, ignore_errors=True)
    return r


def check_grid(r, expected, label, problems):
    mismatch = derive.csv_mismatch(expected, r["csv_text"])
    if mismatch:
        problems.append("%s: aggregate CSV differs from the reference: %s"
                        % (label, mismatch))
    done = r["metrics"].get("counters", {}).get("sweep.cells.done")
    if done != r["cells_total"]:
        problems.append("%s: sweep.cells.done = %s, grid has %d cells"
                        % (label, done, r["cells_total"]))
    ok = sum(1 for c in r["cells"] if c[2])
    if ok != r["cells_total"]:
        problems.append("%s: %d of %d cells ok in the manifest"
                        % (label, ok, r["cells_total"]))
    if r["unpruned_acc"] < MIN_UNPRUNED_ACC:
        problems.append("%s: unpruned software accuracy %.2f%% is near chance"
                        % (label, r["unpruned_acc"]))


def attempted_failed(grids):
    attempted = sum(int(r["cells_total"]) for r in grids)
    ok = sum(1 for r in grids for c in r["cells"] if c[2])
    return attempted, attempted - ok


def gap_for(kind, rows_by_kind):
    """fast_gap_pp of one program seed: accuracy on the grid, NF on nf-sweep
    (whose fast twin runs untimed)."""
    if kind == "grid":
        header, rows = derive.parse_csv(rows_by_kind["grid"])
        return derive.fast_gap_pp(derive.fast_circuit_pairs(header, rows),
                                  "acc_mean")
    header, rows = derive.parse_csv(rows_by_kind["nf"])
    _, fast_rows = derive.parse_csv(rows_by_kind["nf-fast"])
    return derive.fast_gap_pp(derive.fast_circuit_pairs(header, rows + fast_rows),
                              "nf_mean")


# ---- the two kinds of run ----

def measure(workload, pseeds, seconds, problems):
    kind, workers, cells = WORKLOADS[workload]
    refs = {(k, p): reference_csv(k, p) for p in pseeds
            for k in ([kind, "nf-fast"] if kind == "nf" else [kind])}
    warm_up("%s-%d" % (workload, os.getpid()))
    grids, setups = [], []
    t0 = time.monotonic()
    i = 0
    while i < MIN_GRIDS or time.monotonic() - t0 < seconds:
        p = pseeds[i % len(pseeds)]
        r = run_grid("%s-%d-g%d" % (workload, os.getpid(), i), p, SPECS[kind],
                     workers)
        check_grid(r, refs[(kind, p)], "grid %d (seed %d)" % (i, p), problems)
        grids.append(r)
        setups.append(r["setup_s"])
        i += 1
    while len(setups) < MIN_SETUPS:
        p = pseeds[len(setups) % len(pseeds)]
        r = run_grid("%s-%d-s%d" % (workload, os.getpid(), len(setups)), p,
                     SPECS[kind], 0, setup_only=True)
        setups.append(r["setup_s"])

    gaps = []
    for p in pseeds:
        texts = {kind: next(r["csv_text"] for r in grids if r["pseed"] == p)}
        if kind == "nf":
            fast = run_grid("%s-%d-fast%d" % (workload, os.getpid(), p), p,
                            SPECS["nf-fast"], 0)
            check_grid(fast, refs[("nf-fast", p)], "nf fast twin (seed %d)" % p,
                       problems)
            texts["nf-fast"] = fast["csv_text"]
        gaps.append(gap_for(kind, texts))

    walls = [c[1] for r in grids for c in r["cells"] if c[2]]
    tail_p = derive.tail_percentile(cells * MIN_GRIDS)
    rows = []
    header = None
    for r in grids:
        header, rs = derive.parse_csv(r["csv_text"])
        rows += rs
    attempted, failed = attempted_failed(grids)
    values = {
        "cells_per_s": sum(r["cells_executed"] for r in grids) /
                       sum(r["sweep_s"] for r in grids),
        "setup_s": derive.median(setups),
        "cell_ms_p50": derive.percentile(walls, 50),
        "cell_ms_tail": derive.percentile(walls, tail_p),
        "cpu_s_per_cell": sum(r["cpu_s"] for r in grids) /
                          sum(r["cells_executed"] for r in grids),
        "peak_rss_mb": derive.median(
            [(r["rss_self_kb"] + r["workers_spawned"] * r["rss_child_max_kb"])
             / 1024.0 for r in grids]),
        "fast_gap_pp": sum(gaps) / len(gaps),
        "cells_ok_frac": 1.0 - failed / attempted,
        "solver_converged_frac": derive.converged_frac(header, rows),
    }
    notes = ["grids: %d (%s), setups: %d, cells timed: %d"
             % (len(grids), ",".join("s%d" % r["pseed"] for r in grids),
                len(setups), len(walls)),
             "cell_ms_tail is p%g of the pooled cells" % tail_p]
    return values, END_TO_END, attempted, failed, grids, notes


def warm_up(tag):
    """One untimed nf-only grid: on a 4-vCPU VM the first grid after an idle
    spell ran up to twice as slow at the same CPU time."""
    run_grid(tag + "-warm", PROGRAM_SEEDS[0], SPECS["nf"], 0)


def trace_files(path):
    return [path] + sorted(glob.glob(path + ".w*"))


def load_events(paths):
    events = []
    for i, p in enumerate(paths):
        events += derive.load_trace_events(read(p), source=i)
    return events


def traced(workload, pseeds, seconds, problems):
    """Untraced/traced pairs of the same grid for --seconds (at least one
    pair), then the probes; per-layer numbers come from the last traced grid
    and the probes."""
    kind, workers, _ = WORKLOADS[workload]
    p = pseeds[0]
    ref = reference_csv(kind, p)
    tag = "%s-%d" % (workload, os.getpid())
    tdir = os.path.join(RUNS, tag + "-trace")
    shutil.rmtree(tdir, ignore_errors=True)
    os.makedirs(tdir)
    warm_up(tag)
    pairs = []
    t0 = time.monotonic()
    while not pairs or time.monotonic() - t0 < seconds:
        k = len(pairs)
        u = run_grid("%s-u%d" % (tag, k), p, SPECS[kind], workers)
        check_grid(u, ref, "untraced grid %d" % k, problems)
        tpath = os.path.join(tdir, "trace%d.json" % k)
        t = run_grid("%s-t%d" % (tag, k), p, SPECS[kind], workers,
                     trace_path=tpath)
        check_grid(t, ref, "traced grid %d" % k, problems)
        mismatch = derive.csv_mismatch(u["csv_text"], t["csv_text"])
        if mismatch:
            problems.append("tracing changed the aggregate CSV: " + mismatch)
        pairs.append((u, t, tpath))

    probe_out = os.path.join(tdir, "probe.json")
    probe_trace = os.path.join(tdir, "probe_trace.json")
    run_proc([XSBENCH] + xs_flags(p, tdir) + GRID +
             ["--probe=" + probe_out, "--trace=" + probe_trace],
             os.path.join(tdir, "probe.log"), GRID_TIMEOUT_S)
    probe = json.loads(read(probe_out))
    events = load_events(trace_files(pairs[-1][2]))
    values = layer_metrics(pairs, events, probe, load_events([probe_trace]),
                           workers)
    notes = ["pairs: %d" % len(pairs)] + self_time_table(events)
    shutil.rmtree(tdir, ignore_errors=True)
    grids = [g for u, t, _ in pairs for g in (u, t)]
    attempted, failed = attempted_failed(grids)
    return values, PER_LAYER, attempted, failed, grids, notes


def layer_metrics(pairs, events, probe, probe_events, workers):
    u, t, _ = pairs[-1]
    stats = derive.span_stats(events)
    pstats = derive.span_stats(probe_events)
    counters = t["metrics"].get("counters", {})
    hists = t["metrics"].get("histograms", {})
    pcounters = probe["metrics"].get("counters", {})

    def total_us(s, name):
        return s.get(name, (0, 0.0, 0.0))[1]

    units = [e["end"] - e["ts"] for e in events if e["name"] in UNIT_SPANS]
    unit_us = sum(units)
    sweep_ms = t["sweep_s"] * 1000.0
    executors = t["executors"]
    cells = t["cells_executed"]
    cell_ms = sum(c[1] for c in t["cells"])
    firsts = derive.first_span_start(events, UNIT_SPANS)
    if workers:  # one executor per worker process (trace file)
        per_exec = {}
        for (source, _, _), ts in firsts.items():
            per_exec[source] = min(per_exec.get(source, ts), ts)
        firsts = per_exec

    v = {
        "sweep.busy_frac": derive.busy_frac(unit_us / 1000.0, sweep_ms, executors),
        "sweep.unit_ms_p50": derive.percentile(units, 50) / 1000.0,
        "sweep.unit_ms_tail": derive.percentile(
            units, derive.tail_percentile(len(units))) / 1000.0,
        "sweep.overhead_ms_per_cell": derive.overhead_ms_per_cell(
            sweep_ms, executors, cell_ms, cells),
        "sweep.worker_setup_s": derive.median(list(firsts.values())) / 1e6,
        "core.model_load_s": derive.median(
            [g["models_s"] for pair in pairs for g in pair[:2]]),
        "data.generate_s": derive.median(
            [g["data_s"] for pair in pairs for g in pair[:2]]),
        "xbar.sweeps_per_solve":
            counters["xbar.solve.sweeps"] / counters["xbar.solve.solves"],
        "xbar.unconverged_frac":
            counters["xbar.solve.unconverged"] / counters["xbar.solve.solves"],
        "xbar.solve_frac": hists["xbar.solve.ns"]["sum"] / 1000.0 / unit_us,
        "trace_overhead_frac": 1.0 - derive.median(
            [tr["cells_executed"] / tr["sweep_s"] for _, tr, _ in pairs]) /
            derive.median([un["cells_executed"] / un["sweep_s"]
                           for un, _, _ in pairs]),
    }
    # Compile / infer / conv attribution from the workload's own spans, or
    # from the probe's traced group where the workload has none (nf-sweep).
    if "compile_instances" in stats:
        s, instances, group_us = stats, cells, unit_us
    else:
        s = pstats
        instances = probe["probe_group_cells"]
        group_us = total_us(pstats, "cell_group")
    v["core.compile_ms_per_instance"] = total_us(s, "compile_instances") / 1000.0 / instances
    v["core.infer_ms_per_instance"] = total_us(s, "infer_repeat") / 1000.0 / instances
    v["core.compile_frac"] = total_us(s, "compile_instances") / group_us
    v["core.infer_frac"] = total_us(s, "infer_repeat") / group_us
    v["nn.conv_frac"] = total_us(s, "conv") / total_us(s, "forward_batched")
    s = stats if "measure_nf" in stats else pstats
    v["core.measure_nf_ms_per_cell"] = (total_us(s, "measure_nf") / 1000.0 /
                                        s["measure_nf"][0])
    fc = counters if counters.get("xbar.fast.tiles") else pcounters
    hits = fc.get("xbar.fast.calibration_hits", 0)
    builds = fc.get("xbar.fast.calibration_builds", 0)
    v["xbar.fast_calibration_hit_ratio"] = hits / (hits + builds)
    for name in PER_LAYER:
        if name not in v:
            v[name] = probe[name]
    return v


def self_time_table(events):
    stats = derive.span_stats(events)
    rows = sorted(stats.items(), key=lambda kv: -kv[1][2])[:12]
    return ["self time %-20s %8.1f ms  (%d spans, total %.1f ms)"
            % (name, st[2] / 1000.0, st[0], st[1] / 1000.0)
            for name, st in rows]


# ---- fingerprint, reporting ----

def source_digest():
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    h.update(read(os.path.join(ROOT, "CMakeLists.txt")).encode())
    return h.hexdigest()


def fingerprint(grids, load_before):
    cache = {}
    for line in read(os.path.join(CMAKE_DIR, "CMakeCache.txt")).splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            k, val = line.split("=", 1)
            cache[k.split(":", 1)[0]] = val
    cpu = next((l.split(":", 1)[1].strip() for l in
                read("/proc/cpuinfo").splitlines()
                if l.startswith("model name")), platform.processor())
    try:
        compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                   "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_count": int(grids[0]["worker_count"]),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "march_native": cache.get("XS_NATIVE_ARCH") == "ON" and
                        cache.get("XSB_HAS_MARCH_NATIVE") == "1",
        "xs_telemetry": cache.get("XS_TELEMETRY", "ON"),
        "git_commit": commit,
        "source_sha1": source_digest(),
        "loadavg_before": load_before,
        "loadavg_after": read("/proc/loadavg").split()[:3],
    }


def compare(path_a, path_b):
    a, b = json.loads(read(path_a)), json.loads(read(path_b))
    why = derive.comparable(a, b)
    if why:
        raise BenchError("refusing to compare: " + why)
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("%-36s %14.6g %14.6g  ×%.4f %s" % (name, ma["value"], mb["value"],
                                                ratio, ma["unit"]))


def update_reference():
    build()
    for p in PROGRAM_SEEDS:
        prime(p)
        for kind, spec in SPECS.items():
            r = run_grid("update-%s-s%d" % (kind, p), p, spec, 0)
            write(os.path.join(REF_DIR, "%s-s%d.csv" % (kind, p)), r["csv_text"])
    write(os.path.join(REF_DIR, "machine.json"),
          json.dumps(machine_key(), indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        if args.update_reference:
            update_reference()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        load_before = read("/proc/loadavg").split()[:3]
        build()
        first = PROGRAM_SEEDS[args.seed % len(PROGRAM_SEEDS)]
        pseeds = [first] + [p for p in PROGRAM_SEEDS if p != first]
        for p in pseeds:
            prime(p)
        problems = []
        run = traced if args.trace else measure
        values, units, attempted, failed, grids, notes = run(
            args.workload, pseeds, args.seconds, problems)
    except BenchError as e:
        log("benchmark error: %s" % e)
        return 2

    fp = fingerprint(grids, load_before)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "program_seeds": pseeds,
              "fingerprint": fp, "metrics": metrics, "problems": problems}
    write(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace)),
          json.dumps(record, indent=1) + "\n")
    print("workload %s, seed %d (program seeds %s), trace %d"
          % (args.workload, args.seed, pseeds, args.trace))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for n in notes:
        print(n)
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for pr in problems:
        print("CHECK FAILED: " + pr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
