#!/usr/bin/env bash
# CI entry point: a Release build+test job with a bench smoke, a
# compile-only build of the paper-grid benchmark program
# (perfbench/xsbench), end-to-end sweep smokes (in-process, --workers with
# an injected crash, an nf-only grid and a grid over every optional step of
# the tile ladder, each in process and through --workers, and multi-host
# through sweep_serve), one run of each of the twelve figure/table sweep
# drivers and, last, a bench regression gate, so a gate
# failure on a slow machine still leaves every smoke's result behind;
# plus a Debug job with Address- and UB-sanitizers over the unit-labeled
# tests, and a ThreadSanitizer job over the tests that run the library's
# concurrency. Every job compiles with -Wall -Wextra -Werror (XS_WERROR)
# and uses ccache when available (the GitHub workflow caches its
# directory). The release job builds for the host CPU
# (-march=native: the AVX-512 kernels on an AVX-512 host); the sanitize job
# builds portable code (XS_NATIVE_ARCH=OFF), so the non-AVX-512 paths
# compile under -Werror and run under the sanitizers on every host. Run
# from anywhere.
#
# Usage: ci.sh [release|sanitize|tsan|all]   (default: all)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")" && pwd)"
mode="${1:-all}"
jobs="$(nproc)"

cmake_common=(-DXS_WERROR=ON)
if command -v ccache >/dev/null 2>&1; then
  cmake_common+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_release() {
  echo "=== Release build + ctest ==="
  cmake -B "$repo_root/build-release" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Release "${cmake_common[@]}"
  cmake --build "$repo_root/build-release" -j"$jobs"
  ctest --test-dir "$repo_root/build-release" --output-on-failure -j"$jobs"
  # The paper-grid benchmark builds its own copy of the library plus
  # xsbench; compiling it here (nothing runs, no model trains) catches a
  # library change that breaks a name the benchmark calls.
  echo "=== perfbench xsbench build (compile only) ==="
  cmake -S "$repo_root/perfbench" -B "$repo_root/build-release/perfbench" \
    -DCMAKE_BUILD_TYPE=Release "${cmake_common[@]}"
  cmake --build "$repo_root/build-release/perfbench" -j"$jobs" \
    --target xsbench
  # Bench smoke: one-ish iteration per benchmark so the bench targets (and
  # the engine/evaluator paths they drive) can't bit-rot unnoticed.
  if [[ -x "$repo_root/build-release/bench_micro" ]]; then
    echo "=== bench smoke (min_time ~1 iteration) ==="
    "$repo_root/build-release/bench_micro" --benchmark_min_time=0.000001
  fi
  run_sweep_smoke
  run_nf_smoke
  run_ladder_smoke
  run_service_smoke
  run_driver_smoke
  if [[ -x "$repo_root/build-release/bench_micro" ]]; then
    run_bench_gate
  fi
}

# Sweep smoke: a dry-run plus one tiny circuit/fast grid through the real
# sweep_runner driver, so the backend axis, the tile ladder, per-cell
# budgeting, and manifest/CSV plumbing can't bit-rot unnoticed. The grid
# runs unpruned, C/F- and XCS-pruned models, so every byte compare below
# also reaches the row-sparse conv kernel. On a host with two or more CPUs
# the grid reruns under `taskset -c 0` (a one-worker pool) and must write
# the same CSV. A second
# run of the same grid with full telemetry armed (a chrome trace, a
# metrics snapshot, the progress heartbeat) must reproduce the
# plain run's CSV byte for byte — observability must never perturb results
# — and its metrics/trace JSONs must pass bench/check_metrics.py, with at
# least one sample of the runner's sweep.shard_idle.ns histogram. A further
# --workers=2 run (the service's coordinator dealing to an in-process agent
# over a socketpair) with an injected worker crash (XS_FAULT) must report
# at least one worker restart and one cell retry — proof the fault fired —
# and reproduce the single-process CSV byte for byte, while still emitting
# a merged, validatable metrics snapshot whose sweep.cells.done matches
# the ok records of its manifest. Lane-batched groups against one-cell
# execution of the same 4-repeat grid points are byte-compared by the
# service smoke below (its agents run one cell at a time).
run_sweep_smoke() {
  if [[ ! -x "$repo_root/build-release/sweep_runner" ]]; then
    return 0
  fi
  echo "=== sweep smoke (dry-run + one circuit/fast cell each) ==="
  local smoke_dir="$repo_root/build-release/sweep-smoke"
  rm -rf "$smoke_dir"
  local smoke_flags=(--width=0.0625 --train-count=96 --test-count=48
    --epochs=1 --batch=16 --sizes=16 --sweep-repeats=1
    --prune=none,cf:0.8,xcs:0.8 --backends=circuit,fast --out-dir="$smoke_dir"
    --cache-dir="$smoke_dir/models")
  "$repo_root/build-release/sweep_runner" "${smoke_flags[@]}" --dry-run
  "$repo_root/build-release/sweep_runner" "${smoke_flags[@]}" \
    --cell-budget-ms=120000
  if ! grep -q ',fast,' "$smoke_dir/sweep.csv"; then
    echo "sweep smoke: aggregate CSV is missing the backend=fast row" >&2
    return 1
  fi
  # The thread pool is as wide as the affinity mask: a rerun confined to
  # one CPU runs on a one-worker pool and must write the same CSV.
  if command -v taskset >/dev/null 2>&1 && [[ "$jobs" -ge 2 ]]; then
    echo "=== one-CPU sweep smoke (taskset -c 0) ==="
    taskset -c 0 "$repo_root/build-release/sweep_runner" "${smoke_flags[@]}" \
      --cell-budget-ms=120000 --csv=sweep_cpu0.csv --manifest=sweep_cpu0.jsonl
    if ! cmp "$smoke_dir/sweep.csv" "$smoke_dir/sweep_cpu0.csv"; then
      echo "sweep smoke: the one-CPU run's CSV differs from the plain run" >&2
      return 1
    fi
  fi
  echo "=== telemetry sweep smoke (metrics + trace + heartbeat) ==="
  "$repo_root/build-release/sweep_runner" \
    "${smoke_flags[@]}" --cell-budget-ms=120000 --progress-sec=1 \
    --metrics-out="$smoke_dir/metrics.json" --trace="$smoke_dir/trace.json" \
    --csv=sweep_telemetry.csv --manifest=sweep_telemetry.jsonl
  if ! cmp "$smoke_dir/sweep.csv" "$smoke_dir/sweep_telemetry.csv"; then
    echo "sweep smoke: telemetry-enabled CSV differs from the plain run" >&2
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 "$repo_root/bench/check_metrics.py" --clean \
      "$smoke_dir/metrics.json" "$smoke_dir/trace.json" \
      "$smoke_dir/sweep_telemetry.jsonl"
    # The in-process runner's idle tail: one sample per shard.
    python3 - "$smoke_dir/metrics.json" <<'PY'
import json, sys
h = json.load(open(sys.argv[1]))["histograms"].get("sweep.shard_idle.ns")
if not h or h["count"] < 1:
    sys.exit("sweep smoke: metrics.json has no sweep.shard_idle.ns sample")
PY
  fi
  echo "=== supervised sweep smoke (2 workers, injected crash) ==="
  XS_FAULT="crash@cell:1" "$repo_root/build-release/sweep_runner" \
    "${smoke_flags[@]}" --workers=2 --cell-budget-ms=120000 \
    --csv=sweep_supervised.csv --manifest=sweep_supervised.jsonl \
    --metrics-out="$smoke_dir/metrics_supervised.json" |
    tee "$smoke_dir/supervised.out"
  # The CSV compare alone also passes if the crash never fired.
  if ! grep -Eq '^supervision: [1-9][0-9]* worker restart.* [1-9][0-9]* cell retr' \
      "$smoke_dir/supervised.out"; then
    echo "sweep smoke: the injected crash did not restart a worker and retry its cell" >&2
    return 1
  fi
  if ! cmp "$smoke_dir/sweep.csv" "$smoke_dir/sweep_supervised.csv"; then
    echo "sweep smoke: supervised CSV differs from the single-process run" >&2
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    # No --clean: the injected crash loses that worker's executed-count.
    python3 "$repo_root/bench/check_metrics.py" \
      --manifest="$smoke_dir/sweep_supervised.jsonl" \
      "$smoke_dir/metrics_supervised.json"
  fi
}

# NF smoke: an nf-only grid (paper Fig. 3(d) measurement mode) over the
# sweep smoke's three models, from its model cache, in process and again
# with --workers=2. In process, cells that share a crossbar mapping run as
# one unit on one MappingPlan; the coordinator deals one cell at a time, so
# each worker measures every cell alone. The two CSVs must match byte for
# byte, and the workers run's metrics must pass bench/check_metrics.py
# against its manifest.
run_nf_smoke() {
  if [[ ! -x "$repo_root/build-release/sweep_runner" ]]; then
    return 0
  fi
  echo "=== nf-only sweep smoke (in-process units vs 2 workers) ==="
  local smoke_dir="$repo_root/build-release/sweep-smoke"
  local nf_flags=(--width=0.0625 --train-count=96 --test-count=48
    --epochs=1 --batch=16 --nf-only=true --sizes=16,32
    --parasitic-scales=0.5,1,2,4 --sweep-repeats=1
    --prune=none,cf:0.8,xcs:0.8 --backends=circuit,fast
    --out-dir="$smoke_dir" --cache-dir="$smoke_dir/models")
  "$repo_root/build-release/sweep_runner" "${nf_flags[@]}" \
    --csv=nf.csv --manifest=nf.jsonl
  "$repo_root/build-release/sweep_runner" "${nf_flags[@]}" --workers=2 \
    --csv=nf_workers.csv --manifest=nf_workers.jsonl \
    --metrics-out="$smoke_dir/metrics_nf_workers.json"
  if ! cmp "$smoke_dir/nf.csv" "$smoke_dir/nf_workers.csv"; then
    echo "nf smoke: the workers' CSV differs from the in-process run" >&2
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 "$repo_root/bench/check_metrics.py" \
      --manifest="$smoke_dir/nf_workers.jsonl" \
      "$smoke_dir/metrics_nf_workers.json"
  fi
}

# Ladder smoke: one grid that reaches every optional step of the tile
# ladder (xbar/pipeline.h) — write quantization, stuck-at faults, column
# compensation, and the ideal backend (no parasitic step) beside circuit
# and fast — from the sweep smoke's model cache, in process and again with
# --workers=2. The two CSVs must match byte for byte, and every ideal row
# must read an nf_mean of exactly 0.
run_ladder_smoke() {
  if [[ ! -x "$repo_root/build-release/sweep_runner" ]]; then
    return 0
  fi
  echo "=== ladder sweep smoke (quantize, faults, compensate, ideal) ==="
  local smoke_dir="$repo_root/build-release/sweep-smoke"
  local ladder_flags=(--width=0.0625 --train-count=96 --test-count=48
    --epochs=1 --batch=16 --prune=none --sizes=16
    --backends=circuit,fast,ideal --quant-levels=0,16
    --faults=0:0,0.01:0.001 --mitigations=none,comp --sweep-repeats=2
    --out-dir="$smoke_dir" --cache-dir="$smoke_dir/models")
  "$repo_root/build-release/sweep_runner" "${ladder_flags[@]}" \
    --cell-budget-ms=120000 --csv=ladder.csv --manifest=ladder.jsonl
  "$repo_root/build-release/sweep_runner" "${ladder_flags[@]}" --workers=2 \
    --cell-budget-ms=120000 --csv=ladder_workers.csv \
    --manifest=ladder_workers.jsonl
  if ! cmp "$smoke_dir/ladder.csv" "$smoke_dir/ladder_workers.csv"; then
    echo "ladder smoke: the workers' CSV differs from the in-process run" >&2
    return 1
  fi
  if ! awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
      $col["backend"] == "ideal" { n++; if ($col["nf_mean"] != "0.000000") bad++ }
      END { exit !(n > 0 && bad == 0) }' "$smoke_dir/ladder.csv"; then
    echo "ladder smoke: no ideal row, or one with a non-zero nf_mean" >&2
    return 1
  fi
}

# Multi-host service smoke: the same tiny grid (a few more repeats, so a
# severed agent has a live sweep to rejoin) through sweep_serve with two
# loopback agents, one of them dropping its connection instead of sending
# its first result (XS_FAULT=net-disconnect@net-send-ack:0). The
# coordinator must re-deal the lost cell, dedup any late duplicate ack,
# and produce an aggregate CSV byte-identical to a single-process run of
# the same grid — the service's core invariant (DESIGN.md §11) — while
# its merged per-host metrics snapshot passes bench/check_metrics.py,
# cross-checked against the manifest like the supervised smoke's.
run_service_smoke() {
  if [[ ! -x "$repo_root/build-release/sweep_serve" ]]; then
    return 0
  fi
  echo "=== multi-host service smoke (2 loopback agents, injected disconnect) ==="
  local smoke_dir="$repo_root/build-release/sweep-smoke"
  local grid_flags=(--width=0.0625 --train-count=96 --test-count=48
    --epochs=1 --batch=16 --sizes=16 --sweep-repeats=4
    --prune=none,cf:0.8,xcs:0.8 --backends=circuit,fast --out-dir="$smoke_dir"
    --cache-dir="$smoke_dir/models")
  # Single-process reference of the exact grid (models come from the sweep
  # smoke's cache, so this is a few seconds of cells).
  "$repo_root/build-release/sweep_runner" "${grid_flags[@]}" \
    --cell-budget-ms=120000 --csv=service_ref.csv \
    --manifest=service_ref.jsonl
  local port=$(( 20000 + RANDOM % 20000 ))
  "$repo_root/build-release/sweep_serve" "${grid_flags[@]}" --port="$port" \
    --heartbeat-ms=250 --cell-budget-ms=120000 \
    --csv=service.csv --manifest=service.jsonl \
    --metrics-out="$smoke_dir/metrics_service.json" &
  local serve_pid=$!
  XS_FAULT="net-disconnect@net-send-ack:0" \
    "$repo_root/build-release/sweep_runner" "${grid_flags[@]}" \
    --agent="127.0.0.1:$port" --workers=1 --agent-backoff-ms=50 \
    --agent-reconnects=8 &
  local agent0_pid=$!
  "$repo_root/build-release/sweep_runner" "${grid_flags[@]}" \
    --agent="127.0.0.1:$port" --workers=1 --agent-backoff-ms=50 \
    --agent-reconnects=8 &
  local agent1_pid=$!
  wait "$serve_pid"
  wait "$agent1_pid"
  # The severed agent usually rejoins mid-sweep and drains cleanly, but on
  # a loaded machine the sweep can finish inside its reconnect window and
  # it gives up against a closed port — either way the invariants below
  # must hold, so its exit code is informational only.
  if ! wait "$agent0_pid"; then
    echo "(faulted agent exited nonzero: sweep drained during its reconnect)"
  fi
  if ! cmp "$smoke_dir/service_ref.csv" "$smoke_dir/service.csv"; then
    echo "service smoke: multi-host CSV differs from the single-process run" >&2
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    # No --clean: the injected disconnect can strand one agent's counts.
    python3 "$repo_root/bench/check_metrics.py" \
      --manifest="$smoke_dir/service.jsonl" \
      "$smoke_dir/metrics_service.json"
  fi
}

# Driver smoke: each of the twelve sweep drivers (the bench_fig*,
# bench_table1 and bench_ablation figure drivers, and the mitigation_demo
# and parasitic_sweep examples) runs once at the sweep smoke's scale, all
# sharing one model cache, and must exit 0 and write its figure CSV with at
# least one row. A flag no code reads must fail before anything runs:
# bench_fig3a --shards=2 exits 1. The step reports its time.
run_driver_smoke() {
  local bin="$repo_root/build-release"
  if [[ ! -x "$bin/bench_fig3a" || ! -x "$bin/mitigation_demo" ]]; then
    return 0
  fi
  echo "=== driver smoke (the twelve sweep drivers, one run each) ==="
  local smoke_dir="$bin/driver-smoke"
  rm -rf "$smoke_dir"
  mkdir -p "$smoke_dir"
  local driver_flags=(--width=0.0625 --train-count=96 --test-count=48
    --epochs=1 --batch=16 --sizes=16 --sweep-repeats=1
    --out-dir="$smoke_dir" --cache-dir="$smoke_dir/models")
  local start=$SECONDS driver csv
  while read -r driver csv; do
    if ! "$bin/$driver" "${driver_flags[@]}" > "$smoke_dir/$driver.log" 2>&1; then
      cat "$smoke_dir/$driver.log" >&2
      echo "driver smoke: $driver failed" >&2
      return 1
    fi
    if [[ ! -f "$smoke_dir/$csv" || $(wc -l < "$smoke_dir/$csv") -lt 2 ]]; then
      echo "driver smoke: $driver wrote no rows to $csv" >&2
      return 1
    fi
    echo "$driver: $csv"
  done <<'DRIVERS'
bench_fig3a fig3a_vgg11_cifar10.csv
bench_fig3b fig3b_vgg11_cifar10_sparsity.csv
bench_fig3c fig3c_vgg16_cifar10.csv
bench_fig3d fig3d_nf_vs_size.csv
bench_fig3f_heatmap fig3f_rearrange_nf.csv
bench_fig4ab fig4ab_rearrangement_cifar10.csv
bench_fig4cd fig4cd_rearrangement_cifar100.csv
bench_fig4ef fig4ef_wct.csv
bench_table1 table1.csv
bench_ablation ablation.csv
mitigation_demo mitigation_demo.csv
parasitic_sweep parasitic_sweep.csv
DRIVERS
  local rc=0
  "$bin/bench_fig3a" "${driver_flags[@]}" --shards=2 || rc=$?
  if [[ "$rc" -ne 1 ]]; then
    echo "driver smoke: bench_fig3a --shards=2 exited $rc, not 1" >&2
    return 1
  fi
  echo "driver smoke: $((SECONDS - start)) s"
}

# Bench regression gate: measured runs (min over 3 repetitions) diffed
# against bench/BENCH_micro.baseline.json; any benchmark more than
# XS_BENCH_TOLERANCE (default 15) percent slower fails the job. A failing
# gate retries with fresh runs and re-gates on the min across all runs —
# transient machine noise clears on retry, a real regression stays slow in
# every run. Refresh the baseline (commit the last BENCH_gate_run*.json as
# bench/BENCH_micro.baseline.json) when a PR intentionally shifts
# performance or the reference machine changes.
run_bench_gate() {
  if ! command -v python3 >/dev/null 2>&1; then
    echo "=== bench gate skipped (no python3) ==="
    return 0
  fi
  echo "=== bench regression gate ==="
  local runs=()
  local attempt
  for attempt in 1 2 3; do
    local out="$repo_root/build-release/BENCH_gate_run$attempt.json"
    "$repo_root/build-release/bench_micro" \
      --benchmark_min_time=0.05 --benchmark_repetitions=3 \
      --benchmark_out="$out" --benchmark_out_format=json >/dev/null
    runs+=("$out")
    if python3 "$repo_root/bench/check_regression.py" "${runs[@]}" \
        --baseline "$repo_root/bench/BENCH_micro.baseline.json" \
        --tolerance "${XS_BENCH_TOLERANCE:-15}"; then
      return 0
    fi
    echo "--- gate attempt $attempt failed; retrying with a fresh run ---"
  done
  echo "bench regression gate failed after 3 attempts" >&2
  return 1
}

run_sanitize() {
  echo "=== Debug + ASan/UBSan build + ctest (unit label) ==="
  cmake -B "$repo_root/build-asan" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Debug -DXS_SANITIZE=ON -DXS_NATIVE_ARCH=OFF \
    -DXS_BUILD_BENCH=OFF -DXS_BUILD_EXAMPLES=OFF "${cmake_common[@]}"
  cmake --build "$repo_root/build-asan" -j"$jobs"
  # Integration-labeled tests are minutes-long under sanitizers; they are
  # fully covered by the Release job.
  ctest --test-dir "$repo_root/build-asan" --output-on-failure -j"$jobs" \
    -L unit
}

# ThreadSanitizer job: a RelWithDebInfo build with -fsanitize=thread of
# the tests that run the library's concurrency — the worker pool and its
# nested dispatches, pooled dataset rendering, the metrics shards, the tile
# ladder and the engine's lane loop on the pool, the evaluator, and sweep
# shards. A process that saw any TSan report exits 66, so a data race fails
# its test.
run_tsan() {
  echo "=== RelWithDebInfo + ThreadSanitizer build + ctest (concurrency tests) ==="
  local tests=(util_parallel_test util_metrics_test data_test
    xbar_pipeline_test nn_infer_test core_evaluator_test
    core_repeat_batch_test sweep_runner_test)
  cmake -B "$repo_root/build-tsan" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
    -DXS_BUILD_BENCH=OFF -DXS_BUILD_EXAMPLES=OFF "${cmake_common[@]}"
  cmake --build "$repo_root/build-tsan" -j"$jobs" --target "${tests[@]}"
  local regex
  regex="^($(IFS='|'; echo "${tests[*]}"))\$"
  TSAN_OPTIONS="exitcode=66 ${TSAN_OPTIONS:-}" \
    ctest --test-dir "$repo_root/build-tsan" --output-on-failure -j"$jobs" \
    -R "$regex"
}

case "$mode" in
  release) run_release ;;
  sanitize) run_sanitize ;;
  tsan) run_tsan ;;
  all) run_release; run_sanitize; run_tsan ;;
  *) echo "usage: $0 [release|sanitize|tsan|all]" >&2; exit 2 ;;
esac
echo "CI OK"
