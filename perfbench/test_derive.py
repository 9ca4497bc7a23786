"""Tests for the benchmark's own derivations (derive.py) and for the metric
list run.py emits matching BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import derive  # noqa: E402
import run  # noqa: E402


def event(name, ts, dur, tid=1, source=0):
    return {"name": name, "ts": float(ts), "end": float(ts + dur),
            "thread": (source, 1, tid)}


CSV_HEADER = ("variant,classes,method,sparsity,mitigation,backend,xbar_size,"
              "sigma,parasitic_scale,p_stuck_min,p_stuck_max,repeats,"
              "software_acc,acc_mean,acc_std,nf_mean,nf_std,energy_pj,tiles,"
              "solver_failures")


def csv_row(method, backend, size, acc, nf="0.010000", failures=0):
    return ("vgg11,10,%s,0,none,%s,%d,0.1,1,0,0,4,60.0000,%s,1.0000,%s,"
            "0.000001,100.000,50,%d" % (method, backend, size, acc, nf, failures))


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_step_with_ten_beyond(self):
        self.assertEqual(derive.tail_percentile(216), 95.0)   # 10.8 beyond
        self.assertEqual(derive.tail_percentile(1000), 99.0)  # exactly 10
        self.assertEqual(derive.tail_percentile(999), 98.0)   # 9.99 at p99
        self.assertEqual(derive.tail_percentile(10000), 99.9)
        self.assertEqual(derive.tail_percentile(144), 90.0)
        self.assertEqual(derive.tail_percentile(20), 50.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(derive.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(derive.percentile(values, 95), 95)
        self.assertEqual(derive.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(derive.percentile([7], 99.9), 7)
        # p95 of 216 samples leaves 10 strictly above it.
        samples = list(range(216))
        p = derive.percentile(samples, derive.tail_percentile(len(samples)))
        self.assertGreaterEqual(sum(1 for s in samples if s > p), 10)


class SweepArithmetic(unittest.TestCase):
    def test_busy_frac(self):
        # 4 executors × 1000 ms, 3600 ms inside units.
        self.assertAlmostEqual(derive.busy_frac(3600.0, 1000.0, 4), 0.9)

    def test_overhead_per_cell(self):
        # 2 executors × 500 ms = 1000 ms, 900 ms in 10 cells → 10 ms each.
        self.assertAlmostEqual(
            derive.overhead_ms_per_cell(500.0, 2, 900.0, 10), 10.0)

    def test_busy_frac_and_overhead_from_a_synthetic_trace(self):
        events = [event("cell_group", 0, 400, tid=1),
                  event("cell_group", 400, 500, tid=1),
                  event("cell_group", 50, 800, tid=2)]
        unit_ms = sum(e["end"] - e["ts"] for e in events) / 1000.0
        self.assertAlmostEqual(derive.busy_frac(unit_ms, 1.0, 2), 0.85)
        firsts = derive.first_span_start(events, ("cell_group",))
        self.assertEqual(sorted(firsts.values()), [0.0, 50.0])


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_direct_children(self):
        events = [
            event("cell_group", 0, 100),
            event("compile_instances", 10, 30),
            event("infer_repeat", 50, 40),
            event("forward_batched", 52, 30),
            event("conv", 53, 20),
            event("conv", 74, 5),
            # Another thread: same names, never a child of the spans above.
            event("infer_repeat", 20, 60, tid=2),
        ]
        stats = derive.span_stats(events)
        self.assertEqual(stats["cell_group"], (1, 100.0, 30.0))
        self.assertEqual(stats["compile_instances"], (1, 30.0, 30.0))
        self.assertEqual(stats["infer_repeat"], (2, 100.0, 70.0))
        self.assertEqual(stats["forward_batched"], (1, 30.0, 5.0))
        self.assertEqual(stats["conv"], (2, 25.0, 25.0))

    def test_back_to_back_spans_are_siblings(self):
        events = [event("cell", 0, 10), event("cell", 10, 10)]
        self.assertEqual(derive.span_stats(events)["cell"], (2, 20.0, 20.0))

    def test_trace_file_parsing_keeps_complete_events(self):
        text = json.dumps({"traceEvents": [
            {"name": "cell", "ph": "X", "ts": 1.5, "dur": 2.0, "pid": 7, "tid": 3},
            {"name": "meta", "ph": "M", "pid": 7, "tid": 3}]})
        events = derive.load_trace_events(text, source=2)
        self.assertEqual(events, [{"name": "cell", "ts": 1.5, "end": 3.5,
                                   "thread": (2, 7, 3)}])


class FastCircuitPairing(unittest.TestCase):
    def rows(self):
        return derive.parse_csv("\n".join([
            CSV_HEADER,
            csv_row("unpruned", "circuit", 16, "50.0000", nf="0.010000"),
            csv_row("unpruned", "fast", 16, "49.0000", nf="0.012000"),
            csv_row("unpruned", "circuit", 32, "40.0000", nf="0.020000"),
            csv_row("unpruned", "fast", 32, "43.0000", nf="0.019000"),
            csv_row("cf", "circuit", 16, "30.0000"),  # no fast twin
        ]) + "\n")

    def test_pairs_match_every_axis_but_the_backend(self):
        header, rows = self.rows()
        pairs = derive.fast_circuit_pairs(header, rows)
        self.assertEqual([(c["xbar_size"], c["backend"], f["backend"])
                          for c, f in pairs],
                         [("16", "circuit", "fast"), ("32", "circuit", "fast")])

    def test_gap_is_mean_absolute_difference_in_points(self):
        header, rows = self.rows()
        pairs = derive.fast_circuit_pairs(header, rows)
        self.assertAlmostEqual(derive.fast_gap_pp(pairs, "acc_mean"), 2.0)
        self.assertAlmostEqual(derive.fast_gap_pp(pairs, "nf_mean"), 0.15)

    def test_no_pairs_is_an_error(self):
        header, rows = derive.parse_csv(
            CSV_HEADER + "\n" + csv_row("cf", "circuit", 16, "30.0000") + "\n")
        with self.assertRaises(ValueError):
            derive.fast_gap_pp(derive.fast_circuit_pairs(header, rows), "acc_mean")

    def test_converged_frac(self):
        header, rows = derive.parse_csv("\n".join([
            CSV_HEADER, csv_row("unpruned", "circuit", 16, "1", failures=20),
            csv_row("unpruned", "fast", 16, "1")]) + "\n")
        # 2 rows × 50 tiles × 4 repeats = 400 solves, 20 failed.
        self.assertAlmostEqual(derive.converged_frac(header, rows), 0.95)


class CsvComparison(unittest.TestCase):
    base = "\n".join([CSV_HEADER, csv_row("unpruned", "circuit", 16, "50.0000"),
                      csv_row("unpruned", "fast", 16, "49.0000")]) + "\n"

    def test_identical_bytes_pass(self):
        self.assertIsNone(derive.csv_mismatch(self.base, self.base))

    def test_names_the_differing_columns(self):
        changed = self.base.replace("49.0000", "48.0000")
        msg = derive.csv_mismatch(self.base, changed)
        self.assertIn("acc_mean (rows 2)", msg)
        self.assertNotIn("nf_mean", msg)

    def test_row_count_and_header(self):
        fewer = "\n".join(self.base.splitlines()[:2]) + "\n"
        self.assertIn("row count differs: 2 vs 1",
                      derive.csv_mismatch(self.base, fewer))
        renamed = self.base.replace("acc_mean", "accuracy", 1)
        self.assertIn("header differs", derive.csv_mismatch(self.base, renamed))

    def test_formatting_only_difference_is_still_a_mismatch(self):
        crlf = self.base.replace("\n", "\r\n")
        self.assertIn("outside the parsed cells",
                      derive.csv_mismatch(self.base, crlf))


class Manifest(unittest.TestCase):
    def test_cells_and_status(self):
        text = "\n".join([
            '{"sweep_config":"w0.125/cold"}',
            '{"cell":"a/r0","accuracy":50,"wall_ms":12.5}',
            '{"cell":"a/r1","status":"failed","reason":"crash","attempts":3}',
            '{"metrics":{"counters":{}}}'])
        self.assertEqual(derive.manifest_cells(text),
                         [("a/r0", 12.5, True), ("a/r1", 0.0, False)])


class Comparability(unittest.TestCase):
    def test_refuses_different_worker_counts(self):
        a = {"fingerprint": {"worker_count": 4}}
        self.assertIsNone(derive.comparable(a, {"fingerprint": {"worker_count": 4}}))
        self.assertIn("worker_count differs",
                      derive.comparable(a, {"fingerprint": {"worker_count": 2}}))
        self.assertIsNotNone(derive.comparable(a, {}))


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_and_units_match_run_py(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in bench["workloads"]},
                             set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
