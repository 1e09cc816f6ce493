#!/usr/bin/env python3
"""bench/compare_bench.py's rule, checked on small fixture reports.

Each case writes a current and a baseline report, runs the script on them
and asserts its exact exit code: 0 pass, 1 a record failed, 2 malformed.

  $ python3 tests/bench/compare_bench_test.py bench/compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None  # path to compare_bench.py, from argv


def gate(name, values, median, mad, better="higher", bar=2.0, identical=True):
    return {"name": name, "layer": "sim", "unit": "x", "better": better, "values": values,
            "median": median, "mad": mad, "cpu_seconds": 1.0, "cpu_per_wall": 1.0,
            "bar": bar, "identical": identical}


def gates(*records):
    return {"host": {"nproc": 4, "compiler": "GNU", "build_type": "Release"},
            "gates": list(records)}


def gbench(rates):
    """google-benchmark JSON with repetitions: {run_name: [items_per_second]}."""
    rows = []
    for name, values in rates.items():
        for i, v in enumerate(values):
            rows.append({"name": name, "run_name": name, "run_type": "iteration",
                         "repetition_index": i, "items_per_second": v})
        rows.append({"name": name + "_median", "run_name": name, "run_type": "aggregate",
                     "aggregate_name": "median", "items_per_second": max(values)})
    return {"context": {"num_cpus": 4}, "benchmarks": rows}


class CompareBench(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def run_script(self, current, baseline):
        paths = []
        for name, report in (("current.json", current), ("baseline.json", baseline)):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                if isinstance(report, str):
                    f.write(report)
                else:
                    json.dump(report, f)
            paths.append(path)
        return subprocess.run([sys.executable, SCRIPT] + paths,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE).returncode

    def test_pass(self):
        base = gates(gate("a", [4.0, 4.1, 3.9, 4.0, 4.2], 4.0, 0.1),
                     gate("b", [1.02] * 5, 1.02, 0.01, better="lower", bar=1.05))
        cur = gates(gate("a", [3.8, 3.9, 3.7, 3.8, 4.0], 3.8, 0.1),
                    gate("b", [1.03] * 5, 1.03, 0.01, better="lower", bar=1.05))
        self.assertEqual(self.run_script(cur, base), 0)

    def test_missing_record(self):
        base = gates(gate("a", [4.0] * 5, 4.0, 0.1), gate("b", [4.0] * 5, 4.0, 0.1))
        cur = gates(gate("a", [4.0] * 5, 4.0, 0.1))
        self.assertEqual(self.run_script(cur, base), 1)

    def test_identity_false(self):
        base = gates(gate("a", [4.0] * 5, 4.0, 0.1))
        cur = gates(gate("a", [4.0] * 5, 4.0, 0.1, identical=False))
        self.assertEqual(self.run_script(cur, base), 1)

    def test_bar_missed(self):
        base = gates(gate("b", [1.02] * 5, 1.02, 0.01, better="lower", bar=1.05))
        cur = gates(gate("b", [1.06] * 5, 1.06, 0.01, better="lower", bar=1.05))
        self.assertEqual(self.run_script(cur, base), 1)

    def test_drop_beyond_band(self):
        base = gates(gate("a", [10.0, 10.1, 9.9, 10.0, 10.2], 10.0, 0.1))
        cur = gates(gate("a", [7.0, 7.1, 6.9, 7.0, 7.2], 7.0, 0.1))
        self.assertEqual(self.run_script(cur, base), 1)

    def test_drop_inside_wide_mad_band(self):
        base = gates(gate("a", [10.0, 13.0, 7.0, 10.0, 12.0], 10.0, 2.0))
        cur = gates(gate("a", [7.0, 9.0, 5.0, 7.0, 8.0], 7.0, 1.0))
        self.assertEqual(self.run_script(cur, base), 0)

    def test_gbench_repetitions(self):
        base = gbench({"BM_X/1": [100.0, 101.0, 99.0, 100.0, 102.0],
                       "BM_Y": [50.0, 50.5, 49.5, 50.0, 50.2]})
        self.assertEqual(self.run_script(base, base), 0)
        # Aggregate rows are not repetitions: a report whose aggregates alone
        # collapsed still passes.
        aggregates_only = gbench({"BM_X/1": [100.0, 101.0, 99.0, 100.0, 102.0],
                                  "BM_Y": [50.0, 50.5, 49.5, 50.0, 50.2]})
        for row in aggregates_only["benchmarks"]:
            if row["run_type"] == "aggregate":
                row["items_per_second"] *= 0.1
        self.assertEqual(self.run_script(aggregates_only, base), 0)
        dropped = gbench({"BM_X/1": [70.0, 70.5, 69.5, 70.0, 71.0],
                          "BM_Y": [50.0, 50.5, 49.5, 50.0, 50.2]})
        self.assertEqual(self.run_script(dropped, base), 1)
        missing = gbench({"BM_X/1": [100.0, 101.0, 99.0, 100.0, 102.0]})
        self.assertEqual(self.run_script(missing, base), 1)

    def test_malformed(self):
        base = gates(gate("a", [4.0] * 5, 4.0, 0.1))
        self.assertEqual(self.run_script("{not json", base), 2)
        self.assertEqual(self.run_script({"cases": []}, base), 2)
        no_median = gates(gate("a", [4.0] * 5, 4.0, 0.1))
        del no_median["gates"][0]["median"]
        self.assertEqual(self.run_script(no_median, base), 2)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: compare_bench_test.py PATH/TO/compare_bench.py")
    SCRIPT = sys.argv.pop(1)
    unittest.main()
