#!/usr/bin/env python3
"""Self-test for check_bench.py over synthetic baseline/candidate pairs.

A checker that always passed would let every bench regression through, so
each rule the gate relies on is pinned here: identical reports pass, a
row worse than the threshold in its `better` direction fails, a missing
baseline row fails, and wall rows are gated only on matching machines.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402

MACHINE = {"hardware_threads": 4, "avx2": True, "default_backend": "avx2"}
OTHER_MACHINE = {"hardware_threads": 1, "avx2": True,
                 "default_backend": "avx2"}


def row(suite, case, metric, better, kind, value, unit="s"):
    return {"suite": suite, "case": case, "metric": metric, "unit": unit,
            "better": better, "kind": kind, "value": value}


def baseline_rows():
    return [
        row("query", "fig3/PDC-A", "sim_s", "lower", "sim", 1.0),
        row("traffic", "poisson/load=1.00", "goodput_qps", "higher", "sim",
            8000.0, unit="1/s"),
        row("kernels", "scan_f32/avx2", "gb_per_s", "higher", "wall", 3.0,
            unit="GB/s"),
    ]


def with_value(rows, metric, value):
    return [dict(r, value=value) if r["metric"] == metric else r
            for r in rows]


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, rows, machine):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"machine": machine, "rows": rows}, f)
        return path

    def gate(self, cand_rows, cand_machine=MACHINE, base_rows=None):
        base = self.write("base.json", base_rows or baseline_rows(), MACHINE)
        cand = self.write("cand.json", cand_rows, cand_machine)
        with contextlib.redirect_stdout(io.StringIO()):
            return check_bench.main([base, cand, "--threshold", "0.15"])

    def test_identical_reports_pass(self):
        self.assertEqual(self.gate(baseline_rows()), 0)

    def test_lower_is_better_row_fails_only_when_it_grows(self):
        self.assertEqual(self.gate(with_value(baseline_rows(), "sim_s", 1.2)),
                         1)
        self.assertEqual(self.gate(with_value(baseline_rows(), "sim_s", 0.8)),
                         0)
        self.assertEqual(self.gate(with_value(baseline_rows(), "sim_s", 1.1)),
                         0)

    def test_higher_is_better_row_fails_only_when_it_shrinks(self):
        rows = baseline_rows()
        self.assertEqual(self.gate(with_value(rows, "goodput_qps", 6000.0)),
                         1)
        self.assertEqual(self.gate(with_value(rows, "goodput_qps", 10000.0)),
                         0)

    def test_missing_baseline_row_fails(self):
        self.assertEqual(self.gate(baseline_rows()[1:]), 1)

    def test_new_candidate_row_is_not_gated(self):
        extra = row("join", "zone/servers=2", "sim_s", "lower", "sim", 9.0)
        self.assertEqual(self.gate(baseline_rows() + [extra]), 0)

    def test_wall_rows_gated_only_on_matching_machines(self):
        slower = with_value(baseline_rows(), "gb_per_s", 1.0)
        self.assertEqual(self.gate(slower, cand_machine=OTHER_MACHINE), 0)
        self.assertEqual(self.gate(slower, cand_machine=MACHINE), 1)
        # A machine that cannot produce a wall row is not failed for it.
        self.assertEqual(self.gate(baseline_rows()[:2],
                                   cand_machine=OTHER_MACHINE), 0)

    def test_sim_rows_gated_on_any_machine(self):
        worse = with_value(baseline_rows(), "sim_s", 2.0)
        self.assertEqual(self.gate(worse, cand_machine=OTHER_MACHINE), 1)


if __name__ == "__main__":
    unittest.main()
