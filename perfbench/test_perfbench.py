#!/usr/bin/env python3
"""Tests of the repository benchmark itself, on tiny (smoke) sizes.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds nectar_bench the way run.py does, then checks that:
  - modeled metrics are bit-identical on two runs of one seed and
    differ across seeds;
  - the traced run's model outputs and event fingerprint equal the
    untraced run's (nectar_bench compares them and fails otherwise);
  - every metric name nectar_bench prints, on the result line and in
    its table (rows labelled "extra:" aside), is declared in
    BENCHMARK.json, and every declared metric is printed;
  - a smoke run of each workload passes its correctness checks.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXE = None


# A table row: name, a fixed-point value, then unit and notes.
ROW = re.compile(r"^(\S+)\s+(-?\d+\.\d+)(\s|$)")


def bench(workload, seed=1, trace=0):
    """Run one smoke-size invocation; return (report, result, code,
    names of the metrics in the printed table)."""
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
         "0", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    report = next(json.loads(l[len("REPORT "):]) for l in lines
                  if l.startswith("REPORT "))
    table = [m.group(1) for m in map(ROW.match, lines) if m]
    table = {n for n in table if not n.startswith("extra:")}
    return report, json.loads(lines[-1]), out.returncode, table


def modeled(report):
    m = report["model"]
    return {k: m[k] for k in ("p50_us", "p99_us", "goodput_mbs",
                              "samples", "events", "fingerprint",
                              "digest")}


class PerfbenchTest(unittest.TestCase):
    def test_smoke_passes_and_names_match(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            for trace, names in ((0, e2e), (1, layers)):
                with self.subTest(workload=w, trace=trace):
                    report, result, code, table = bench(w, trace=trace)
                    self.assertEqual(code, 0, report["errors"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(report["errors"], [])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), names)
                    self.assertLessEqual(table, e2e | layers)
                    self.assertLessEqual(e2e, table)
                    if trace:
                        self.assertEqual(set(report["layers"]), names)
                        self.assertLessEqual(layers, table)
                        trace_file = os.path.join(
                            os.path.dirname(EXE),
                            f"trace-{w}-seed1.json")
                        with open(trace_file) as f:
                            self.assertTrue(json.load(f)["traceEvents"])

    def test_modeled_metrics_repeat_per_seed_and_differ_across(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = bench(w, seed=1)[0]
                b = bench(w, seed=1)[0]
                c = bench(w, seed=2)[0]
                self.assertEqual(modeled(a), modeled(b))
                self.assertNotEqual(modeled(a), modeled(c))

    def test_traced_run_matches_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                traced, result, code, _ = bench(w, trace=1)
                plain = bench(w, trace=0)[0]
                # nectar_bench itself fails the run when the traced
                # model outputs or fingerprint differ from the timed
                # runs'; the untraced report must agree too.
                self.assertEqual(code, 0, traced["errors"])
                self.assertEqual(modeled(traced), modeled(plain))
                self.assertEqual(
                    {k: traced["traced"][k] for k in modeled(traced)},
                    modeled(plain))
                self.assertGreater(
                    result["metrics"]["sim.events_per_op"]["value"], 0)


if __name__ == "__main__":
    EXE = run.build()
    unittest.main()
