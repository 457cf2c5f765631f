#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark, at miniature sizes (--tiny).

    python3 perfbench/test_perfbench.py

Builds through run.py like a real run, then checks that:
  * every workload prints every end-to-end metric (untraced) and every
    per-layer metric (traced) by name with its unit, both on its metric
    lines and in the final JSON object;
  * deterministic values (objective_ratio, table digests, work counters)
    repeat exactly across two runs and across --jobs 1 and --jobs 4;
  * the output checks are live: a wrong pinned digest or a corrupted
    expected serve reply shows up in `failed` and in the exit code.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Work counters the library keeps jobs-invariant (obs::Registry merge rules).
COUNTERS = ["exact_dp.cells_touched", "fptas.cells_touched", "batch.scalar_fallbacks",
            "batch.lane_fill_ratio", "dp.warm_starts", "batch.fused_sweep_points",
            "batch.sweep_fallbacks", "delta.table_adoptions"]


def run(workload, *extra, trace=0, seed=1, seconds=0.5):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def digest(lines):
    for line in lines:
        found = re.search(r"table digest ([0-9a-f]{16})", line)
        if found:
            return found.group(1)
    return None


class MetricNames(unittest.TestCase):
    def check_names(self, trace, spec_key):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, trace=trace)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for metric in SPEC[spec_key]:
                    name, unit = metric["name"], metric["unit"]
                    self.assertIn(name, result["metrics"])
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    printed = [l for l in lines if l.split()[:1] == [name]]
                    self.assertEqual(len(printed), 1, name)
                    self.assertEqual(printed[0].split()[-1], unit)
                self.assertEqual(len(result["metrics"]), len(SPEC[spec_key]))

    def test_end_to_end_metrics(self):
        self.check_names(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_names(1, "per_layer")


class Determinism(unittest.TestCase):
    def test_objective_ratio_and_digest_repeat(self):
        for workload in ("paper_sweep", "capacity_plan", "manycore_mp"):
            with self.subTest(workload=workload):
                outs = [run(workload, "--jobs", jobs) for jobs in ("4", "4", "1")]
                ratios = {o[2]["metrics"]["objective_ratio"]["value"] for o in outs}
                self.assertEqual(len(ratios), 1, ratios)
                digests = {digest(o[1]) for o in outs}
                self.assertEqual(len(digests), 1, digests)

    def test_counters_repeat(self):
        # manycore_mp is left out: its exact_dp.cells_touched differs between
        # --jobs 1 and --jobs 4, and now and then between two --jobs 4 runs,
        # although its objectives and digests repeat exactly.
        for workload in ("paper_sweep", "capacity_plan"):
            with self.subTest(workload=workload):
                outs = [run(workload, "--jobs", jobs, trace=1) for jobs in ("4", "4", "1")]
                for name in COUNTERS:
                    values = {o[2]["metrics"][name]["value"] for o in outs}
                    self.assertEqual(len(values), 1, (name, values))


class ChecksAreLive(unittest.TestCase):
    def test_wrong_digest_fails(self):
        code, lines, result = run("paper_sweep", "--expect-digest", "0123456789abcdef")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_corrupted_reply_fails(self):
        code, lines, result = run("admission_serve", "--corrupt-reply", "5")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_pinned_digest_matches(self):
        code, lines, result = run("paper_sweep", seed=1)
        self.assertEqual(code, 0)
        self.assertTrue(any("(pinned)" in l for l in lines), "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
