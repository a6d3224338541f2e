#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its ~100-node smoke size,
both modes, plus the refusals. Takes about a minute. Run from the
repository root:

    python3 perfbench/test_smoke.py
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "workloads.json").read_text())


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def run_smoke(self, workload, trace, *extra):
        w = SPEC["workloads"][workload]
        return bench("--workload", workload, "--seed", str(w["default_seed"]),
                     "--seconds", "0.1", "--trace", str(trace), "--smoke", *extra)

    def test_every_workload_reports_every_metric_and_passes_its_pins(self):
        for workload in SPEC["workloads"]:
            for trace, wanted in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_smoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = result_line(proc)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual(list(out["metrics"]), [m["name"] for m in wanted])
                    for m in wanted:
                        self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertNotIn("pins_checked=0", proc.stdout)

    def test_pin_mismatch_is_reported(self):
        w = SPEC["workloads"]["sched-udg300"]
        pins = w["pins"]["smoke"][f"{w['network_seed']}:{w['default_seed']}"]
        exact = dict(pins, awake_nodes=pins["awake_nodes"] + 1)
        self.assertEqual(run.check_pins(pins, pins), [])
        self.assertEqual(len(run.check_pins(pins, exact)), 1)
        self.assertIn("awake_nodes", run.check_pins(pins, exact)[0])
        self.assertEqual(len(run.check_pins(None, pins)), 1)

    def test_run_without_pins_fails(self):
        w = SPEC["workloads"]["sched-udg300"]
        proc = bench("--workload", "sched-udg300",
                     "--seed", str(w["default_seed"] + 1), "--seconds", "0.1",
                     "--trace", "0", "--smoke")
        self.assertEqual(proc.returncode, 1)
        out = result_line(proc)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])
        self.assertIn("no pins", proc.stderr)

    def test_every_seed_maps_to_a_pinned_seed(self):
        for w in SPEC["workloads"].values():
            pinned = w["pins"]["full"]
            for seed in (0, 1, 10, 22, 32, 33, 1000, -5):
                with self.subTest(seed=seed):
                    key = f"{w['network_seed']}:{run.protocol_seed(w, seed)}"
                    self.assertIn(key, pinned)
            held = w["held_out"]
            self.assertIn(f"{held['network_seed']}:{held['seed']}", pinned)

    def test_refuses_more_threads_than_hardware(self):
        proc = self.run_smoke("sched-udg300", 0, "--threads", "100000")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("hardware_concurrency", proc.stderr)
        self.assertEqual(proc.stdout.strip(), "")

    def test_unknown_workload_is_refused(self):
        proc = bench("--workload", "nope", "--seed", "1")
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
