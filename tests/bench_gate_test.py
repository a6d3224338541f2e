#!/usr/bin/env python3
"""Unit tests of tools/bench_gate.py (stdlib unittest; run by ctest).

Builds small synthetic bundles and bench JSON files in a temp directory and
drives the gate through main(), checking its exit code and messages.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import bench_gate  # noqa: E402

MANIFEST = {"type": "manifest", "command": "schedule", "cfg_tau": "4"}


def profile_records(workers, tasks):
    return [
        {"type": "profile_header", "workers": workers, "rounds": 7},
        {"type": "phase_summary", "phase": "verdicts", "tasks": tasks,
         "items": 120, "busy_ns": 5000 * workers},
        {"type": "phase_summary", "phase": "mis", "tasks": 0, "items": 0,
         "busy_ns": 0},
    ]


def bundle_records(workers=1, tasks=7):
    """One record of every gated stream type, as a run bundle holds them."""
    return {
        "cost.jsonl": [
            MANIFEST,
            {"type": "cost", "round": 1, "phase": "verdicts",
             "vpt_tests": 40, "gf2_pivots": 900, "logical_cost": 940},
            {"type": "cost_total", "phase": "verdicts", "vpt_tests": 40,
             "gf2_pivots": 900, "logical_cost": 940},
        ],
        "profile.jsonl": [MANIFEST] + profile_records(workers, tasks),
        "nodes.jsonl": [
            MANIFEST,
            {"type": "node_summary", "node": 0, "sent": 5, "received": 4,
             "lost": 1, "dropped": 0, "retransmits": 1, "sent_words": 20,
             "recv_words": 16, "backlog_peak": 2, "rounds_active": 3,
             "energy": 7.5},
        ],
        "quality.jsonl": [
            MANIFEST,
            {"type": "quality_summary", "rounds_sampled": 4,
             "min_coverage_fraction": "0.981000", "violations": 0,
             "bound_margin": "0.400000", "final_certifiable_tau": 4},
        ],
        "trace.jsonl": [
            MANIFEST,
            {"type": "trace_header", "events": 1},
            {"type": "trace_event", "seq": 1, "kind": "send"},
        ],
    }


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def write_bundle(self, name, streams):
        path = os.path.join(self.dir, name)
        os.makedirs(path)
        for stream, records in streams.items():
            with open(os.path.join(path, stream), "w", encoding="utf-8") as f:
                for rec in records:
                    f.write(json.dumps(rec) + "\n")
        return path

    def write_json(self, name, obj):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        return path

    def gate(self, baseline, fresh):
        """Runs the gate; returns (exit code, stdout + stderr)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = bench_gate.main(["--baseline", baseline, "--fresh", fresh])
            except SystemExit as e:
                rc = e.code
        return rc, out.getvalue()

    def test_identical_bundles_pass(self):
        a = self.write_bundle("a", bundle_records())
        b = self.write_bundle("b", bundle_records())
        rc, text = self.gate(a, b)
        self.assertEqual(rc, 0, text)
        self.assertIn("no regressions", text)
        # Every gated stream type took part.
        for t in ("cost", "cost_total", "node_summary", "phase_summary",
                  "profile_header", "quality_summary"):
            self.assertIn(t, text)

    def test_changed_gated_value_fails_naming_type_and_key(self):
        a = self.write_bundle("a", bundle_records())
        changed = bundle_records()
        changed["nodes.jsonl"][1]["lost"] = 2
        b = self.write_bundle("b", changed)
        rc, text = self.gate(a, b)
        self.assertEqual(rc, 1, text)
        self.assertIn("node_summary run=None node=0: lost 2 != baseline 1",
                      text)

    def test_ungated_columns_may_differ(self):
        a = self.write_bundle("a", bundle_records())
        changed = bundle_records()
        changed["nodes.jsonl"][1]["energy"] = 99.0  # derived, not gated
        changed["profile.jsonl"][2]["busy_ns"] = 1  # wall-clock, not gated
        b = self.write_bundle("b", changed)
        rc, text = self.gate(a, b)
        self.assertEqual(rc, 0, text)

    def test_missing_baseline_row_fails(self):
        a = self.write_bundle("a", bundle_records())
        dropped = bundle_records()
        del dropped["quality.jsonl"][1]
        b = self.write_bundle("b", dropped)
        rc, text = self.gate(a, b)
        self.assertEqual(rc, 1, text)
        self.assertIn("quality_summary run=None: missing from fresh run", text)

    def test_profile_tasks_gate_only_at_equal_worker_counts(self):
        serial = self.write_bundle("serial", bundle_records(1, 7))
        pooled = self.write_bundle("pooled", bundle_records(2, 31))
        rc, text = self.gate(serial, pooled)
        self.assertEqual(rc, 0, text)
        self.assertIn("worker counts differ", text)

        pooled_again = self.write_bundle("pooled2", bundle_records(2, 30))
        rc, text = self.gate(pooled, pooled_again)
        self.assertEqual(rc, 1, text)
        self.assertIn("phase_summary phase=verdicts: tasks 30 != baseline 31",
                      text)

    def test_single_streams_compare_too(self):
        a = self.write_bundle("a", bundle_records())
        b = self.write_bundle("b", bundle_records())
        rc, text = self.gate(os.path.join(a, "cost.jsonl"),
                             os.path.join(b, "cost.jsonl"))
        self.assertEqual(rc, 0, text)

    def test_bench_json_gates_logical_cost_exactly(self):
        row = {"mode": "dcc_inc", "nodes": 400, "threads": 1,
               "logical_cost": 1000, "vpt_tests": 10, "seconds": 1.0}
        base = self.write_json("base.json",
                               {"bench": "parallel", "results": [row]})
        slow = dict(row, seconds=100.0)  # wall-clock is advisory
        rc, text = self.gate(base, self.write_json(
            "slow.json", {"bench": "parallel", "results": [slow]}))
        self.assertEqual(rc, 0, text)
        self.assertIn("advisory", text)
        drift = dict(row, logical_cost=1001)
        rc, text = self.gate(base, self.write_json(
            "drift.json", {"bench": "parallel", "results": [drift]}))
        self.assertEqual(rc, 1, text)
        self.assertIn("logical_cost 1001 != baseline 1000", text)

    def test_mixed_inputs_are_a_usage_error(self):
        a = self.write_bundle("a", bundle_records())
        base = self.write_json("base.json", {"bench": "parallel",
                                             "results": []})
        rc, _ = self.gate(base, a)
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
