#!/usr/bin/env python3
"""Bench regression gate: diff fresh results against a committed baseline.

Two kinds of input, picked by the paths given:

  * BENCH JSON (e.g. `bench_ablation_parallel --json fresh.json` against the
    committed `BENCH_parallel.json`). LOGICAL columns (`vpt_tests`,
    `bfs_expansions`, `logical_cost`, `verdict_cache_hits`, `dirty_nodes`,
    `rounds`) are machine-independent work-unit counts — pure functions of
    (mode, nodes, tau, degree, seed) — and must match the baseline EXACTLY.
    A baseline row missing from the fresh run fails too (silently dropping a
    configuration is how regressions hide). A logical column absent from the
    baseline (recorded before the cost model) is skipped with a note.
    WALL-CLOCK (`seconds`) is always advisory: ratios above --tolerance are
    reported but never change the exit code.

  * RECORDS: two JSONL streams, or two `--obs-out` bundle directories (every
    `*.jsonl` inside is read). Each record is keyed by its `type` plus that
    type's key columns, and the gated columns of every baseline record must
    match the fresh record exactly (see GATED below). The types gated are the
    machine-independent ones: the fleet sink's `run` rows, the cost stream,
    the profile's per-phase item counts, the per-node message ledger, and
    the quality rollups. Profile `tasks` (chunk counts) gate only when both
    sides ran the same worker count — the serial inline path records one
    task per fork where the pool records one per chunk. This is how CI
    proves a 2-thread bundle matches a serial one. Both sides must come
    from one config: their first `manifest` records must agree on `command`
    and every `cfg_*` key, or the gate exits 2 naming the key and both
    values. Build identity (`git_sha`, `build_flags`, ...) may differ, so a
    parent build can be gated against a change.

Stdlib only. Exit codes: 0 ok, 1 regression, 2 usage/IO error. With
--advisory, regressions are reported but the exit code stays 0 (used on PR
builds; pushes to main hard-fail).
"""

import argparse
import json
import os
import sys

LOGICAL_FIELDS = (
    "vpt_tests",
    "bfs_expansions",
    "logical_cost",
    "verdict_cache_hits",
    "dirty_nodes",
    "rounds",
)

ALL = None  # every column of the record except its keys

# record type -> (key columns, gated columns)
GATED = {
    "run": (
        ("model", "nodes", "degree", "tau", "loss", "seed"),
        LOGICAL_FIELDS + ("status", "survivors", "schedule_digest"),
    ),
    "cost": (("round", "phase"), ALL),
    "cost_total": (("phase",), ALL),
    "profile_header": ((), ("rounds",)),
    "phase_summary": (("phase",), ("items",)),
    "node_summary": (
        ("run", "node"),
        ("sent", "received", "lost", "dropped", "retransmits", "sent_words",
         "recv_words", "backlog_peak", "rounds_active"),
    ),
    # bound_margin / violations are absent when the Proposition 1 bound is
    # infinite (gamma > 2); None == None keeps the comparison meaningful.
    "quality_summary": (
        ("run",),
        ("rounds_sampled", "min_coverage_fraction", "final_coverage_fraction",
         "max_hole_diameter", "bound_margin", "violations", "max_components",
         "final_certifiable_tau", "final_redundancy", "final_awake"),
    ),
}


def fail_io(message):
    print(f"bench_gate: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- records


def is_records(path):
    return os.path.isdir(path) or path.endswith(".jsonl")


def read_records(path):
    """Every JSON object line of a stream, or of each stream in a bundle."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
        if not files:
            fail_io(f"{path} holds no .jsonl streams")
    else:
        files = [path]
    records = []
    for name in files:
        try:
            with open(name, "r", encoding="utf-8") as f:
                for line in f:
                    try:
                        obj = json.loads(line)
                    except ValueError:
                        continue  # truncated final line of a killed run
                    if isinstance(obj, dict):
                        records.append(obj)
        except OSError as e:
            fail_io(f"cannot read {name}: {e}")
    return records


def semantic_config(records):
    """The first manifest's command and cfg_* keys (not the build identity)."""
    for rec in records:
        if rec.get("type") == "manifest":
            return {k: v for k, v in rec.items()
                    if k == "command" or k.startswith("cfg_")}
    return {}


def shown(value):
    return "<absent>" if value is None else repr(value)


def check_same_config(base_records, fresh_records):
    base = semantic_config(base_records)
    fresh = semantic_config(fresh_records)
    # The command first: two commands differ in most cfg_ keys too.
    keys = sorted(set(base) | set(fresh), key=lambda k: (k != "command", k))
    for key in keys:
        if base.get(key) != fresh.get(key):
            name = key[len("cfg_"):] if key.startswith("cfg_") else key
            fail_io(f"the runs differ in config key '{name}': baseline "
                    f"{shown(base.get(key))}, fresh {shown(fresh.get(key))} "
                    "— the gate compares runs of one config only")


def index_records(records):
    """(type, key values...) -> record, for every gated record type."""
    rows = {}
    for rec in records:
        spec = GATED.get(rec.get("type"))
        if spec is None:
            continue
        key = (rec["type"],) + tuple(rec.get(k) for k in spec[0])
        rows[key] = rec
    return rows


def fmt_record_key(key):
    spec = GATED[key[0]][0]
    cols = " ".join(f"{k}={v}" for k, v in zip(spec, key[1:]))
    return f"{key[0]} {cols}".strip()


def workers(rows):
    header = rows.get(("profile_header",))
    return None if header is None else header.get("workers")


def gate_records(args):
    base_records = read_records(args.baseline)
    fresh_records = read_records(args.fresh)
    check_same_config(base_records, fresh_records)
    base = index_records(base_records)
    fresh = index_records(fresh_records)
    if not base:
        fail_io(f"{args.baseline} has no gated records "
                f"(types: {', '.join(sorted(GATED))})")

    gated = dict(GATED)
    if workers(base) is not None:
        if workers(base) == workers(fresh):
            gated["phase_summary"] = (("phase",), ("items", "tasks"))
        else:
            print(f"bench_gate: worker counts differ (baseline "
                  f"{workers(base)}, fresh {workers(fresh)}) — profile tasks "
                  "follow chunk scheduling and are not gated; items still are")

    failures = []
    for key, rec in sorted(base.items(), key=lambda kv: repr(kv[0])):
        other = fresh.get(key)
        if other is None:
            failures.append(f"{fmt_record_key(key)}: missing from fresh run")
            continue
        keys, cols = gated[key[0]]
        if cols is ALL:
            cols = [c for c in rec if c != "type" and c not in keys]
        for col in cols:
            if rec.get(col) != other.get(col):
                failures.append(
                    f"{fmt_record_key(key)}: {col} {other.get(col)} != "
                    f"baseline {rec.get(col)}")
    extra = len(set(fresh) - set(base))
    counts = {}
    for key in base:
        counts[key[0]] = counts.get(key[0], 0) + 1
    summary = ", ".join(f"{n} {t}" for t, n in sorted(counts.items()))
    print(f"bench_gate: {len(base)} gated records ({summary}); "
          f"{extra} fresh-only record(s) ignored")
    return failures


# ------------------------------------------------------------- bench JSON


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail_io(f"cannot read {path}: {e}")


def row_key(row):
    # Rows recorded before the multi-round DCC section carry no mode tag;
    # they are the single-round VPT sweep.
    return (row.get("mode", "sweep"), row.get("nodes"), row.get("threads"))


def fmt_key(key):
    return f"{key[0]} nodes={key[1]} threads={key[2]}"


def gate_bench(args):
    baseline = load(args.baseline)
    fresh = load(args.fresh)
    if baseline.get("bench") != fresh.get("bench"):
        fail_io(f"bench name mismatch: baseline {baseline.get('bench')!r} "
                f"vs fresh {fresh.get('bench')!r}")
    base_rows = {row_key(r): r for r in baseline.get("results", [])}
    fresh_rows = {row_key(r): r for r in fresh.get("results", [])}
    if not base_rows:
        fail_io("baseline has no result rows")

    failures = []
    advisories = []
    skipped_fields = set()
    # Speedup columns recorded on a single-core host never exercised real
    # parallelism — say so instead of letting a flat baseline read as "no
    # speedup regression".
    base_single_core = baseline.get("hardware_concurrency") == 1
    print(f"bench_gate: {baseline.get('bench')} "
          f"({len(base_rows)} baseline rows; logical columns gate, "
          f"seconds advisory at {args.tolerance}x)")
    print(f"{'config':<40} {'cost base':>10} {'cost fresh':>10} "
          f"{'base s':>9} {'fresh s':>9} {'ratio':>7}  verdict")
    for key, base in sorted(base_rows.items()):
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            failures.append(f"{fmt_key(key)}: missing from fresh run")
            print(f"{fmt_key(key):<40} {'-':>10} {'-':>10} {'-':>9} {'-':>9} "
                  f"{'-':>7}  MISSING")
            continue
        verdicts = []
        for field in LOGICAL_FIELDS:
            if field not in base:
                skipped_fields.add(field)
                continue
            if fresh_row.get(field) != base.get(field):
                verdicts.append(
                    f"{field} {fresh_row.get(field)} != baseline "
                    f"{base.get(field)} (machine-independent — this is a "
                    f"behaviour change, not noise)")
        base_s = float(base.get("seconds", 0.0))
        fresh_s = float(fresh_row.get("seconds", 0.0))
        if base_s > 0:
            ratio = fresh_s / base_s
        else:
            ratio = 1.0 if fresh_s == 0 else float("inf")
        slow = ratio > args.tolerance
        if slow:
            advisories.append(f"{fmt_key(key)}: {ratio:.2f}x slower than "
                              "baseline (advisory: wall-clock never gates)")
        status = ("FAIL: " + "; ".join(verdicts)) if verdicts else (
            "ok (slow, advisory)" if slow else "ok")
        if (base_single_core and not verdicts
                and "speedup_vs_1t" in base and base.get("threads", 1) > 1):
            status += " [speedup unverifiable: baseline captured on 1 core]"
        print(f"{fmt_key(key):<40} {base.get('logical_cost', '-'):>10} "
              f"{fresh_row.get('logical_cost', '-'):>10} "
              f"{base_s:>9.4f} {fresh_s:>9.4f} {ratio:>6.2f}x  {status}")
        for v in verdicts:
            failures.append(f"{fmt_key(key)}: {v}")

    for key in sorted(set(fresh_rows) - set(base_rows)):
        print(f"{fmt_key(key):<40} (new row, not in baseline — ignored)")
    if skipped_fields:
        print("bench_gate: baseline predates logical column(s) "
              f"{sorted(skipped_fields)} — not gated this run")
    for a in advisories:
        print(f"bench_gate: advisory: {a}", file=sys.stderr)
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json, or a JSONL stream / bundle")
    ap.add_argument("--fresh", required=True,
                    help="the same kind of input from this build")
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="advisory seconds ratio fresh/baseline to report "
                         "(bench JSON only; default 3.0)")
    ap.add_argument("--advisory", action="store_true",
                    help="report regressions but always exit 0")
    args = ap.parse_args(argv)
    for flag, path in (("--baseline", args.baseline), ("--fresh", args.fresh)):
        if not os.path.exists(path):
            fail_io(f"{flag} {path} does not exist")
    if is_records(args.baseline) != is_records(args.fresh):
        fail_io("--baseline and --fresh must both be bench JSON or both be "
                "JSONL streams / bundle directories")

    failures = (gate_records if is_records(args.baseline) else gate_bench)(args)
    if failures:
        print(f"\nbench_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        if args.advisory:
            print("bench_gate: advisory mode — not failing the build",
                  file=sys.stderr)
            return 0
        return 1
    print("bench_gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
