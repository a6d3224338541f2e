#!/usr/bin/env python3
"""The repository benchmark: times DCC scheduling, lossy distributed DCC and
crash repair on seeded networks, checks every output, and prints one JSON
result line.

Run from the repository root:

    python3 perfbench/run.py --workload sched-udg300 --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/driver.cpp (Release) under
.bench_build/perfbench. Workload definitions, the reasons they were chosen
and the pinned outputs live in perfbench/workloads.json; metric names and
units in BENCHMARK.json. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones. --smoke runs the workload at its ~100-node smoke size.

Exit status: 0 when every check and pin holds, 1 when one fails (the result
line then says "correct": false), 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "-j", "4"],
                   stdout=sys.stderr, check=True)


def git_sha(fallback):
    if not (ROOT / ".git").exists():
        return fallback
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                          "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else fallback


def protocol_seed(w, seed):
    """The pinned protocol seed that --seed selects: seeds in the workload's
    `protocol_seeds` range are themselves, and every other seed wraps into
    that range, so that each run's outputs are pinned."""
    first, last = w["protocol_seeds"]
    return first + (seed - first) % (last - first + 1)


def driver_args(w, smoke, network_seed, seed, threads, seconds, trace):
    """The driver's command line for workload definition `w`."""
    cmd = [str(DRIVER), "--kind", w["kind"],
           "--nodes", str(w["smoke_nodes"] if smoke else w["nodes"]),
           "--tau", str(w["tau"]), "--seed", str(seed),
           "--net-seed", str(network_seed), "--threads", str(threads),
           "--seconds", str(seconds), "--trace", str(trace)]
    if "loss" in w:
        cmd += ["--loss", str(w["loss"])]
    return cmd


def check_pins(pins, exact):
    """Compares every pinned value the run produced; returns mismatches. A
    run with no pins at all is a mismatch too."""
    if pins is None:
        return ["no pins recorded for this network and seed"]
    bad = []
    for key, want in sorted(pins.items()):
        if key in exact and exact[key] != want:
            bad.append(f"{key}: pinned {want}, got {exact[key]}")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=2,
                   help="worker threads of the multi-threaded call")
    p.add_argument("--network-seed", type=int, default=0,
                   help="deployment seed (default: the workload's own)")
    p.add_argument("--smoke", action="store_true",
                   help="run at the workload's ~100-node smoke size")
    args = p.parse_args()

    spec = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {args.workload!r}; have "
                         + ", ".join(spec["workloads"]))
    w = spec["workloads"][args.workload]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    net = args.network_seed or w["network_seed"]
    seed = protocol_seed(w, args.seed)
    trace_out = trace_dir / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.jsonl"
    cmd = driver_args(w, args.smoke, net, seed, args.threads, args.seconds,
                      args.trace)
    proc = subprocess.run(cmd + ["--trace-out", str(trace_out)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"driver exited with status {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    pins = w["pins"][size].get(f"{net}:{seed}")
    mismatches = check_pins(pins, raw["exact"])
    for m in mismatches:
        log(f"perfbench: pin mismatch ({args.workload}, seed {args.seed}): {m}")
    failed_checks = raw["checks_failed"] + len(mismatches)
    attempted = raw["solve_calls"]
    failed = attempted if failed_checks else 0

    stamp = dict(raw["stamp"])
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["git_sha"] = git_sha(stamp["git_sha"])
    print(f"perfbench {args.workload} seed={args.seed} protocol_seed={seed} "
          f"network_seed={net} size={size} trace={args.trace} "
          f"pins_checked={len(pins or {})} "
          + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, value in sorted(raw["exact"].items()):
        print(f"  exact {name:<24} {value}")
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            raise BenchError(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    extra = {}
    if not args.trace:
        # Printed for the reader only. The result line keeps metrics that are
        # nonzero on every workload and steady from run to run: the radio
        # counts are zero off `dist`, failures are in `failed`, and the
        # wall-clock and multi-threaded times drift with the shared host.
        extra = {"solve_wall_s": (raw["metrics"]["solve_wall_s"], "s"),
                 "probe_ms": (raw["metrics"]["probe_ms"], "ms"),
                 "solve_mt_s": (raw["metrics"]["solve_mt_s"], "s"),
                 "radio_messages": (raw["metrics"]["radio_messages"], "count"),
                 "radio_kib": (raw["metrics"]["radio_kib"], "KiB"),
                 "failed_frac": (failed / attempted, "ratio")}
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed_checks == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed_checks == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
