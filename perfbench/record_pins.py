#!/usr/bin/env python3
"""Records the pinned exact outputs in perfbench/workloads.json.

For every workload this runs the traced driver (which reports every exact
output, the telemetry cost counters included) at full size on the default
network with each seed of the workload's `protocol_seeds` range and on the
held-out network and seed, and at smoke size on the default network and
seed, then rewrites the `pins` of each workload. Two drivers run at a time.
Run from the repository root after a change that is meant to alter
schedules or logical costs:

    python3 perfbench/record_pins.py [--workload NAME]
"""

import argparse
import concurrent.futures
import json
import subprocess

import run


def record(w, smoke, network_seed, seed):
    cmd = run.driver_args(w, smoke, network_seed, seed, threads=2, seconds=0,
                          trace=1)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=run.DRIVER_TIMEOUT_S)
    raw = json.loads(out.stdout.strip().splitlines()[-1])
    if raw["checks_failed"]:
        raise run.BenchError(f"checks failed: {raw['checks']}")
    return raw["exact"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="only this workload (default: all)")
    opts = p.parse_args()
    path = run.HERE / "workloads.json"
    spec = json.loads(path.read_text())
    run.build()
    jobs = []
    for name, w in spec["workloads"].items():
        if opts.workload and name != opts.workload:
            continue
        net = w["network_seed"]
        held = w["held_out"]
        first, last = w["protocol_seeds"]
        jobs += [(name, False, net, seed) for seed in range(first, last + 1)]
        jobs += [(name, False, held["network_seed"], held["seed"]),
                 (name, True, net, w["default_seed"])]
        w["pins"] = {"full": {}, "smoke": {}}
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = {job: pool.submit(record, spec["workloads"][job[0]], *job[1:])
                   for job in jobs}
        for (name, smoke, net, seed), future in futures.items():
            run.log(f"record_pins: {name} smoke={smoke} network_seed={net} seed={seed}")
            pins = spec["workloads"][name]["pins"]["smoke" if smoke else "full"]
            pins[f"{net}:{seed}"] = future.result()
    path.write_text(json.dumps(spec, indent=2, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
