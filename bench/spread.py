"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 bench/spread.py [--seeds 1-10]

Runs bench/run.py once per (seed, workload), with every workload and the
run length that BENCHMARK.json gives, cycling through the workloads inside
each seed so that drift in the host's speed falls on all of them
alike.  For each end-to-end metric of each workload it prints the median of
the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from BENCHMARK.json.  Every run's value is kept in
bench/out/spread-<first seed>-<last seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]

    values = {w: {m["name"]: [] for m in config["end_to_end"]} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"seed {seed} {workload}: "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                  flush=True)

    (BENCH / "out" / f"spread-{seeds[0]}-{seeds[-1]}.json").write_text(
        json.dumps({"seeds": seeds, "seconds": seconds, "values": values}, indent=1)
    )
    print(f"{'workload':8s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload in workloads:
        for metric in config["end_to_end"]:
            runs = values[workload][metric["name"]]
            median = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else float("inf")
            print(f"{workload:8s} {metric['name']:12s} {median:10.5g} {q1:10.5g} {q3:10.5g}"
                  f" {spread:7.3f} {metric['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
