"""Benchmark of the two routes to the refined q,t-Catalan polynomials.

Usage (from the repository root):

    python3 bench/run.py --workload {series,paths,cones} --seed N --seconds S --trace {0,1}

Each sample is a fresh interpreter (bench/sample.py) that imports the
package from ``src/`` and runs the workload once, so every ``lru_cache``
starts cold, as on a CLI call.  Samples run one at a time, back to back,
until the next one would end after ``--seconds``.  The inputs come from the
seed alone; the expected answers are computed by bench/workloads.py.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians over the samples of ``solve_ref_s`` and ``setup_s`` (the sample's
work and set-up time at a fixed reference host speed, see probe.py) and of
``peak_rss_mb``, and ``ok_ratio``, the share of checked operations that
passed.  With ``--trace 1`` samples alternate untraced and traced, and the
line reports the per-layer metrics named in BENCHMARK.json, medians over
the traced samples.  A sample that crashes or hangs counts as one failed operation and
never stops the run.  A record with every raw sample goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

# a run must end within 180 s whatever --seconds asks for
RUN_LIMIT_S = 175


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def launch(spec_path: Path, timeout: float, spans_path: Optional[Path] = None) -> dict:
    """Run one sample interpreter, traced when given ``spans_path``.

    Returns the sample's record plus ``setup_wall_s`` (launch to ready),
    ``traced`` and ``crashed``, and for an untraced sample ``setup_s``, the
    set-up time scaled by the sample's ``host_scale`` to the probe's
    reference host speed.
    A sample that exits non-zero, prints no record or runs out of time is
    one attempted, failed operation; its wall time stands in for its times.
    """
    traced = spans_path is not None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(BENCH / "sample.py"), str(spec_path)]
    if traced:
        argv.append(str(spans_path))
    launched_ns = time.monotonic_ns()
    try:
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, timeout))
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"sample exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        record = json.loads(lines[-1])
        if Path(record["package"]).resolve() != (SRC / "qtcatalan").resolve():
            raise RuntimeError(f"sample imported qtcatalan from {record['package']}, not {SRC}")
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        wall_s = (time.monotonic_ns() - launched_ns) / 1e9
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"traced": traced, "crashed": True, "attempted": 1, "failed": 1,
                "failures": [f"sample: {type(exc).__name__}: {str(exc)[-2000:]}"],
                "solve_s": wall_s, "cpu_s": wall_s, "solve_ref_s": wall_s,
                "setup_wall_s": wall_s, "setup_s": wall_s, "peak_rss_mb": peak_kb / 1024,
                "absent": []}
    record["setup_wall_s"] = (record.pop("ready_ns") - launched_ns) / 1e9
    if not traced:
        record["setup_s"] = record["setup_wall_s"] * record["host_scale"]
    record["traced"] = traced
    record["crashed"] = False
    return record


def timed(samples: list) -> list:
    """The samples whose times count: those that ran to the end, if any did."""
    return [s for s in samples if not s["crashed"]] or samples


def layer_value(metric: str, self_s: dict, counts: dict) -> float:
    """One per-layer metric of a traced sample, read off the metric's name.

    ``layer.<module>.self_s`` sums the self time of the module's spans;
    otherwise the name is ``<span>.<stat>``: ``self_s`` is the span's self
    time, ``us_per_<x>`` its self time per ``<x>s`` counted, and any other
    stat a counter the tracer kept for the span.
    """
    if metric.startswith("layer."):
        layer = metric.split(".")[1]
        return sum(v for span, v in self_s.items() if span.startswith(layer + "."))
    span, stat = metric.rsplit(".", 1)
    if stat == "self_s":
        return self_s.get(span, 0.0)
    if stat.startswith("us_per_"):
        per = counts.get(f"{span}.{stat[len('us_per_'):]}s", 0)
        return 1e6 * self_s.get(span, 0.0) / per if per else 0.0
    return counts.get(f"{span}.{stat}", 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qtcatalan" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'qtcatalan'}; run from a full checkout", file=sys.stderr)
        return 2
    run_start = time.monotonic()

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = make_inputs(args.workload, args.seed)
        spec["workload"] = args.workload
        for i, cone in enumerate(spec.get("cones", ())):
            cone["file"] = str(work / f"cone{i}.txt")
            Path(cone["file"]).write_text(cone["text"])
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"

        def remaining() -> float:
            return RUN_LIMIT_S - (time.monotonic() - run_start)

        samples = []
        measure_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            samples.append(launch(spec_path, remaining(), spans_path if traced else None))
            elapsed = time.monotonic() - measure_start
            typical = statistics.median(s["solve_s"] + s["setup_wall_s"] for s in timed(samples))
            enough = len(samples) >= (2 if args.trace else 1)
            if enough and (elapsed + typical > args.seconds or remaining() < 2 * typical):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = timed([s for s in samples if not s["traced"]])
    traced_samples = [s for s in samples if s["traced"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    setups = [s["setup_s"] for s in plain]
    cpu_plain = statistics.median(s["cpu_s"] for s in plain)

    if args.trace:
        spans = [s for s in traced_samples if not s["crashed"]]
        metrics = {}
        for metric in CONFIG["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_s":
                value = statistics.median(s["cpu_s"] for s in timed(traced_samples)) - cpu_plain
            elif spans:
                value = statistics.median(layer_value(name, s["self_s"], s["counts"]) for s in spans)
            else:
                value = 0
            metrics[name] = {"value": value, "unit": metric["unit"]}
    else:
        metrics = {
            "solve_ref_s": {"value": statistics.median(s["solve_ref_s"] for s in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in plain), "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sizes": spec["sizes"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for s in samples for f in s["failures"]][:20],
        "setup_s": setups,
        "samples": [{k: v for k, v in s.items() if k != "package"} for s in samples],
        "absent_spans": sorted({a for s in traced_samples for a in s["absent"]}),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload={args.workload} seed={args.seed} samples={len(plain)} untraced"
          f" + {len(traced_samples)} traced, fail_ratio={failed}/{attempted}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name:46s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
