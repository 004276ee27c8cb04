"""One sample: a fresh interpreter runs one workload once and checks its outputs.

Usage: python sample.py SPEC.json [SPANS_OUT]

SPEC.json is written by run.py and holds the workload's generated inputs and
the answers the benchmark computed for them.  Given SPANS_OUT, the calls into
each layer are recorded as spans (see tracing.py) and written there.

The last line of stdout is one JSON object.  ``ready_ns`` is the monotonic
clock when ``qtcatalan`` and its CLI parser are ready; ``solve_s`` runs from
the first operation to the last checked output, and ``cpu_s`` is this
thread's CPU time over the same stretch.  An untraced sample also runs the
host-speed probe (see probe.py): its time is taken out of ``cpu_s``,
``host_scale`` turns a time at the measured host speed into one at the
probe's reference speed, and ``solve_ref_s`` is ``cpu_s`` so scaled.
"""

import sys
import time

import qtcatalan
from qtcatalan import cli

cli.build_parser()
READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402  (imported after the set-up clock stops)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from qtcatalan import catalog, cones  # noqa: E402

from probe import Probe  # noqa: E402
from workloads import coefficient_sum  # noqa: E402


class Ops:
    """Counts checked operations; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, operation) -> None:
        self.attempted += 1
        try:
            ok = operation()
            reason = "wrong output"
        except Exception as exc:  # a crash is one failed operation
            ok = False
            reason = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {reason}")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_series(spec, ops: Ops) -> None:
    def verify():
        code, out = run_cli(spec["argv"])
        return code == 0 and out == spec["expected_stdout"]

    ops.check(" ".join(spec["argv"]), verify)


def run_paths(spec, ops: Ops) -> None:
    for parts, count in zip(spec["vectors"], spec["path_counts"]):
        argv = ["catalan", "--k", ",".join(str(p) for p in parts)]

        def catalan(argv=argv, count=count):
            code, out = run_cli(argv)
            return code == 0 and coefficient_sum(out) == count

        ops.check(" ".join(argv), catalan)


def run_cones(spec, ops: Ops) -> None:
    for family in spec["families"]:
        ops.check(
            f"theorem {family}",
            lambda: cones.gf_equals(catalog.assemble_theorem(family),
                                    catalog.printed_theorem(family)) is True,
        )
    for family, points in spec["region_points"].items():
        for point in points:
            ops.check(f"signed_multiplicity {family} {point}",
                      lambda: catalog.signed_multiplicity(family, point) == 1)
        for point in points:
            ops.check(
                f"case_membership {family} {point}",
                lambda: any(catalog.case_membership(case, point)
                            for case in catalog.case_catalog(family)),
            )
    for cone in spec["cones"]:
        path, index, dim = cone["file"], cone["index"], cone["dim"]

        def pi(path=path, index=index, dim=dim):
            code, out = run_cli(["cone", path, "--pi"])
            points = {tuple(int(x) for x in line.split()) for line in out.splitlines()}
            return code == 0 and len(points) == index and all(len(p) == dim for p in points)

        def lattice_index(path=path, index=index):
            code, out = run_cli(["cone", path, "--index"])
            return code == 0 and out == f"index={index} unimodular={'yes' if index == 1 else 'no'}\n"

        ops.check(f"cone {path} --pi", pi)
        ops.check(f"cone {path} --index", lattice_index)


RUNNERS = {"series": run_series, "paths": run_paths, "cones": run_cones}


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = {
        "ready_ns": READY_NS,
        "package": os.path.dirname(qtcatalan.__file__),
    }
    if spec["workload"] == "cones":
        for family in spec["region_points"]:
            spec["region_points"][family] = [tuple(p) for p in spec["region_points"][family]]
    tracer = None
    if len(sys.argv) > 2:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # untraced samples run under the host-speed probe; traced ones keep their spans clean
    probe = Probe() if tracer is None else contextlib.nullcontext()
    ops = Ops()
    with probe:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        RUNNERS[spec["workload"]](spec, ops)
        cpu_s = time.thread_time() - cpu_start
        solve_s = time.perf_counter() - start
    if tracer is None:
        cpu_s -= probe.spent_s
        result.update(host_scale=probe.host_scale(), solve_ref_s=cpu_s * probe.host_scale(),
                      probe_op_s=probe.op_s(), probes=len(probe.op_times), probe_s=probe.spent_s)
    result.update(
        solve_s=solve_s,
        cpu_s=cpu_s,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
    )
    if tracer is not None:
        result.update(self_s=tracer.self_seconds(), counts=dict(tracer.counts),
                      absent=tracer.absent, spans=len(tracer.spans))
        tracer.write(sys.argv[2])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
