"""Host-speed probe: how fast the host ran while a sample did its work.

On a shared host the same pure-Python work runs up to 1.6 times slower while
other tenants load the physical core, and that load changes within seconds.
Wall time and CPU time move together, so neither can tell a slower program
from a busier host.  The probe interrupts the sample every ``INTERVAL_S`` of
its CPU time (``SIGPROF``), in the sample's own thread, and times one warm run
of a fixed dict-and-tuple operation.  Its probes are spread over the same
stretch of time as the work, so the work's CPU time divided by the harmonic
mean of the probe times is the work measured in probe operations, whatever
speed the host had.  ``host_scale`` turns that count back into seconds, at
the speed where one probe operation takes ``REFERENCE_OP_S``.

The probe's own time is kept in ``spent_s`` so that it can be taken out of
the sample's CPU time.  It costs about 2 % of a sample.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
# a fixed scale, about one probe operation on an idle core of a 2.0 GHz Xeon
REFERENCE_OP_S = 300e-6


def probe_op() -> int:
    """The fixed operation: filter a small dict of exponent tuples and project the survivors.

    Dicts keyed by small-int tuples, generator expressions and ``any`` are
    what the package spends its time on, so the host slows this operation
    about as much as it slows the workloads.
    """
    fixed = {0: 3, 2: 1}
    terms = {(i % 9, i, i % 4): i for i in range(300)}
    out = {}
    for exps, coef in terms.items():
        if any(exps[pos] != e for pos, e in fixed.items()):
            continue
        out[tuple(x for pos, x in enumerate(exps) if pos not in fixed)] = coef
    return len(out)


class Probe:
    """Context manager that times ``probe_op`` every ``INTERVAL_S`` of CPU time."""

    def __init__(self) -> None:
        self.op_times = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        probe_op()  # warms the caches; only the second run is timed
        warm = clock()
        probe_op()
        end = clock()
        self.op_times.append(end - warm)
        self.spent_s += end - start

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def op_s(self) -> float:
        """Harmonic mean of the probe times: the host's mean speed over the work."""
        if not self.op_times:
            return REFERENCE_OP_S
        return len(self.op_times) / sum(1 / t for t in self.op_times)

    def host_scale(self) -> float:
        """Factor that turns a time at the measured host speed into one at the reference speed,
        where ``probe_op`` takes ``REFERENCE_OP_S``."""
        return REFERENCE_OP_S / self.op_s()
