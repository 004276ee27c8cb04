"""Spans around the calls into each layer of ``qtcatalan``, recorded from outside.

The tracer replaces every binding of each listed function in every loaded
``qtcatalan`` module: ``from .cones import series_expand`` binds the same
function again in ``verify``, and replacing only ``cones.series_expand``
would miss those calls.  Methods are replaced on their class.

A span is ``[name, parent index, start ns, end ns]``; spans stay in memory
and are written out by :meth:`Tracer.write` after the sample.  A generator's
span covers the time spent inside each of its resumptions, one span per
item, not the call that creates it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# An optional (counter name, count(args, result)) summed over a function's
# calls; for a generator, count(args, item) is summed over the items it yields.
Counter = Optional[Tuple[str, Callable]]


def _terms(poly) -> int:
    return len(getattr(poly, "terms", ()))


# layer module -> the functions traced in it, each with its counter
TRACED: Dict[str, Tuple[Tuple[str, Counter], ...]] = {
    "paths": (
        ("enumerate_paths", ("paths", lambda args, item: 1)),
        ("path_stats", None),
    ),
    "polynomial": (
        ("LaurentPoly.extract_coefficient", ("terms_scanned", lambda args, result: _terms(args[0]))),
    ),
    "cones": (
        ("series_expand", ("terms_out", lambda args, result: _terms(result))),
        ("parallelepiped_points", ("points", lambda args, result: len(result))),
        ("lattice_index", None),
        ("gf_equals", None),
    ),
    "catalog": (
        ("assemble_theorem", None),
        ("assemble_case", None),
        ("signed_multiplicity", None),
        ("case_membership", None),
    ),
    "verify": (
        ("verify_theorem", None),
        ("series_matches_paths", None),
        ("refined_catalan", None),
    ),
    "cli": (("main", None),),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []

    def install(self) -> None:
        """Wrap every listed function that exists; note the rest as absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qtcatalan" or n.startswith("qtcatalan."))]
        for layer, entries in TRACED.items():
            home = sys.modules.get(f"qtcatalan.{layer}")
            for qualname, counter in entries:
                name = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name, None)
                    original = vars(owner).get(attr) if isinstance(owner, type) else None
                    if original is None:
                        self.absent.append(name)
                        continue
                    setattr(owner, attr, self._wrap(name, original, counter))
                    continue
                original = getattr(home, qualname, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, counter: Counter) -> Callable:
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        calls = f"{name}.calls"

        tally = f"{name}.{counter[0]}" if counter else None
        count = counter[1] if counter else None

        if inspect.isgeneratorfunction(fn):

            def resume(it, args):
                while True:
                    record = [name, stack[-1], clock(), 0]
                    stack.append(len(spans))
                    spans.append(record)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        record[3] = clock()
                        stack.pop()
                    if tally:
                        counts[tally] += count(args, item)
                    yield item

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                counts[calls] += 1
                return resume(fn(*args, **kwargs), args)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            record = [name, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if tally:
                counts[tally] += count(args, result)
            return result

        return wrapper

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, int] = defaultdict(int)
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            totals[name] += end - start - inner
        return {name: ns / 1e9 for name, ns in totals.items()}

    def write(self, path: str) -> None:
        """One line per span: index, parent index, name, start ns, end ns."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")
