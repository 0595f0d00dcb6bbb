"""Spans recorded from outside the library, around the calls into each layer.

No library file is touched.  Pipeline stages are timed by ``Tracer.call``,
backend primitives through subclasses of the three space classes (they pass
``build_witness``'s ``isinstance`` check), and probe curves through a wrapped
generator.  Each span records its name, start, end and parent span, plus the
request (benchmark operation) it belongs to.  Self time is a span's duration
minus the time its child spans cover; children of one span never overlap in
this single-threaded pipeline, so that is the sum of their durations.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dualitymap.c01 import C01Space, PwlFunction, RcaMeasure
from dualitymap.coderivative import ProbeCurve
from dualitymap.l1 import FiniteMeasureSpace
from dualitymap.lp import LpSpace

PRIMITIVES = ("norm", "dual_norm", "pair", "sub", "dual_sub", "is_member", "canonical_dual")
BACKEND_CLASSES = ((LpSpace, "lp"), (FiniteMeasureSpace, "l1"), (C01Space, "c01"))

# Spans kept for the trace file; every span still counts in the aggregates.
MAX_KEPT_SPANS = 200_000


def _elements(arg) -> int:
    """Coordinates, atoms or breakpoints carried by one primitive argument."""
    if isinstance(arg, PwlFunction):
        return arg.breakpoints.size
    if isinstance(arg, RcaMeasure):
        return len(arg.atoms) + (0 if arg.density is None else arg.density.breakpoints.size)
    if isinstance(arg, (np.ndarray, list, tuple)):
        return len(arg)
    return 0


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.spans = []  # (request, span id, parent id, name, start, end)
        self.dropped = 0
        self.request = 0  # the benchmark operation the next spans belong to
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []  # [span id, child seconds]
        self._last_id = 0
        self._classes = {base: self._traced_class(base, backend) for base, backend in BACKEND_CLASSES}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        self._last_id += 1
        frame = [self._last_id, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except ValueError:
            self.failed[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            duration = end - start
            parent = 0
            if self._open:
                self._open[-1][1] += duration
                parent = self._open[-1][0]
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - frame[1]
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((self.request, frame[0], parent, name, start, end))
            else:
                self.dropped += 1

    def _traced_class(self, base, backend: str):
        def timed(prim):
            name = f"{backend}.{prim}"
            method = getattr(base, prim)
            elements = f"{backend}.elements"

            def wrapper(space, *args, **kwargs):
                self.counts[elements] += sum(_elements(a) for a in args)
                return self.call(name, method, space, *args, **kwargs)

            return wrapper

        namespace = {prim: timed(prim) for prim in PRIMITIVES}
        if base is LpSpace:
            # LpSpace.duality is the same map as its canonical_dual; the catalog
            # and the battery call it by that name.
            namespace["duality"] = namespace["canonical_dual"]
        return type(f"Traced{base.__name__}", (base,), namespace)

    def space(self, space):
        """The same space as an instance of its timing subclass."""
        cls = self._classes[type(space)]
        return cls(**{f.name: getattr(space, f.name) for f in dataclasses.fields(space)})

    def curve(self, curve: ProbeCurve) -> ProbeCurve:
        """The same probe curve with each generator evaluation in a span."""
        generator = curve.generator
        return ProbeCurve(
            curve.curve_id, lambda t: self.call("witnesses.curve", generator, t), curve.t_max
        )

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        with path.open("w") as out:
            for request, span, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"request": request, "id": span, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
