"""Outside-in span recorder: times calls into the package's public functions.

A ``Tracer`` rebinds each traced function in every ``gibbslines`` module
namespace that holds it (and on its class, for methods), so calls made
between modules are timed too.  Each call leaves one span: name, start,
end, parent span and operation id.  Spans stay in memory; ``self_times``
turns them into per-name self times once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_walls: dict[int, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span called ``name``; ``count(tracer, args,
        kwargs, result, exc)`` may add to ``tracer.counters`` afterwards.
        Calls made outside an operation (by the bench's own checks) pass
        through unrecorded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
                tracer.counters[name + ".calls"] += 1
                if count is not None:
                    count(tracer, args, kwargs, result, exc)

        return traced

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as operation ``op_id``, recording its wall time."""
        self.op = op_id
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.op_walls[op_id] = time.perf_counter() - start
            self.op = -1

    # -- installing --------------------------------------------------------
    def install(self, targets) -> None:
        """Trace ``(owner, attribute, span name, counter)`` targets.

        A module-level function is replaced in every loaded ``gibbslines``
        module that refers to the same object; a class attribute is replaced
        on the class.
        """
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, count)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if key == "gibbslines" or key.startswith("gibbslines.")
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds spent in each span name, minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return out

    def unattributed(self) -> float:
        """Operation wall time not covered by any top-level span."""
        covered = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        return sum(self.op_walls.values()) - covered
