"""Call recording from outside the program: operation timers and layer spans.

Both work by replacing an entry point on the object its caller looks it up
on (a module attribute or a class attribute) with a wrapper, and restoring
the original afterwards.  Nothing inside ``src/varmcf`` is changed.

``Ops`` times the calls that count as the workload's operations (a flow
step inside ``evolve``, a distance computation) and keeps their arguments
and results for the correctness checks.  ``Tracer`` records one span per
call into a layer (name, start, end, parent span, a count) in memory; a
layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


def patch(owner, attr: str, make_wrapper) -> tuple:
    """Replace ``owner.attr`` by ``make_wrapper(original)``; return the undo record.

    Class-level classmethods and staticmethods are re-installed as a
    staticmethod around the bound original, so ``Cls.attr(...)`` keeps
    its call signature.
    """
    raw = vars(owner)[attr]
    wrapper = make_wrapper(getattr(owner, attr))
    if isinstance(raw, (classmethod, staticmethod)):
        wrapper = staticmethod(wrapper)
    setattr(owner, attr, wrapper)
    return owner, attr, raw


def unpatch(records: list) -> None:
    while records:
        owner, attr, raw = records.pop()
        setattr(owner, attr, raw)


@dataclass
class Call:
    kind: str
    args: tuple
    result: object
    seconds: float


class Ops:
    """Times every call to the workload's operation entry points."""

    def __init__(self):
        self.calls: list[Call] = []
        self._undo: list = []

    def wrap(self, owner, attr: str, kind: str) -> None:
        def make(target):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                result = target(*args, **kwargs)
                self.calls.append(Call(kind, args, result, time.perf_counter() - start))
                return result

            return timed

        self._undo.append(patch(owner, attr, make))

    def close(self) -> None:
        unpatch(self._undo)


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    count: int = 0


class Tracer:
    """In-memory span recorder for calls into the layers of varmcf."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span per call; ``count(args, result)`` gives its count (default 1)."""
        spans, stack = self.spans, self._stack

        def make(target):
            def traced(*args, **kwargs):
                span = Span(name, stack[-1] if stack else -1)
                stack.append(len(spans))
                spans.append(span)
                span.start = time.perf_counter()
                try:
                    result = target(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                span.count = 1 if count is None else int(count(args, result))
                return result

            return traced

        self._undo.append(patch(owner, attr, make))

    def close(self) -> None:
        unpatch(self._undo)

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name: summed self time, summed count and calls over spans[lo:hi]."""
        hi = len(self.spans) if hi is None else hi
        covered = {}
        for i in range(lo, hi):
            p = self.spans[i].parent
            if p >= lo:
                covered[p] = covered.get(p, 0.0) + self.spans[i].end - self.spans[i].start
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            s = self.spans[i]
            row = out.setdefault(s.name, {"self_s": 0.0, "count": 0, "calls": 0})
            row["self_s"] += (s.end - s.start) - covered.get(i, 0.0)
            row["count"] += s.count
            row["calls"] += 1
        return out

    def write(self, path, phases: list[tuple[str, int, int]]) -> None:
        """Write the spans as JSON lines, tagged with the phase (set-up or round) they belong to."""
        with open(path, "w") as fh:
            for phase, lo, hi in phases:
                for i in range(lo, hi):
                    fh.write(json.dumps({"phase": phase, "id": i, **asdict(self.spans[i])}) + "\n")
