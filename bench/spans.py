"""Bench-side spans around every call the generator makes into a layer.

Spans are kept in memory and written once, at the end of a traced run, as
Chrome trace-event JSON (by ``repro.obs.tracing``'s writer) next to whatever
spans the program's own tracer recorded.  Untraced runs use
:class:`NullSpans`, whose ``span`` is a shared no-op context manager.

The repo tracer's span catalog is closed to its own names, which is why the
benchmark keeps its own log instead of recording into it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Iterator, Optional

#: name of the span that wraps one op; its children are the layer calls
OP = "op"


class NullSpans:
    """The untraced stand-in: records nothing."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str, **args: object):
        return self._noop


class SpanLog:
    """``(name, start, end, parent)`` records with self-time accounting."""

    enabled = True

    def __init__(self) -> None:
        self.epoch = perf_counter()
        #: [name, start, end, parent index or None, args]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), 0.0, parent, args]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> None:
        """Record a span timed elsewhere (program-side spans, callbacks)."""

        self.spans.append([name, start, end, parent, {}])

    # -- analysis ------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, in recording order."""

        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_seconds(self) -> dict[str, float]:
        """Per name: span time minus the time its direct children cover."""

        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
        return out

    def op_coverage(self) -> float:
        """Smallest share of an op span covered by its child spans (the
        ``check`` command wants >= 0.95: no layer call goes unwrapped)."""

        covered = {i: 0.0 for i, record in enumerate(self.spans) if record[0] == OP}
        for _, start, end, parent, _ in self.spans:
            if parent in covered:
                covered[parent] += end - start
        shares = [
            covered[i] / (self.spans[i][2] - self.spans[i][1])
            for i in covered
            if self.spans[i][2] > self.spans[i][1]
        ]
        return min(shares) if shares else 1.0

    # -- export --------------------------------------------------------
    def export(self) -> dict:
        """The spans in ``repro.obs.tracing``'s wire format (what
        ``Tracer.export`` returns), so its Chrome writer serves both logs."""

        return {
            "spans": [
                {
                    "name": name,
                    "ts": round((start - self.epoch) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": args,
                }
                for name, start, end, _, args in self.spans
            ],
            "dropped": 0,
        }
