"""Switching the program's own ``repro.obs`` on for a traced pass.

Both the registry and the tracer are drained after every op.  The tracer,
because each op's flush time is wanted on its own and its retention cap
(50 000 spans; an op records 10-250) then never fills: a tracer that does
drop spans makes the run incorrect rather than its shares silently low.  The
registry, because shard workers are forked from this process and hand their
whole registry back: a worker forked from a non-empty registry returns the
parent's counts a second time.  The drained registries are merged into one
that outlives the ops; only the first ops' program spans are kept for the
Chrome file, where two ops show the pattern and a full pass only adds bulk.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing

from .spans import SpanLog

#: ops whose program-side spans go into the Chrome trace
KEPT_OPS = 2


class ProgramObs:
    """``repro.obs`` enabled in this process (and in children forked from it)."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.kept: list[dict] = []
        self.merged = obs_metrics.MetricsRegistry()
        #: spans the program's tracer refused (over its cap) in any op; the
        #: span-derived shares are too low by their time, so the run says so
        self.dropped = 0
        self._ops_seen = 0
        self._epoch = perf_counter()
        obs_metrics.enable()
        obs_metrics.registry().reset()
        obs_tracing.enable()
        obs_tracing.tracer().reset()

    def begin_op(self) -> None:
        obs_metrics.registry().reset()
        obs_tracing.tracer().reset()
        self._epoch = perf_counter()

    def end_op(self) -> dict[str, float]:
        """Seconds per program span name recorded since :meth:`begin_op`."""

        self.merged.merge(obs_metrics.registry().drain())
        exported = obs_tracing.tracer().export()
        self.dropped += exported["dropped"]
        totals: dict[str, float] = {}
        for item in exported["spans"]:
            totals[item["name"]] = totals.get(item["name"], 0.0) + item["dur"] / 1e6
        if self._ops_seen < KEPT_OPS:
            shift = (self._epoch - self.log.epoch) * 1e6
            self.kept += [dict(item, ts=item["ts"] + shift) for item in exported["spans"]]
        self._ops_seen += 1
        return totals

    def snapshot(self) -> dict:
        return self.merged.snapshot()

    def close(self) -> None:
        obs_metrics.disable()
        obs_tracing.disable()


def histogram(snapshot: dict, name: str, stat: str) -> float:
    return snapshot["histograms"].get(name, {}).get(stat, 0.0)


def counter(snapshot: dict, name: str) -> float:
    return snapshot["counters"].get(name, 0.0)
