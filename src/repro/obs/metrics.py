"""Process-local metrics registry for the observability subsystem.

Implements the first pillar of ``repro.obs``: a deterministic, in-memory
registry of counters and histograms that the engine, executor, shard
coordinator, serving daemon, and campaign harness increment while they
work.  The registry is *observational only* — nothing in it feeds back
into scheduling, channel RNG, or the trace, so enabling metrics never
perturbs ``Trace.fingerprint()`` or ``results.jsonl``.

Design points:

* **Closed catalog** — every metric name must appear in ``METRIC_NAMES``;
  recording an unknown name raises.  ``scripts/check_docs.py`` reads the
  tuple with ``ast`` and fails CI when a name is missing from
  ``docs/OBSERVABILITY.md``, so the catalog and the docs cannot drift.
* **Cheap when off** — instrumentation sites guard on the module-level
  ``ENABLED`` flag (set via :func:`enable` / :func:`disable`, or the
  ``FVN_OBS`` environment variable at import time), so disabled runs pay
  one attribute load + branch per site.
* **Cross-process merge** — shard workers and campaign pool workers keep
  their own registries (they are forked processes); the coordinator
  collects raw exports with :meth:`MetricsRegistry.export` /
  :meth:`MetricsRegistry.drain` and folds them in with
  :meth:`MetricsRegistry.merge`.  Histograms merge by concatenating raw
  observations; counters sum.
* **The cyclic collector** — while metrics are enabled one
  ``gc.callbacks`` hook counts CPython's collector passes and their
  seconds per generation (``engine.gc_*``), so a collection a profiler
  would charge to the allocation that set it off has a line of its own.
* **Deterministic snapshots** — :meth:`MetricsRegistry.snapshot` reports
  sorted keys and nearest-rank p50/p95, so two identical runs produce
  identical JSON (timings aside).

Public entry points: :func:`enable`, :func:`disable`, :func:`registry`,
:func:`inc`, :func:`observe`, :func:`scratch_registry`, and the
module-level :data:`METRIC_NAMES` catalog.
"""

from __future__ import annotations

import gc
import math
import os
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

#: Every metric the subsystem may record, grouped by layer.  Counters
#: carry a running total (integral but for ``engine.gc_time_*``, seconds);
#: histograms (``*_seconds``, ``*_size``, ``*_rounds``, ``*_cascade``) keep
#: raw observations for percentiles.
METRIC_NAMES = (
    # dn/engine.py + dn/executor.py
    "engine.events",
    "engine.flushes",
    "engine.rule_firings",
    "engine.fixpoint_rounds",
    "engine.delta_batch_size",
    "engine.retraction_cascade",
    "engine.sweep_checks",
    "engine.sweep_repairs",
    "engine.sends_netted",
    "engine.aggregate_groups",
    "engine.aggregate_full",
    # CPython's cyclic collector, per generation (a gc.callbacks hook): its
    # passes and the seconds they took, counters both
    "engine.gc_passes_gen0",
    "engine.gc_passes_gen1",
    "engine.gc_passes_gen2",
    "engine.gc_time_gen0",
    "engine.gc_time_gen1",
    "engine.gc_time_gen2",
    # dn/shard.py
    "shard.requests",
    "shard.request_seconds",
    "shard.respawns",
    "shard.flush_waves",
    "shard.wave_size",
    # serving/service.py
    "serving.updates",
    "serving.update_seconds",
    "serving.queries",
    "serving.query_seconds",
    "serving.settle_seconds",
    "serving.wal_append_seconds",
    "serving.snapshot_seconds",
    "serving.recovery_seconds",
    # harness/runner.py
    "harness.runs",
    "harness.run_seconds",
)

_KNOWN = frozenset(METRIC_NAMES)

#: Module-level fast-path switch.  Instrumentation sites check this before
#: touching the registry; :func:`inc` / :func:`observe` also check it so
#: call sites may skip the guard in cold paths.
ENABLED = os.environ.get("FVN_OBS", "") not in ("", "0")


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty): the histogram
    figures here and the per-cell ``p50``/``p95`` of a campaign summary."""

    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class MetricsRegistry:
    """Counters + raw-observation histograms with merge and snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._values: dict[str, list[float]] = {}

    # -- recording -----------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        if name not in _KNOWN:
            raise ValueError(f"unknown metric {name!r}; add it to METRIC_NAMES")
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        if name not in _KNOWN:
            raise ValueError(f"unknown metric {name!r}; add it to METRIC_NAMES")
        self._values.setdefault(name, []).append(value)

    def reset(self) -> None:
        self._counters.clear()
        self._values.clear()

    # -- cross-process transport ---------------------------------------
    def export(self) -> dict:
        """Raw state — counters plus every histogram observation.

        This is the cross-process wire format: shard workers return it
        from their ``metrics`` verb and campaign workers attach it to run
        records, so the coordinator can :meth:`merge` without losing
        percentile fidelity.
        """

        return {
            "counters": dict(self._counters),
            "values": {name: list(vals) for name, vals in self._values.items()},
        }

    def drain(self) -> dict:
        """:meth:`export` then :meth:`reset` — for repeated collection."""

        exported = self.export()
        self.reset()
        return exported

    def merge(self, exported: dict) -> None:
        """Fold another registry's :meth:`export` into this one."""

        for name, amount in exported.get("counters", {}).items():
            if name in _KNOWN:
                self._counters[name] = self._counters.get(name, 0) + amount
        for name, vals in exported.get("values", {}).items():
            if name in _KNOWN:
                self._values.setdefault(name, []).extend(vals)

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministically ordered summary: counters + histogram stats."""

        histograms = {}
        for name in sorted(self._values):
            vals = sorted(self._values[name])
            histograms[name] = {
                "count": len(vals),
                "sum": round(sum(vals), 6),
                "min": round(vals[0], 6),
                "max": round(vals[-1], 6),
                "p50": round(percentile(vals, 0.50), 6),
                "p95": round(percentile(vals, 0.95), 6),
            }
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "histograms": histograms,
        }


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry instrumentation records into."""

    return _registry


@contextmanager
def scratch_registry() -> Iterator[None]:
    """Record into a throwaway registry inside the block, and put the
    process registry back after it, also on an exception: work done on
    behalf of a hypothetical (a ``what_if`` fork) is not the process's."""

    global _registry
    live, _registry = _registry, MetricsRegistry()
    try:
        yield
    finally:
        _registry = live


#: the ``perf_counter`` reading at the start of the collection in progress
_gc_started = 0.0
_GC_PASSES = ("engine.gc_passes_gen0", "engine.gc_passes_gen1", "engine.gc_passes_gen2")
_GC_TIME = ("engine.gc_time_gen0", "engine.gc_time_gen1", "engine.gc_time_gen2")


def _on_collection(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: count each collector pass and its seconds
    under the generation it collected."""

    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    generation = info["generation"]
    _registry.inc(_GC_PASSES[generation])
    _registry.inc(_GC_TIME[generation], time.perf_counter() - _gc_started)


def enable() -> None:
    """Turn instrumentation on for this process (workers fork it on)."""

    global ENABLED
    ENABLED = True
    if _on_collection not in gc.callbacks:
        gc.callbacks.append(_on_collection)


def disable() -> None:
    global ENABLED
    ENABLED = False
    if _on_collection in gc.callbacks:
        gc.callbacks.remove(_on_collection)


if ENABLED:
    enable()  # ``FVN_OBS``: install the collector hook too


def inc(name: str, amount: float = 1) -> None:
    """Increment a counter iff metrics are enabled."""

    if ENABLED:
        _registry.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation iff metrics are enabled."""

    if ENABLED:
        _registry.observe(name, value)
