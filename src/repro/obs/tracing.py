"""Span-based tracing with Chrome trace-event export.

Second pillar of ``repro.obs``: wall-clock spans around the coarse stages
of a run — fixpoint flush waves, shard flush waves, WAL/snapshot writes,
serving recovery, and campaign run stages — collected into a
process-local :class:`Tracer` and exportable as Chrome trace-event JSON
(the ``chrome://tracing`` / Perfetto ``traceEvents`` format).  Like
metrics, tracing is observational only: spans read ``perf_counter`` and
append to a Python list, never touching the scheduler, channel RNG, or
trace fingerprint.

The span catalog is closed (``SPAN_NAMES``), checked against
``docs/OBSERVABILITY.md`` by ``scripts/check_docs.py``.  The tracer caps
retained spans (``MAX_SPANS``) and counts drops so a pathological run
cannot exhaust memory.

Public entry points: :func:`enable`, :func:`disable`, :func:`span`,
:func:`tracer`, :func:`chrome_trace`, and :func:`write_chrome_trace`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

#: Every span the subsystem may open.  Names follow the ``layer.stage``
#: convention used by the metric catalog.
SPAN_NAMES = (
    "engine.run",
    "engine.flush",
    "shard.flush_wave",
    "serving.recovery",
    "serving.update",
    "serving.settle",
    "serving.snapshot",
    "harness.run",
    "campaign.execute",
    "campaign.write_results",
)

_KNOWN = frozenset(SPAN_NAMES)

#: Retained-span cap; further spans only bump the drop counter.
MAX_SPANS = 50_000

ENABLED = os.environ.get("FVN_OBS", "") not in ("", "0")


class Tracer:
    """Collects ``(name, start, duration, args)`` spans on one process."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.reset()

    def reset(self) -> None:
        self.spans: list[dict] = []
        self.dropped = 0
        self._epoch = perf_counter()

    def record(self, name: str, start: float, duration: float, args: dict) -> None:
        if name not in _KNOWN:
            raise ValueError(f"unknown span {name!r}; add it to SPAN_NAMES")
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(
            {
                "name": name,
                # microseconds relative to the tracer epoch, as Chrome expects
                "ts": round((start - self._epoch) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": args,
            }
        )

    def export(self) -> dict:
        """Raw spans + drop count — the cross-process wire format."""

        return {"spans": list(self.spans), "dropped": self.dropped}


_tracer = Tracer()


def tracer() -> Tracer:
    """The process-global tracer spans record into."""

    return _tracer


def enable() -> None:
    global ENABLED
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


class _Span:
    """One timed block: recorded into the tracer when it exits, also on an
    exception."""

    __slots__ = ("name", "args", "start")

    def __init__(self, name: str, args: dict) -> None:
        self.name = name
        self.args = args

    def __enter__(self) -> None:
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        _tracer.record(self.name, self.start, perf_counter() - self.start, self.args)


class _NoSpan:
    """The block of a disabled tracer: enters and exits, records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


#: what :func:`span` returns while tracing is off: one shared object, so a
#: disabled span builds no generator and no frame
_NO_SPAN = _NoSpan()


def span(name: str, **args: object):
    """Time a block as one span; a no-op when tracing is disabled.  A
    caller that formats arguments only for the span tests :data:`ENABLED`
    first."""

    if not ENABLED:
        return _NO_SPAN
    return _Span(name, args)


def chrome_trace(processes: list[tuple[str, dict]]) -> dict:
    """Assemble exported span sets into one Chrome trace-event document.

    ``processes`` maps display labels to :meth:`Tracer.export` payloads;
    each label becomes a Chrome "process" (``pid`` + ``process_name``
    metadata) so per-run or per-worker timelines stay separable in the
    viewer.
    """

    events: list[dict] = []
    dropped = 0
    for pid, (label, exported) in enumerate(processes):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        dropped += exported.get("dropped", 0)
        for item in exported.get("spans", ()):
            events.append(
                {
                    "name": item["name"],
                    "ph": "X",
                    "ts": item["ts"],
                    "dur": item["dur"],
                    "pid": pid,
                    "tid": 0,
                    "args": item.get("args", {}),
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "fvn repro.obs", "dropped_spans": dropped},
    }


def write_chrome_trace(path: str | Path, processes: list[tuple[str, dict]]) -> Path:
    """Write :func:`chrome_trace` JSON to ``path`` (parents created)."""

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(chrome_trace(processes), sort_keys=True))
    return target
