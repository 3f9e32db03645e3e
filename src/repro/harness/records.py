"""Per-run records and campaign artifact files.

Each executed run yields one :class:`RunRecord`.  The runner streams records
to two JSONL artifacts:

* ``ledger.jsonl`` — append-only, completion-ordered, includes wall-clock
  timing.  This is the **resume journal**: a killed campaign re-reads it and
  skips every run already on file (a torn final line from a hard kill is
  tolerated and re-executed).
* ``results.jsonl`` — written when the campaign finishes: one line per run
  in descriptor order, holding only the *deterministic* fields (everything
  except wall time) in canonical JSON.  Re-running the same spec produces a
  byte-identical ``results.jsonl``, which is what ``fvn-campaign diff``
  compares.

``summary.json`` aggregates the campaign (its ``cells``: per grid point
means over the seeds — not the runner's cells of runs that differ only in
churn — violation totals, wall time, worker count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

from ..jsonl import append_jsonl, canonical_json
from ..obs.metrics import percentile

LEDGER_NAME = "ledger.jsonl"
RESULTS_NAME = "results.jsonl"
SUMMARY_NAME = "summary.json"
SPEC_NAME = "spec.json"
#: merged per-run metric snapshot, written only for obs-enabled campaigns
METRICS_NAME = "metrics.json"


@dataclass
class RunRecord:
    """Everything observed about one campaign run."""

    run_id: str
    index: int
    params: dict
    seeds: dict
    quiescent: bool
    finished_at: float
    convergence_time: float
    events: int
    messages: int
    delivered_messages: int
    dropped_messages: int
    retraction_messages: int
    retractions: int
    state_changes: int
    route_count: int
    stale_routes: Optional[int]
    missing_routes: Optional[int]
    monitors: list = field(default_factory=list)
    monitors_ok: bool = True
    #: static-discharge provenance (proof scripts, algebra obligations)
    #: when the campaign ran with ``static_proofs``; ledger-only — popped
    #: from :meth:`deterministic_dict` so ``results.jsonl`` stays
    #: byte-identical to a fully runtime-monitored campaign
    static_proofs: Optional[dict] = None
    #: per-run observability block (``{"metrics": ..., "trace": ...}``)
    #: when the campaign ran with ``obs``; ledger-only — popped from
    #: :meth:`deterministic_dict` like ``static_proofs`` so obs-enabled
    #: campaigns keep ``results.jsonl`` byte-identical (docs/OBSERVABILITY.md)
    obs: Optional[dict] = None
    #: the digest of the program the run executed
    #: (``DistributedEngine.program_digest``); ledger-only, popped from
    #: :meth:`deterministic_dict` like ``static_proofs``: resume skips a
    #: run only when its params and this digest both still match
    program_digest: Optional[str] = None
    wall_time: float = 0.0
    #: ``"ok"`` or ``"crashed"`` (worker process died / raised); crashed
    #: runs stay in the ledger for the record but are re-executed on resume
    status: str = "ok"
    #: the traceback / cause when ``status != "ok"``
    error: Optional[str] = None

    # ------------------------------------------------------------------
    def deterministic_dict(self) -> dict:
        """The record without timing noise — byte-identical across re-runs."""

        out = self.to_dict()
        out.pop("wall_time", None)
        out.pop("static_proofs", None)
        out.pop("obs", None)
        out.pop("program_digest", None)
        return out

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "index": self.index,
            "params": self.params,
            "seeds": self.seeds,
            "quiescent": self.quiescent,
            "finished_at": self.finished_at,
            "convergence_time": self.convergence_time,
            "events": self.events,
            "messages": self.messages,
            "delivered_messages": self.delivered_messages,
            "dropped_messages": self.dropped_messages,
            "retraction_messages": self.retraction_messages,
            "retractions": self.retractions,
            "state_changes": self.state_changes,
            "route_count": self.route_count,
            "stale_routes": self.stale_routes,
            "missing_routes": self.missing_routes,
            "monitors": self.monitors,
            "monitors_ok": self.monitors_ok,
            "static_proofs": self.static_proofs,
            "obs": self.obs,
            "program_digest": self.program_digest,
            "wall_time": self.wall_time,
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        # keys absent from the data (ledgers written before a field
        # existed) fall back to the dataclass defaults
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})

    @classmethod
    def crashed(cls, run_id: str, index: int, params: dict, error: str) -> "RunRecord":
        """The containment record for a run whose worker died or raised:
        numeric fields zeroed, monitors empty, ``status="crashed"`` with the
        cause — enough for the ledger to stay complete and resumable."""

        return cls(
            run_id=run_id,
            index=index,
            params=params,
            seeds={},
            quiescent=False,
            finished_at=0.0,
            convergence_time=0.0,
            events=0,
            messages=0,
            delivered_messages=0,
            dropped_messages=0,
            retraction_messages=0,
            retractions=0,
            state_changes=0,
            route_count=0,
            stale_routes=None,
            missing_routes=None,
            monitors=[],
            monitors_ok=False,
            status="crashed",
            error=error,
        )

    # ------------------------------------------------------------------
    @property
    def first_violation_time(self) -> Optional[float]:
        times = [
            m["first_violation_time"]
            for m in self.monitors
            if m.get("first_violation_time") is not None
        ]
        return min(times) if times else None

    @property
    def violation_count(self) -> int:
        return sum(m.get("violations", 0) for m in self.monitors)

    @property
    def active_violation_count(self) -> int:
        return sum(m.get("active_at_end", 0) for m in self.monitors)


# ----------------------------------------------------------------------
# Ledger (resume journal)
# ----------------------------------------------------------------------

def append_ledger(path: Path, record: RunRecord) -> None:
    append_jsonl(path, record.to_dict())


def read_ledger(path: Path) -> dict[str, RunRecord]:
    """Completed runs by id; malformed (torn) lines are skipped."""

    records: dict[str, RunRecord] = {}
    if not path.exists():
        return records
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                record = RunRecord.from_dict(data)
            except (json.JSONDecodeError, TypeError):
                continue  # torn tail of a killed campaign; re-run that one
            if record.run_id is not None:
                records[record.run_id] = record
    return records


# ----------------------------------------------------------------------
# Deterministic results + summary
# ----------------------------------------------------------------------

def write_results(path: Path, records: Iterable[RunRecord]) -> None:
    ordered = sorted(records, key=lambda r: r.index)
    with path.open("w") as handle:
        for record in ordered:
            handle.write(canonical_json(record.deterministic_dict()) + "\n")


def read_results(path: Path) -> list[RunRecord]:
    records = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


def summarize(records: list[RunRecord]) -> dict:
    """Campaign-level aggregates.

    Everything except the wall-time percentiles is deterministic (a pure
    function of the deterministic record fields); ``p50_wall_time`` /
    ``p95_wall_time`` are 0.0 when records were re-read from
    ``results.jsonl``, which strips wall time.
    """

    def cell_key(record: RunRecord) -> str:
        params = record.params
        return (
            f"{params['family']}-{params['size']}"
            f"-{params['policy'] or 'none'}-c{params['churn_events']}"
            f"-l{params['loss']:g}-e{params['engine_index']}"
        )

    cells: dict[str, list[RunRecord]] = {}
    for record in records:
        cells.setdefault(cell_key(record), []).append(record)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    return {
        "runs": len(records),
        "crashed": sum(1 for r in records if r.status != "ok"),
        "quiescent": sum(1 for r in records if r.quiescent),
        "violations": sum(r.violation_count for r in records),
        "active_violations": sum(r.active_violation_count for r in records),
        "runs_with_violations": sum(1 for r in records if r.violation_count),
        "messages": sum(r.messages for r in records),
        "retraction_messages": sum(r.retraction_messages for r in records),
        "cells": {
            key: {
                "runs": len(group),
                "quiescent": sum(1 for r in group if r.quiescent),
                "mean_convergence_time": round(
                    mean(r.convergence_time for r in group), 6
                ),
                "mean_messages": round(mean(r.messages for r in group), 2),
                "p50_messages": round(percentile((r.messages for r in group), 0.50), 2),
                "p95_messages": round(percentile((r.messages for r in group), 0.95), 2),
                "p50_wall_time": round(percentile((r.wall_time for r in group), 0.50), 6),
                "p95_wall_time": round(percentile((r.wall_time for r in group), 0.95), 6),
                "violations": sum(r.violation_count for r in group),
                "active_violations": sum(r.active_violation_count for r in group),
                "stale_routes": sum(r.stale_routes or 0 for r in group),
            }
            for key, group in sorted(cells.items())
        },
    }
