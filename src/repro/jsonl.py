"""Append-only JSON-lines journals, in canonical JSON.

The campaign harness's resume ledger (:mod:`repro.harness.records`) and
the serving daemon's write-ahead update ledger
(:mod:`repro.serving.service`) are both such journals, so a daemon boots
without loading the harness.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping


def canonical_json(data) -> str:
    """Deterministic single-line JSON (sorted keys, no stray whitespace)."""

    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def append_jsonl(path: Path, data: Mapping) -> None:
    """Append one canonical-JSON line to an append-only journal.

    The write is flushed before returning, so a SIGKILL loses at most the
    torn tail of the line being written — which :func:`read_jsonl` (and
    :func:`~repro.harness.records.read_ledger`) skip on recovery.
    """

    with path.open("a") as handle:
        handle.write(canonical_json(data) + "\n")
        handle.flush()


def read_jsonl(path: Path) -> list[dict]:
    """Read a journal written by :func:`append_jsonl`, skipping torn lines.

    Only the *final* line of a journal can legitimately be torn (appends
    are flushed whole); malformed lines anywhere are skipped with the same
    tolerance so a recovered file never wedges recovery.
    """

    records: list[dict] = []
    if not path.exists():
        return records
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail of a killed process
    return records
