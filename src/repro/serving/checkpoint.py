"""The sealed snapshot file a serving daemon recovers from.

A snapshot body is a dict: the engine's capture
(:meth:`~repro.dn.engine.DistributedEngine.capture`, on any shard count),
stamped with the update sequence number, ``Trace.fingerprint()`` and the
config it was taken at, plus the dedup acks.  The serving settle loop
compacts the trace, so the capture holds two digest chains, the counters
and a sub-block tail of records, not the history: a snapshot is O(live
state) however many updates the daemon has served.

On disk a snapshot is one header line, ``SNAPSHOT_FORMAT`` and the SHA-256
of the pickled body, followed by the body (:func:`seal_snapshot`).
:func:`open_snapshot` rejects anything else — a torn write, a flipped byte
anywhere in the body, or a file written by an older format — and the daemon
then recovers by full ledger replay.  An accepted snapshot is loaded by
:func:`~repro.dn.engine.restore_engine` (which refuses a capture whose
program digest is not the daemon's), checked against its config and
fingerprint stamps, and the update-ledger tail is replayed on top; the
crash-recovery tests assert the result is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Optional

#: On-disk format tag, first token of a snapshot file's header line.  Bump
#: it whenever the pickled body changes shape: older files then fall back
#: to full ledger replay instead of being misread.  (``/12``: the engine
#: capture carries its program digest, and a capture of another program is
#: refused for full replay; a ``/11`` capture named no program.  Since
#: ``/11`` each table capture is its rows and deadlines only; a ``/10``
#: table also carried the position sets of its hash indexes, which a load
#: rebuilt.  Since ``/10``
#: monitor state pickles its classes by their home in
#: :mod:`repro.dn.monitors`; a ``/9`` body named ``repro.fvn.monitors``,
#: which no longer exists, so loading it would fail instead of falling
#: back.  Since ``/9`` the engine
#: capture holds the whole event queue as data, open waves, pending ops and
#: flush marks, so an unsettled engine snapshots too; ``/8`` held the
#: maintenance timers' kinds only.  Since ``/8`` each table carries its
#: index positions, and its buckets are rebuilt from the rows; ``/7``
#: pickled every hash-index bucket.  Since ``/7`` monitor state
#: holds violations only, as monitors read the engine's tables; ``/6`` also
#: pickled each monitor's mirror of the tables it watched.  Since ``/6``
#: the Trace holds ``fp3`` digest chains and plain-tuple tail records;
#: ``/5`` carried ``fp2`` chains and ``StateChange`` / ``MessageRecord``
#: tail records, with table rows ``(key, values, count)`` and deadlines for
#: soft-state tables only; ``/4`` carried ``(key, values, inserted_at,
#: expires_at, count)`` per row; ``/3`` pickled the Trace's records as
#: dataclasses in bare lists.)
SNAPSHOT_FORMAT = "fvn-snapshot/12"


def _header(body: bytes) -> bytes:
    return f"{SNAPSHOT_FORMAT} {hashlib.sha256(body).hexdigest()}".encode()


def seal_snapshot(snapshot: dict) -> bytes:
    """The snapshot's file bytes: format + body-checksum header line, then
    the pickled body."""

    body = pickle.dumps(snapshot)
    return _header(body) + b"\n" + body


def open_snapshot(data: bytes) -> Optional[dict]:
    """The snapshot sealed in ``data``, or None when it is not an intact
    file of the current format (truncated, corrupted, or older)."""

    header, _, body = data.partition(b"\n")
    if header != _header(body):
        return None
    return pickle.loads(body)
