"""Checksummed, fingerprint-stamped engine snapshots for daemon crash recovery.

A snapshot is a structured capture of a *settled* single-process engine —
scheduler clock and pending maintenance events, loss-channel RNG state,
topology, every node's tables (rows, support counts, soft-state deadlines
**and** hash-index buckets), monitor state, and the engine's :class:`~repro.dn.trace.Trace` —
stamped with the update sequence number and ``Trace.fingerprint()`` it was
taken at.  The serving settle loop compacts the trace
(:meth:`~repro.dn.trace.Trace.compact`), so what is captured of it is two
digest chains, the counters, and a sub-block tail of records — not the
history — and the whole snapshot is O(live state): its size does not grow
with the number of updates served.

On disk a snapshot is one header line, ``SNAPSHOT_FORMAT`` and the SHA-256
of the pickled body, followed by the body (:func:`seal_snapshot`).
:func:`open_snapshot` rejects anything else — a torn write, a flipped byte
anywhere in the body, or a file written by an older format — and the daemon
then recovers by full ledger replay.  Recovery from an accepted snapshot
rebuilds an engine from the capture, verifies the config and fingerprint
stamps, then replays the update-ledger tail; the crash-recovery tests
assert the result is byte-identical to an uninterrupted run.

Each node is captured by :meth:`~repro.dn.node.Node.export_state` and
restored by :meth:`~repro.dn.node.Node.load_state` — the same pair a
shard worker checkpoints and respawns with.  Index buckets travel verbatim
(lazily rebuilt ones could iterate joins in another order); aggregate view
memos do not travel at all.  A memo is a set, and a set rebuilt from a
pickle can iterate in another order than the live one, which would reorder
the retractions ``diff_rows`` emits from it; ``load_state`` instead
re-evaluates each aggregate rule against the restored tables, as the live
node's last recompute did.

Sharded engines keep authoritative state inside worker processes and are
not captured: ``capture_engine`` raises :class:`SnapshotUnsupported`, and
sharded daemons recover by full ledger replay instead.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import pickle
from typing import Optional

from ..dn.engine import DistributedEngine
from ..dn.events import Event
from ..dn.network import Link, Topology

#: Event kinds a settled engine may legitimately have queued: the periodic
#: soft-state maintenance timers.  Their callbacks are the engine's own
#: bound methods, so they can be reconstructed from the kind tag alone.
MAINTENANCE_KINDS = ("refresh", "expiry")


#: On-disk format tag, first token of a snapshot file's header line.  Bump
#: it whenever the pickled body changes shape: older files then fall back
#: to full ledger replay instead of being misread.  (``/6``: the Trace
#: holds ``fp3`` digest chains and plain-tuple tail records; ``/5`` carried
#: ``fp2`` chains and ``StateChange`` / ``MessageRecord`` tail records, with
#: table rows ``(key, values, count)`` and deadlines for soft-state tables
#: only; ``/4`` carried ``(key, values, inserted_at, expires_at, count)``
#: per row; ``/3`` pickled the Trace's records as dataclasses in bare lists.)
SNAPSHOT_FORMAT = "fvn-snapshot/6"


class SnapshotUnsupported(RuntimeError):
    """The engine's state cannot be captured (sharded, or mid-work)."""


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


def _maintenance_callbacks(engine: DistributedEngine) -> dict:
    return {
        "refresh": engine._refresh_base_facts,
        "expiry": engine._expire_soft_state,
    }


def capture_engine(engine: DistributedEngine) -> dict:
    """Structured state of a settled single-process engine.

    The capture shares no mutable containers with the live engine only
    where cheap; callers must serialize (pickle) it before the engine
    processes further updates.
    """

    if engine.config.shards > 1 or type(engine) is not DistributedEngine:
        raise SnapshotUnsupported(
            "snapshots require the single-process engine; sharded daemons "
            "recover by ledger replay"
        )
    sched = engine.scheduler
    if sched.running or engine.in_fixpoint:
        raise SnapshotUnsupported("cannot capture mid-run state")
    events = []
    for at, seqno, event in sched._queue:
        if event.kind not in MAINTENANCE_KINDS:
            raise SnapshotUnsupported(
                f"pending non-maintenance event {event.kind!r}: snapshot "
                "only at settled states"
            )
        events.append((at, seqno, event.kind))
    topology = engine.topology
    return {
        "scheduler": {
            "now": sched.now,
            "processed": sched.processed,
            # itertools.count cannot be peeked; consuming one value is
            # harmless since only relative sequence order matters
            "counter": next(sched._counter),
            "events": events,
        },
        "channel": {
            "random_state": engine.channel._random.getstate(),
            "dropped": engine.channel.dropped,
        },
        "trace": engine.trace,
        "topology": {
            "default_delay": topology.default_delay,
            "default_cost": topology.default_cost,
            "nodes": list(topology._nodes),
            "links": [
                (link.src, link.dst, link.cost, link.delay, link.loss, link.up)
                for link in topology._links.values()
            ],
        },
        "protected": sorted(engine.executor._protected),
        "base_facts": list(engine._base_facts),
        "nodes": {node_id: node.export_state() for node_id, node in engine.nodes.items()},
        "monitors": [
            {
                key: value
                for key, value in monitor.__dict__.items()
                if key not in ("_engine", "_key_getters")
            }
            for monitor in engine.monitors
        ],
    }


def build_topology(state: dict) -> Topology:
    """The captured topology, links in captured (deterministic) order."""

    topo_state = state["topology"]
    topology = Topology(
        default_delay=topo_state["default_delay"],
        default_cost=topo_state["default_cost"],
    )
    for node_id in topo_state["nodes"]:
        topology.add_node(node_id)
    for src, dst, cost, delay, loss, up in topo_state["links"]:
        topology._links[(src, dst)] = Link(src, dst, cost, delay, loss, up)
    return topology


def restore_engine(engine: DistributedEngine, state: dict) -> None:
    """Load a capture into a freshly constructed, *unseeded* engine whose
    program and topology match the capture (see :func:`build_topology`)."""

    sched_state = state["scheduler"]
    sched = engine.scheduler
    sched.now = sched_state["now"]
    sched.processed = sched_state["processed"]
    sched._counter = itertools.count(sched_state["counter"])
    callbacks = _maintenance_callbacks(engine)
    sched._queue = [
        (at, seqno, Event(kind, callbacks[kind]))
        for at, seqno, kind in sched_state["events"]
    ]
    heapq.heapify(sched._queue)

    engine.channel._random.setstate(state["channel"]["random_state"])
    engine.channel.dropped = state["channel"]["dropped"]
    engine.trace = state["trace"]

    for predicate in state["protected"]:
        engine._protect_predicate(predicate)
    engine._base_facts = [
        (node_id, predicate, tuple(values))
        for node_id, predicate, values in state["base_facts"]
    ]
    engine._seeded = True

    for node_id, node_state in state["nodes"].items():
        engine.nodes[node_id].load_state(node_state)


def restore_monitors(engine: DistributedEngine, state: dict) -> None:
    """Load captured monitor state into the engine's (freshly attached)
    monitors, positionally.  ``_engine`` and the unpicklable ``_key_getters``
    come from the fresh attach."""

    for monitor, captured in zip(engine.monitors, state["monitors"]):
        monitor.__dict__.update(captured)
