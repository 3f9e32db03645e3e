"""Execution traces and convergence analysis for distributed runs.

The distributed runtime records every state change and every message into a
:class:`Trace`.  Experiments read the trace to report the quantities the
paper's evaluation discusses: convergence time, message counts, and whether
an execution converged at all (the Disagree scenario's delayed or absent
convergence, Section 3.2.2).

**Fingerprint (``fp3``).**  :meth:`Trace.fingerprint` is a *fold* over the
two record streams: every whole block of :attr:`Trace.FOLD_BLOCK` records is
chained into a 32-byte digest (``chain = sha256(chain ‖ block)``), the
sub-block tail stays as records, and the value is ``sha256("fp3:" ‖
chain_changes ‖ tail ‖ chain_messages ‖ tail ‖ repr((events_processed,
finished_at, quiescent, seeds)))``.  Blocks sit at fixed record indices, so
the value is a pure function of the record streams — it does not depend on
when (or whether) :meth:`~Trace.fingerprint` / :meth:`~Trace.compact` ran
before.  Folding is lazy: ``record_change`` / ``record_message`` are plain
appends, and each record is hashed once, by the first ``fingerprint()`` or
``compact()`` after it.

A block's (and a tail's) bytes are ``marshal.dumps(records, 2)`` of its list
of records, each record a plain tuple.  Marshal version 2 writes no
back-references, so its output depends on the values alone — not on object
identity, sharing or interning — and it is the same on a coordinator's
unpickled copies; numbers are written in binary, and the encoding is
prefix-free.  (``pickle`` and marshal versions 3+ keep memo/ref tables that
depend on object sharing, so two equal executions could hash differently.)
Its value domain is the exact built-in types: ``None``, ``bool``, ``int``,
``float``, ``str``, ``bytes`` and tuples of them.  A block holding anything
else — a namedtuple node id, a ``Fraction`` cost — is encoded as
``marshal.dumps(repr(records), 2)`` instead: the values choose the
encoding, and a marshalled ``str`` starts with ``u`` where a list starts
with ``[``, so the two never collide.  (``fp2`` hashed ``repr(records)``:
the same records, other bytes.)

**Compaction.**  :meth:`Trace.compact` folds and then *drops* the folded
records; the counts (``state_change_count``, ``message_count``,
``delivered_message_count``, ``retraction_count``,
``retraction_message_count``), ``last_change_time()`` and
``convergence_time()`` stay exact as counters.  Every engine compacts at
the start of each ``run()``, so a long-lived engine holds the records of
its current run (plus a sub-block tail of the one before), never its whole
history; the serving daemon also compacts after every settle, since it
drives the scheduler without ``run()``.  ``state_changes`` and
``messages`` are read-only views (:class:`RecordView`) indexed from the
start of the execution: ``len()`` counts every record,
``trace.state_changes[before:]`` is exact for any ``before`` at or past
:attr:`RecordView.dropped` (the count taken before a ``run()`` always
is), and a read that needs a dropped
record — an index below it, plain iteration, the history queries
(``changes_for``, ``messages_between``, …) — raises
:class:`TraceCompacted` rather than answer from the tail.
"""

from __future__ import annotations

import hashlib
import marshal
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, NamedTuple, Optional

from .network import NodeId

#: ``StateChange.kind`` values that remove a tuple.
RETRACTION_KINDS = frozenset(("delete", "expire", "retract"))

#: the fingerprint's version tag, hashed first: a new fold definition bumps it
FINGERPRINT_TAG = "fp3"


class StateChange(NamedTuple):
    """One tuple insertion/replacement/deletion at a node.

    ``kind`` distinguishes base-fact removals (``delete``), soft-state
    expiry (``expire``), and the retraction of *derived* tuples whose last
    supporting derivation disappeared (``retract``).
    """

    time: float
    node: NodeId
    predicate: str
    values: tuple
    kind: str = "insert"  # insert | replace | delete | expire | retract

    # a record reads as the plain tuple the trace stores
    __repr__ = tuple.__repr__


class MessageRecord(NamedTuple):
    """One tuple shipment between nodes.

    ``kind`` is ``assert`` for a derived-tuple announcement and ``retract``
    for a deletion delta withdrawing a previously shipped derivation.
    """

    time: float
    src: NodeId
    dst: NodeId
    predicate: str
    values: tuple
    delivered: bool = True
    kind: str = "assert"  # assert | retract

    __repr__ = tuple.__repr__


def _encode(records: list) -> bytes:
    """Canonical bytes of a run of plain-tuple records (what the fingerprint
    hashes): marshal version 2, or the marshalled ``repr`` for values
    outside marshal's domain."""

    try:
        return marshal.dumps(records, 2)
    except ValueError:
        return marshal.dumps(repr(records), 2)


class TraceCompacted(RuntimeError):
    """A read of trace records that ``Trace.compact()`` dropped."""


@dataclass(slots=True)
class _Stream:
    """One record stream: the records still held, and where the stream
    stands — records before ``dropped`` are gone from ``records``, records
    before ``folded`` are hashed into ``chain``, records before ``tallied``
    are covered by the trace's counters.  All three count from the start of
    the execution; plain picklable data."""

    records: list = field(default_factory=list)
    chain: bytes = bytes(32)
    folded: int = 0
    dropped: int = 0
    tallied: int = 0

    def fold(self, block: int) -> None:
        records = self.records
        start = self.folded - self.dropped
        while len(records) - start >= block:
            digest = hashlib.sha256(self.chain)
            digest.update(_encode(records[start : start + block]))
            self.chain = digest.digest()
            start += block
        self.folded = self.dropped + start

    def unfolded(self) -> list:
        return self.records[self.folded - self.dropped :]

    def untallied(self) -> list:
        new = self.records[self.tallied - self.dropped :]
        self.tallied = self.dropped + len(self.records)
        return new

    def drop_folded(self) -> None:
        del self.records[: self.folded - self.dropped]
        self.dropped = self.folded


class RecordView(Sequence):
    """A read-only view of one record stream, indexed from the start of the
    execution.  ``len()`` counts every record ever made; records below
    :attr:`dropped` were folded away by :meth:`Trace.compact`, and any read
    that needs one raises :class:`TraceCompacted`.  The stream stores plain
    tuples; a read returns each as its record type (``StateChange`` /
    ``MessageRecord``).  Slices are lists."""

    __slots__ = ("_stream", "_wrap")

    def __init__(self, stream: _Stream, record_type: type) -> None:
        self._stream = stream
        self._wrap = partial(tuple.__new__, record_type)  # skips the generated __new__

    @property
    def dropped(self) -> int:
        """Absolute index of the first record still held."""

        return self._stream.dropped

    def __len__(self) -> int:
        return self._stream.dropped + len(self._stream.records)

    def _need(self, index: int) -> None:
        if index < self._stream.dropped:
            raise TraceCompacted(
                f"Trace.compact() dropped the first {self._stream.dropped} "
                f"records of this stream and record {index} is among them; "
                "reads never answer from the surviving tail (counts, "
                "last_change_time() and convergence_time() stay exact, and "
                "the records of the current run() start at the count taken "
                "before it)"
            )

    def __iter__(self):
        self._need(0)
        return map(self._wrap, self._stream.records)

    def __getitem__(self, index):
        records, dropped = self._stream.records, self._stream.dropped
        if isinstance(index, slice):
            indices = range(*index.indices(len(self)))
            if not indices:
                return []
            self._need(min(indices[0], indices[-1]))
            if indices.step == 1:
                return list(
                    map(self._wrap, records[indices.start - dropped : indices.stop - dropped])
                )
            return [self._wrap(records[i - dropped]) for i in indices]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace record index out of range")
        self._need(index)
        return self._wrap(records[index - dropped])


@dataclass
class Trace:
    """Everything observable about one distributed execution."""

    #: records per chained fingerprint block (part of the fp3 definition)
    FOLD_BLOCK: ClassVar[int] = 256

    events_processed: int = 0
    finished_at: float = 0.0
    quiescent: bool = False
    #: Effective RNG seeds of the run (``engine_config`` is the seed the
    #: caller asked for — possibly None — and ``channel`` the seed the loss
    #: channel actually used; harness runs add ``scenario``).  Replaying a
    #: run with ``EngineConfig(seed=trace.seeds["channel"])`` reproduces the
    #: exact loss/delivery pattern even when the original seed was None.
    seeds: dict = field(default_factory=dict)

    # the record streams with their fold state, and the counters; advanced
    # lazily by fingerprint()/compact() and the counter properties — never
    # by record_change/record_message
    _changes: _Stream = field(default_factory=_Stream, repr=False)
    _messages: _Stream = field(default_factory=_Stream, repr=False)
    _retractions: int = field(default=0, repr=False, compare=False)
    _delivered: int = field(default=0, repr=False, compare=False)
    _retract_messages: int = field(default=0, repr=False, compare=False)
    _last_change: dict = field(default_factory=dict, repr=False, compare=False)

    # -- recording ---------------------------------------------------------
    def record_change(
        self, time: float, node: NodeId, predicate: str, values: tuple, kind: str = "insert"
    ) -> None:
        self._changes.records.append((time, node, predicate, values, kind))

    def change_sink(self) -> list:
        """The list :meth:`record_change` appends to: appending a ``(time,
        node, predicate, values, kind)`` tuple records a change, so an
        executor's settle records a batch with one ``extend``.  Valid until
        the trace is restored or replaced (compaction drops records in
        place)."""

        return self._changes.records

    def message_sink(self) -> list:
        """The list :meth:`record_message` appends ``(time, src, dst,
        predicate, values, delivered, kind)`` tuples to (see
        :meth:`change_sink`)."""

        return self._messages.records

    def record_message(
        self,
        time: float,
        src: NodeId,
        dst: NodeId,
        predicate: str,
        values: tuple,
        delivered: bool = True,
        kind: str = "assert",
    ) -> None:
        self._messages.records.append((time, src, dst, predicate, values, delivered, kind))

    @property
    def state_changes(self) -> RecordView:
        """Every recorded state change, by absolute index (see
        :class:`RecordView`)."""

        return RecordView(self._changes, StateChange)

    def changes_since(self, index: int) -> list[tuple]:
        """The state changes recorded from absolute index ``index`` on, as
        the plain ``(time, node, predicate, values, kind)`` tuples the
        trace stores (what a :class:`StateChange` reads by position), with
        no per-record wrapping."""

        self.state_changes._need(index)
        return self._changes.records[index - self._changes.dropped :]

    @property
    def messages(self) -> RecordView:
        """Every recorded message, by absolute index."""

        return RecordView(self._messages, MessageRecord)

    # -- counters (exact on a compacted trace) -------------------------------
    def _tally(self) -> None:
        """Advance the counters over the records appended since last time."""

        last = self._last_change
        for time, _, predicate, _, kind in self._changes.untallied():
            if kind in RETRACTION_KINDS:
                self._retractions += 1
            seen = last.get(predicate)
            if seen is None or time > seen:
                last[predicate] = time
        for _, _, _, _, _, delivered, kind in self._messages.untallied():
            if delivered:
                self._delivered += 1
            if kind == "retract":
                self._retract_messages += 1

    @property
    def message_count(self) -> int:
        return self._messages.dropped + len(self._messages.records)

    @property
    def delivered_message_count(self) -> int:
        self._tally()
        return self._delivered

    @property
    def state_change_count(self) -> int:
        return self._changes.dropped + len(self._changes.records)

    @property
    def retraction_count(self) -> int:
        """State changes that removed a tuple (delete / expire / retract)."""

        self._tally()
        return self._retractions

    @property
    def retraction_message_count(self) -> int:
        """Messages withdrawing a previously shipped derivation."""

        self._tally()
        return self._retract_messages

    def _last_time(self, predicate: Optional[str]) -> Optional[float]:
        self._tally()
        if predicate is not None:
            return self._last_change.get(predicate)
        return max(self._last_change.values(), default=None)

    def last_change_time(self, predicate: Optional[str] = None) -> float:
        """Time of the last state change (optionally for one predicate)."""

        last = self._last_time(predicate)
        return 0.0 if last is None else last

    def convergence_time(self, predicate: Optional[str] = None, since: float = 0.0) -> float:
        """Convergence time = last state change at or after ``since``,
        measured from ``since`` (0.0 when nothing changed since then).

        Only meaningful when the run ended quiescent; callers should check
        :attr:`quiescent` (a non-quiescent run hit its time/event budget,
        i.e. it had not converged when observation stopped).
        """

        last = self._last_time(predicate)
        return 0.0 if last is None or last < since else last - since

    # -- history queries (need every record of their stream) ------------------
    @property
    def compacted(self) -> bool:
        """Has :meth:`compact` dropped records (are the views incomplete)?"""

        return bool(self._changes.dropped or self._messages.dropped)

    def changes_of_kind(self, kind: str) -> list[StateChange]:
        return [c for c in self.state_changes if c.kind == kind]

    def retraction_messages(self) -> list[MessageRecord]:
        return [m for m in self.messages if m.kind == "retract"]

    def messages_between(self, start: float, end: float) -> int:
        return sum(1 for m in self.messages if start <= m.time < end)

    def changes_for(self, predicate: str) -> list[StateChange]:
        return [c for c in self.state_changes if c.predicate == predicate]

    def changes_at(self, node: NodeId) -> list[StateChange]:
        return [c for c in self.state_changes if c.node == node]

    def message_histogram(self, bucket: float = 1.0) -> dict[int, int]:
        """Messages per time bucket (for plotting convergence activity)."""

        hist: dict[int, int] = {}
        for m in self.messages:
            index = int(m.time // bucket)
            hist[index] = hist.get(index, 0) + 1
        return hist

    # -- fingerprint ---------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 digest (``fp3``) of everything observable about the
        execution.

        Canonicalizes the full state-change and message streams (in
        recorded order), the event/budget accounting, and the seeds.  Two
        runs are byte-identical executions iff their fingerprints match —
        this is the equality the sharded engine's determinism contract is
        stated in (``ShardedEngine`` vs ``DistributedEngine`` for the same
        seed), and what ``tests/dn/test_sharded_engine.py`` compares.  Costs
        one hash of the records appended since the previous call (see the
        module docstring for the fold).
        """

        digest = hashlib.sha256(f"{FINGERPRINT_TAG}:".encode())
        for stream in (self._changes, self._messages):
            stream.fold(self.FOLD_BLOCK)
            digest.update(stream.chain)
            digest.update(_encode(stream.unfolded()))
        digest.update(
            repr(
                (
                    self.events_processed,
                    self.finished_at,
                    self.quiescent,
                    sorted(self.seeds.items()),
                )
            ).encode()
        )
        return digest.hexdigest()

    def compact(self) -> None:
        """Fold every whole block into the digest chains and drop the folded
        records, leaving counters, chains, and the sub-block tail.  The
        fingerprint and every counter are unchanged; reads of the dropped
        records raise :class:`TraceCompacted` from here on."""

        self._tally()
        for stream in (self._changes, self._messages):
            stream.fold(self.FOLD_BLOCK)
            stream.drop_folded()

    def summary(self) -> str:
        status = "quiescent" if self.quiescent else "budget-exhausted"
        return (
            f"trace: {self.state_change_count} state changes, "
            f"{self.message_count} messages, finished at t={self.finished_at:.3f}s ({status})"
        )
