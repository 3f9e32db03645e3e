"""Execution traces and convergence analysis for distributed runs.

The distributed runtime records every state change and every message into a
:class:`Trace`.  Experiments read the trace to report the quantities the
paper's evaluation discusses: convergence time, message counts, and whether
an execution converged at all (the Disagree scenario's delayed or absent
convergence, Section 3.2.2).

**Fingerprint (``fp2``).**  :meth:`Trace.fingerprint` is a *fold* over the
two record streams: every whole block of :attr:`Trace.FOLD_BLOCK` records is
chained into a 32-byte digest (``chain = sha256(chain ‖ block)``), the
sub-block tail stays as records, and the value is ``sha256("fp2:" ‖
chain_changes ‖ tail ‖ chain_messages ‖ tail ‖ (events_processed,
finished_at, quiescent, seeds))``.  Blocks sit at fixed record indices, so
the value is a pure function of the record streams — it does not depend on
when (or whether) :meth:`~Trace.fingerprint` / :meth:`~Trace.compact` ran
before.  Folding is lazy: ``record_change`` / ``record_message`` are plain
appends, and each record is hashed once, by the first ``fingerprint()``
after it.

**Compaction.**  :meth:`Trace.compact` folds and then *drops* the folded
records; the counts (``state_change_count``, ``message_count``,
``delivered_message_count``, ``retraction_count``,
``retraction_message_count``) and ``last_change_time()`` stay exact as
counters, while the history queries (``changes_for``, ``convergence_time``,
…) raise :class:`TraceCompacted` instead of answering from the surviving
tail.  Only the serving daemon compacts (at every settle, so its memory and
snapshots are O(live state)); library engines never do, so
``engine.trace.state_changes`` is the complete list there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import ClassVar, Optional

from .network import NodeId

#: ``StateChange.kind`` values that remove a tuple.
RETRACTION_KINDS = frozenset(("delete", "expire", "retract"))


@dataclass(frozen=True, slots=True)
class StateChange:
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


@dataclass(frozen=True, slots=True)
class MessageRecord:
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


_CHANGE_FIELDS = attrgetter("time", "node", "predicate", "values", "kind")
_MESSAGE_FIELDS = attrgetter(
    "time", "src", "dst", "predicate", "values", "delivered", "kind"
)


def _encode(records: list, fields) -> bytes:
    """Canonical bytes of a run of records (what the fingerprint hashes)."""

    return repr(list(map(fields, records))).encode()


class TraceCompacted(RuntimeError):
    """A history query on a trace whose records ``Trace.compact()`` dropped."""


@dataclass(slots=True)
class _Fold:
    """Where one record stream stands: records before ``dropped`` are gone
    from the list, records before ``folded`` are hashed into ``chain``,
    records before ``tallied`` are covered by the trace's counters.  All
    three count from the start of the execution; plain picklable data."""

    chain: bytes = bytes(32)
    folded: int = 0
    dropped: int = 0
    tallied: int = 0

    def fold(self, records: list, fields, block: int) -> None:
        start = self.folded - self.dropped
        while len(records) - start >= block:
            digest = hashlib.sha256(self.chain)
            digest.update(_encode(records[start : start + block], fields))
            self.chain = digest.digest()
            start += block
        self.folded = self.dropped + start

    def untallied(self, records: list) -> list:
        new = records[self.tallied - self.dropped :]
        self.tallied = self.dropped + len(records)
        return new

    def drop_folded(self, records: list) -> None:
        del records[: self.folded - self.dropped]
        self.dropped = self.folded


@dataclass
class Trace:
    """Everything observable about one distributed execution."""

    #: records per chained fingerprint block (part of the fp2 definition)
    FOLD_BLOCK: ClassVar[int] = 256

    #: the recorded state changes — all of them, unless :meth:`compact`
    #: dropped a folded prefix (then only the sub-block tail)
    state_changes: list[StateChange] = field(default_factory=list)
    messages: list[MessageRecord] = field(default_factory=list)
    events_processed: int = 0
    finished_at: float = 0.0
    quiescent: bool = False
    #: Effective RNG seeds of the run (``engine_config`` is the seed the
    #: caller asked for — possibly None — and ``channel`` the seed the loss
    #: channel actually used; harness runs add ``scenario``).  Replaying a
    #: run with ``EngineConfig(seed=trace.seeds["channel"])`` reproduces the
    #: exact loss/delivery pattern even when the original seed was None.
    seeds: dict = field(default_factory=dict)

    # fold state and counters, advanced lazily by fingerprint()/compact()
    # and the counter properties — never by record_change/record_message
    _changes: _Fold = field(default_factory=_Fold, repr=False, compare=False)
    _messages: _Fold = field(default_factory=_Fold, repr=False, compare=False)
    _retractions: int = field(default=0, repr=False, compare=False)
    _delivered: int = field(default=0, repr=False, compare=False)
    _retract_messages: int = field(default=0, repr=False, compare=False)
    _last_change: dict = field(default_factory=dict, repr=False, compare=False)

    # -- recording ---------------------------------------------------------
    def record_change(
        self, time: float, node: NodeId, predicate: str, values: tuple, kind: str = "insert"
    ) -> None:
        self.state_changes.append(StateChange(time, node, predicate, values, kind))

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
        self.messages.append(
            MessageRecord(time, src, dst, predicate, values, delivered, kind)
        )

    # -- counters (exact on a compacted trace) -------------------------------
    def _tally(self) -> None:
        """Advance the counters over the records appended since last time."""

        last = self._last_change
        for change in self._changes.untallied(self.state_changes):
            if change.kind in RETRACTION_KINDS:
                self._retractions += 1
            seen = last.get(change.predicate)
            if seen is None or change.time > seen:
                last[change.predicate] = change.time
        for message in self._messages.untallied(self.messages):
            if message.delivered:
                self._delivered += 1
            if message.kind == "retract":
                self._retract_messages += 1

    @property
    def message_count(self) -> int:
        return self._messages.dropped + len(self.messages)

    @property
    def delivered_message_count(self) -> int:
        self._tally()
        return self._delivered

    @property
    def state_change_count(self) -> int:
        return self._changes.dropped + len(self.state_changes)

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

    def last_change_time(self, predicate: Optional[str] = None) -> float:
        """Time of the last state change (optionally for one predicate)."""

        self._tally()
        if predicate is not None:
            return self._last_change.get(predicate, 0.0)
        return max(self._last_change.values(), default=0.0)

    # -- history queries (need the complete record lists) --------------------
    @property
    def compacted(self) -> bool:
        """Has :meth:`compact` dropped records (are the lists incomplete)?"""

        return bool(self._changes.dropped or self._messages.dropped)

    def _complete(self) -> None:
        dropped = self._changes.dropped + self._messages.dropped
        if dropped:
            raise TraceCompacted(
                f"Trace.compact() dropped {dropped} folded records; history "
                "queries need the complete lists and will not answer from the "
                "surviving tail (counts and last_change_time() stay exact; "
                "library engines never compact, the serving daemon always does)"
            )

    def changes_of_kind(self, kind: str) -> list[StateChange]:
        self._complete()
        return [c for c in self.state_changes if c.kind == kind]

    def retraction_messages(self) -> list[MessageRecord]:
        self._complete()
        return [m for m in self.messages if m.kind == "retract"]

    def convergence_time(self, predicate: Optional[str] = None, since: float = 0.0) -> float:
        """Convergence time = last state change at or after ``since``.

        Only meaningful when the run ended quiescent; callers should check
        :attr:`quiescent` (a non-quiescent run hit its time/event budget,
        i.e. it had not converged when observation stopped).
        """

        self._complete()
        times = [
            c.time
            for c in self.state_changes
            if c.time >= since and (predicate is None or c.predicate == predicate)
        ]
        return (max(times) - since) if times else 0.0

    def messages_between(self, start: float, end: float) -> int:
        self._complete()
        return sum(1 for m in self.messages if start <= m.time < end)

    def changes_for(self, predicate: str) -> list[StateChange]:
        self._complete()
        return [c for c in self.state_changes if c.predicate == predicate]

    def changes_at(self, node: NodeId) -> list[StateChange]:
        self._complete()
        return [c for c in self.state_changes if c.node == node]

    def message_histogram(self, bucket: float = 1.0) -> dict[int, int]:
        """Messages per time bucket (for plotting convergence activity)."""

        self._complete()
        hist: dict[int, int] = {}
        for m in self.messages:
            index = int(m.time // bucket)
            hist[index] = hist.get(index, 0) + 1
        return hist

    # -- fingerprint ---------------------------------------------------------
    def _streams(self):
        return (
            (self._changes, self.state_changes, _CHANGE_FIELDS),
            (self._messages, self.messages, _MESSAGE_FIELDS),
        )

    def fingerprint(self) -> str:
        """SHA-256 digest (``fp2``) of everything observable about the
        execution.

        Canonicalizes the full state-change and message streams (in
        recorded order), the event/budget accounting, and the seeds.  Two
        runs are byte-identical executions iff their fingerprints match —
        this is the equality the sharded engine's determinism contract is
        stated in (``ShardedEngine`` vs ``DistributedEngine`` for the same
        seed), and what the E10 benchmark's cross-check compares.  Costs
        one hash of the records appended since the previous call (see the
        module docstring for the fold).
        """

        digest = hashlib.sha256(b"fp2:")
        for fold, records, fields in self._streams():
            fold.fold(records, fields, self.FOLD_BLOCK)
            digest.update(fold.chain)
            digest.update(_encode(records[fold.folded - fold.dropped :], fields))
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
        fingerprint and every counter are unchanged; history queries raise
        :class:`TraceCompacted` from here on."""

        self._tally()
        for fold, records, fields in self._streams():
            fold.fold(records, fields, self.FOLD_BLOCK)
            fold.drop_folded(records)

    def summary(self) -> str:
        status = "quiescent" if self.quiescent else "budget-exhausted"
        return (
            f"trace: {self.state_change_count} state changes, "
            f"{self.message_count} messages, finished at t={self.finished_at:.3f}s ({status})"
        )
