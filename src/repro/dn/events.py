"""Discrete-event scheduling for the declarative-networking runtime.

The distributed runtime simulates a network of NDlog engines exchanging
tuples.  Simulation time is a float (seconds); events are ordered by time
with FIFO tie-breaking so repeated runs are deterministic.

Messages travel as **waves** (:meth:`EventScheduler.post`): the items posted
for one delivery time, with nothing else scheduled there in between, share
one weighted queue entry instead of taking a heap event each, and run
exactly as the one-unit events they stand for would have.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional


#: Queue entries are plain ``(time, sequence, event)`` tuples: the
#: (time, sequence) prefix is unique, so heap comparisons never reach the
#: event and stay on the C tuple fast path.
_QueueEntry = tuple[float, int, "Event"]


@dataclass(slots=True)
class Event:
    """A scheduled callback with a human-readable kind tag.

    ``target`` optionally names the entity the event belongs to (the
    distributed engine tags per-node batch flushes with the node id), so
    schedulers layered on top — the shard coordinator — can recognize and
    coalesce same-timestamp events without inspecting callbacks.

    ``units`` makes the event *weighted*: it stands for that many units of
    event budget — ``n`` one-unit events scheduled back to back — without
    occupying ``n`` queue entries.  The scheduler calls a weighted event's
    callback as ``callback(allowance)`` with ``1 <= allowance <= units``,
    the callback does exactly that many units of its work, and the event
    stays queued under its original ``(time, sequence)`` until its units
    are spent (see :meth:`EventScheduler.run`).  ``None`` is an ordinary
    event: one unit, ``callback()``.  A message wave
    (:meth:`EventScheduler.post`) is a weighted event whose units — and
    item list — grow with every post until it first runs.
    """

    kind: str
    callback: Callable[..., None]
    target: object = None
    units: Optional[int] = None


class _Wave:
    """The callback of a wave event (see :meth:`EventScheduler.post`)."""

    __slots__ = ("deliver", "items", "done")

    def __init__(self, deliver: Callable[[list], None], item: object) -> None:
        self.deliver = deliver
        self.items = [item]
        self.done = 0

    def __call__(self, allowance: int) -> None:
        start = self.done
        self.done = start + allowance
        self.deliver(self.items[start : self.done])


class EventScheduler:
    """A deterministic priority-queue event scheduler."""

    def __init__(self) -> None:
        self._queue: list[_QueueEntry] = []
        self._counter = itertools.count()
        #: delivery time → the wave :meth:`post` still appends to there
        self._waves: dict[float, Event] = {}
        self.now: float = 0.0
        self.processed: int = 0
        #: events the current :meth:`run` call may still process; shared
        #: with :meth:`pop_if` so out-of-band pops consume the same budget
        self._budget: float = float("inf")
        #: True while :meth:`run` is executing event callbacks.  Guards
        #: against re-entrant ``run`` calls (an event callback — or a
        #: monitor it notifies — driving the scheduler that is driving it),
        #: which would interleave two event loops over one queue.
        self.running: bool = False

    def schedule(self, delay: float, event: Event) -> float:
        """Schedule an event ``delay`` seconds from the current time."""

        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        at = self.now + delay
        if self._waves:
            self._waves.pop(at, None)
        heapq.heappush(self._queue, (at, next(self._counter), event))
        return at

    def schedule_at(self, time: float, event: Event) -> float:
        """Schedule an event at an absolute simulation time."""

        if time < self.now:
            raise ValueError("cannot schedule events in the past")
        if self._waves:
            self._waves.pop(time, None)
        heapq.heappush(self._queue, (time, next(self._counter), event))
        return time

    def post(
        self, delay: float, kind: str, deliver: Callable[[list], None], item: object
    ) -> float:
        """Schedule one item for ``deliver`` ``delay`` seconds from now.

        Items posted for the same time join one **wave**: a weighted event
        (``units`` = its items) whose callback passes ``deliver`` the next
        ``allowance`` items as a list, in posting order.  A wave stays open
        to further posts of its ``kind`` and ``deliver`` only while nothing
        else is scheduled at its time and it has not started running, so it
        runs exactly where its items would have run as one-unit events
        scheduled back to back — same order among all other events, same
        budget accounting — from a single queue entry.
        """

        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        at = self.now + delay
        wave = self._waves.get(at)
        if wave is not None and wave.kind == kind and wave.callback.deliver == deliver:
            wave.units += 1
            wave.callback.items.append(item)
            return at
        wave = Event(kind, _Wave(deliver, item), units=1)
        self._waves[at] = wave
        heapq.heappush(self._queue, (at, next(self._counter), wave))
        return at

    def next_seqno(self) -> int:
        """The tie-break sequence number the next scheduled event will take,
        read without taking it (an engine capture must not move the clock
        it reads)."""

        seqno = next(self._counter)
        self._counter = itertools.count(seqno)
        return seqno

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def peek_time(self) -> Optional[float]:
        return self._queue[0][0] if self._queue else None

    def pending_kinds(self) -> set[str]:
        """The distinct ``Event.kind`` tags currently queued.

        Lets callers layered on top of the engine (the serving layer's
        settle loop) distinguish *maintenance* events (periodic soft-state
        refresh/expiry scans, which never drain on programs with soft
        state) from pending *work* without popping anything.
        """

        return {entry[2].kind for entry in self._queue}

    def run(
        self,
        *,
        until: float = float("inf"),
        max_events: int = 1_000_000,
    ) -> int:
        """Process events in order until the queue drains, ``until`` is
        reached, or ``max_events`` have been processed.  Returns the number
        of events processed by this call.

        A weighted event (``Event.units``) counts as its units, not as one:
        it is handed ``min(units left, budget left)``, ``processed`` and the
        budget are charged that much, and what remains waits in its
        original queue position for the next call — so a budget that runs
        out inside it stops exactly where it would have stopped among the
        one-unit events it stands for.
        """

        if self.running:
            raise RuntimeError(
                "re-entrant EventScheduler.run(): an event callback is "
                "driving the scheduler that is executing it"
            )
        start = self.processed
        self._budget = max_events
        self.running = True
        try:
            while self._queue and self._budget > 0:
                if self._queue[0][0] > until:
                    break
                self._execute(heapq.heappop(self._queue))
        finally:
            self._budget = float("inf")
            self.running = False
        if self._queue and self._queue[0][0] > until and until != float("inf"):
            self.now = until
        return self.processed - start

    def _execute(self, entry: _QueueEntry) -> None:
        """Run one popped queue entry against the current budget (which the
        caller has checked is positive), charging before the callback so
        out-of-band pops made from inside it see what is left."""

        at, _, event = entry
        self.now = at
        units = event.units
        if units is None:
            self._budget -= 1
            self.processed += 1
            event.callback()
            return
        if self._waves.get(at) is event:
            del self._waves[at]  # a running wave takes no more posts
        allowance = min(units, self._budget)
        event.units = units - allowance
        self._budget -= allowance
        self.processed += allowance
        event.callback(allowance)
        if event.units:
            heapq.heappush(self._queue, entry)

    def pop_if(self, match: Callable[[float, Event], bool]) -> Optional[Event]:
        """Pop and return the head event when ``match(time, event)`` holds.

        The pop counts against the enclosing :meth:`run` call's event budget
        exactly as if the run loop had processed it (the caller is taking
        over that event's execution), so engines that coalesce events — the
        shard coordinator batching same-timestamp flushes — keep byte-
        identical budget semantics with the one-at-a-time loop.  Weighted
        events are never handed out: only the run loop knows how to charge
        them.
        """

        if not self._queue or self._budget <= 0:
            return None
        at, _, event = self._queue[0]
        if event.units is not None or not match(at, event):
            return None
        heapq.heappop(self._queue)
        self.now = at
        self._budget -= 1
        self.processed += 1
        return event

    def step(self) -> bool:
        """Process a single queue entry (a weighted event whole).  Returns
        False when the queue is empty."""

        if not self._queue:
            return False
        self._execute(heapq.heappop(self._queue))
        return True
