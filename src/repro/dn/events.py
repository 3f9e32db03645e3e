"""Discrete-event scheduling for the declarative-networking runtime.

The distributed runtime simulates a network of NDlog engines exchanging
tuples.  Simulation time is a float (seconds); events are ordered by time
with FIFO tie-breaking so repeated runs are deterministic.

Events are plain data — a kind tag and picklable arguments — and
:meth:`EventScheduler.run` runs each through the ``kind → handler`` table
its caller passes, so a queue can be copied, pickled and loaded into
another scheduler at any point between two events.

Messages travel as **waves** (:meth:`EventScheduler.post`): the items posted
for one delivery time, with nothing else scheduled there in between, share
one weighted queue entry instead of taking a heap event each, and run
exactly as the one-unit events they stand for would have.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional


#: Queue entries are plain ``(time, sequence, event)`` tuples: the
#: (time, sequence) prefix is unique, so heap comparisons never reach the
#: event and stay on the C tuple fast path.
_QueueEntry = tuple[float, int, "Event"]


@dataclass(slots=True)
class Event:
    """A scheduled action as plain data: :meth:`EventScheduler.run` calls
    its ``kind``'s handler with ``*args``.

    ``units`` makes the event *weighted*: ``args`` is then an item list and
    the event stands for one unit of event budget per item — ``n`` one-unit
    events scheduled back to back — without occupying ``n`` queue entries.
    The scheduler hands the handler the next ``allowance`` items as one
    list, ``1 <= allowance <= units``, advances the ``done`` cursor past
    them, and keeps the event queued under its original ``(time,
    sequence)`` until its units are spent (see :meth:`EventScheduler.run`).
    ``None`` is an ordinary event: one unit.  A message wave
    (:meth:`EventScheduler.post`) is a weighted event whose units — and
    item list — grow with every post until it first runs; the seeding
    burst is another.
    """

    kind: str
    args: Any = ()
    units: Optional[int] = None
    done: int = 0


class EventScheduler:
    """A deterministic priority-queue event scheduler.

    The queue holds data only — no callables — so its state is the
    entries, the sequence counter and the open waves
    (:meth:`export_state`).
    """

    def __init__(self) -> None:
        #: kind → handler of the current :meth:`run` call (empty between
        #: calls: a table kept here would tie its owner into a reference
        #: cycle through the bound methods it holds)
        self._handlers: dict[str, Callable[..., None]] = {}
        self._queue: list[_QueueEntry] = []
        self._counter = itertools.count()
        #: delivery time → the wave :meth:`post` still appends to there
        self._waves: dict[float, Event] = {}
        self.now: float = 0.0
        self.processed: int = 0
        #: events the current :meth:`run` call may still process; shared
        #: with :meth:`pop_if` so out-of-band pops consume the same budget
        self._budget: float = float("inf")
        #: True while :meth:`run` is executing event handlers.  Guards
        #: against re-entrant ``run`` calls (an event handler — or a
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

    def post(self, delay: float, kind: str, item: object) -> float:
        """Schedule one item for ``kind``'s handler ``delay`` seconds from now.

        Items posted for the same time join one **wave**: a weighted event
        (``units`` = its items) that passes the handler the next
        ``allowance`` items as a list, in posting order.  A wave stays open
        to further posts of its ``kind`` only while nothing else is
        scheduled at its time and it has not started running, so it
        runs exactly where its items would have run as one-unit events
        scheduled back to back — same order among all other events, same
        budget accounting — from a single queue entry.
        """

        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        at = self.now + delay
        wave = self._waves.get(at)
        if wave is not None and wave.kind == kind:
            wave.units += 1
            wave.args.append(item)
            return at
        wave = Event(kind, [item], units=1)
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

    def export_state(self) -> dict:
        """The queue as plain data: clock, counters, each entry as ``(at,
        seqno, kind, args, units, done)`` in heap order, and the seqnos of
        the waves still open to posts.  Reading it moves nothing; the
        entries' item lists are shared with the live queue (pickle the
        state before the scheduler runs again)."""

        return {
            "now": self.now,
            "processed": self.processed,
            "counter": self.next_seqno(),
            "events": [
                (at, seqno, event.kind, event.args, event.units, event.done)
                for at, seqno, event in self._queue
            ],
            "waves": [
                seqno for at, seqno, event in self._queue if self._waves.get(at) is event
            ],
        }

    def load_state(self, state: dict) -> None:
        """Stand at an :meth:`export_state` (item lists copied, so two
        schedulers loaded from one state share nothing)."""

        self.now = state["now"]
        self.processed = state["processed"]
        self._counter = itertools.count(state["counter"])
        self._queue = [
            (at, seqno, Event(kind, args if units is None else list(args), units, done))
            for at, seqno, kind, args, units, done in state["events"]
        ]
        waves = set(state["waves"])
        self._waves = {at: event for at, seqno, event in self._queue if seqno in waves}

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

    def pending_units(self, exclude: frozenset = frozenset()) -> int:
        """Event-budget units still queued in events whose kind is not in
        ``exclude``: one per ordinary event, the units left of a weighted
        one (how ``processed`` will count them)."""

        return sum(
            1 if event.units is None else event.units
            for _, _, event in self._queue
            if event.kind not in exclude
        )

    def run(
        self,
        handlers: dict[str, Callable[..., None]],
        *,
        until: float = float("inf"),
        max_events: int = 1_000_000,
    ) -> int:
        """Process events in order until the queue drains, ``until`` is
        reached, or ``max_events`` have been processed.  Returns the number
        of events processed by this call.

        Each event runs as ``handlers[kind](*args)``; a weighted event's
        handler gets one list of the items its allowance covers.

        A weighted event (``Event.units``) counts as its units, not as one:
        it is handed ``min(units left, budget left)``, ``processed`` and the
        budget are charged that much, and what remains waits in its
        original queue position for the next call — so a budget that runs
        out inside it stops exactly where it would have stopped among the
        one-unit events it stands for.
        """

        if self.running:
            raise RuntimeError(
                "re-entrant EventScheduler.run(): an event handler is "
                "driving the scheduler that is executing it"
            )
        start = self.processed
        self._budget = max_events
        self._handlers = handlers
        self.running = True
        try:
            while self._queue and self._budget > 0:
                if self._queue[0][0] > until:
                    break
                self._execute(heapq.heappop(self._queue))
        finally:
            self._budget = float("inf")
            self._handlers = {}
            self.running = False
        if self._queue and self._queue[0][0] > until and until != float("inf"):
            self.now = until
        return self.processed - start

    def _execute(self, entry: _QueueEntry) -> None:
        """Run one popped queue entry against the current budget (which the
        caller has checked is positive), charging before the handler runs so
        out-of-band pops made from inside it see what is left."""

        at, _, event = entry
        self.now = at
        units = event.units
        if units is None:
            self._budget -= 1
            self.processed += 1
            self._handlers[event.kind](*event.args)
            return
        if self._waves.get(at) is event:
            del self._waves[at]  # a running wave takes no more posts
        allowance = min(units, self._budget)
        event.units = units - allowance
        self._budget -= allowance
        self.processed += allowance
        start = event.done
        event.done = start + allowance
        self._handlers[event.kind](event.args[start : event.done])
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
