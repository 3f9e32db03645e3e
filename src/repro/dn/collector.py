"""Where CPython's cyclic garbage collector may run in the runtime.

An engine's run builds long-lived state — rows, index buckets, trace
records, event payloads — that is freed by reference counting alone: the
engine, its executor and its scheduler hold no reference cycles (the
event dispatch table and the settle callbacks are built per call for that
reason).  Every allocation still counts toward the collector's thresholds,
though, so a cold fixpoint set off ~90 collections that walked the growing
heap for nothing (12-13 % of a power_law-32 convergence's CPU) and
profilers charged them to whichever allocation tripped them.

This module owns the one policy, used at three sites:

* :func:`collector_paused` around the event processing of
  :meth:`~repro.dn.engine.DistributedEngine.run` (the sharded coordinator,
  every campaign run and every library run) and around each request a
  shard worker serves.  What the block allocated is not walked afterwards
  either: it skips the young generations, into the oldest one — or, in a
  forked worker, into the frozen heap;
* :func:`freeze_inherited_heap` at the start of a forked worker (shard
  workers and campaign pool workers): the coordinator's heap it inherited
  is never freed there, so the collector must not walk — and so copy —
  its pages.

Both are sound only while runs build no reference cycles: a cycle that
skipped the young generations waits for a full collection, and one that
joined a worker's frozen heap is never collected.  The serving daemon's
settle loop drives ``advance`` directly and keeps the collector running.
``tests/dn/test_collector.py`` pins the premise — with the collector off,
a monitored run, churn steps and an inline-sharded run leave no cyclic
garbage — and that a pool worker's frozen heap does not grow run by run.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: set in a forked worker once :func:`freeze_inherited_heap` froze its heap
#: (``gc.get_freeze_count`` walks the whole frozen heap: too slow per request)
_heap_frozen = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off; afterwards (an
    exception included) it is on again iff it was on before."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            # the first pass after the block would walk all it allocated:
            # ``gc.freeze`` splices every generation into the permanent one
            # instead (and resets the young count), and ``gc.unfreeze``
            # splices that into the oldest — unless a forked worker froze
            # its inherited heap (or the process froze one itself), which
            # must stay frozen
            thawed = not (_heap_frozen or gc.get_freeze_count())
            gc.freeze()
            if thawed:
                gc.unfreeze()
            gc.enable()


def freeze_inherited_heap() -> None:
    """Initializer of a forked worker: move every object it inherited to
    the collector's permanent generation (``gc.freeze``), and turn the
    collector on — a shard respawned mid-run forks inside a paused block."""

    global _heap_frozen
    gc.freeze()
    _heap_frozen = True
    gc.enable()
