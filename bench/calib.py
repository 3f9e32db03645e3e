"""Host-speed calibration and the statistics the metrics are built from.

The sandbox's speed drifts by tens of percent between minutes (ISSUE 12
measured the same 30 convergences at 14-38 s).  A *reading* times a frozen
pure-Python kernel; every timed block is bracketed by two readings and its
wall times are multiplied by ``ref_ms / mean(bracketing readings)``, which
expresses them in reference-speed time.  ``ref_ms`` is a constant
(``bench.config.CALIB_REF_MS``), so calibrated values from different runs
and commits are comparable.

The kernel must never change: editing it re-bases every calibrated metric.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence

#: kernel calls per reading
CALLS_PER_READING = 4
_KERNEL_ROWS = 18000


def kernel() -> int:
    """Dict-of-tuples build, probe and sort: the engine's instruction mix
    (tuple hashing, dict stores, small-object allocation) in ~15 ms."""

    n = _KERNEL_ROWS
    table: dict[tuple, tuple] = {}
    for i in range(n):
        key = (i * 7919) % n
        table[(key, i & 7)] = (key, i, (i, key))
    hits = 0
    for i in range(n):
        row = table.get(((i * 31) % n, i & 7))
        if row is not None:
            hits += row[1] & 1
    ordered = sorted(table.values(), key=lambda row: (row[0], row[1]))
    return hits + len(ordered)


def take_reading(calls: int = CALLS_PER_READING) -> float:
    """Mean milliseconds of ``calls`` back-to-back kernels.

    The collector is off for the duration: a collection's cost grows with
    the live heap of the process, and a reading must depend on the host only.
    """

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(calls):
            kernel()
        return (perf_counter() - start) * 1000.0 / calls
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Block:
    """Timed work between two readings."""

    before_ms: float
    after_ms: float = 0.0
    #: seconds of timed calls (what throughput divides by)
    busy_s: float = 0.0

    def factor(self, ref_ms: float) -> float:
        return ref_ms / ((self.before_ms + self.after_ms) / 2.0)


@dataclass
class TimedSection:
    """Collects op latencies in calibration-bracketed blocks.

    A block is closed (a new reading taken) once it holds at least
    ``block_s`` seconds of timed calls, so ops of 100 ms and more get a
    reading each and short ops share one per half second.  ``reader`` is
    injectable so tests can model a slower host.
    """

    ref_ms: float
    block_s: float = 0.5
    reader: Callable[[], float] = take_reading
    blocks: list[Block] = field(default_factory=list)
    #: (wall seconds, block index) per op, in execution order
    ops: list[tuple[float, int]] = field(default_factory=list)
    failed: int = 0
    calib_s: float = 0.0

    def _read(self) -> float:
        start = perf_counter()
        value = self.reader()
        self.calib_s += perf_counter() - start
        return value

    def start(self) -> None:
        self.blocks.append(Block(before_ms=self._read()))

    def add_busy(self, wall_s: float) -> None:
        """Timed work that is not itself an op (reads beside updates, the
        outside wall of a campaign call)."""

        self.blocks[-1].busy_s += wall_s

    def add_op(self, wall_s: float, *, ok: bool = True, busy: bool = True) -> None:
        self.ops.append((wall_s, len(self.blocks) - 1))
        if busy:
            self.blocks[-1].busy_s += wall_s
        if not ok:
            self.failed += 1

    def checkpoint(self) -> None:
        """Close the block if it is full; call between ops."""

        if self.blocks[-1].busy_s >= self.block_s:
            reading = self._read()
            self.blocks[-1].after_ms = reading
            self.blocks.append(Block(before_ms=reading))

    def finish(self) -> None:
        last = self.blocks[-1]
        if last.busy_s == 0.0 and len(self.blocks) > 1:
            self.blocks.pop()  # checkpoint() just closed the final block
        else:
            last.after_ms = self._read()

    # -- results -------------------------------------------------------
    @property
    def readings(self) -> list[float]:
        out = [block.before_ms for block in self.blocks]
        out.append(self.blocks[-1].after_ms)
        return out

    def op_ms(self, *, calibrated: bool = True) -> list[float]:
        return [
            wall * 1000.0 * (self.blocks[b].factor(self.ref_ms) if calibrated else 1.0)
            for wall, b in self.ops
        ]

    def busy_s(self, *, calibrated: bool = True) -> float:
        return sum(
            block.busy_s * (block.factor(self.ref_ms) if calibrated else 1.0)
            for block in self.blocks
        )

    def ops_per_s(self, *, calibrated: bool = True) -> float:
        return len(self.ops) / self.busy_s(calibrated=calibrated)


def calibrate_interval(wall_s: float, before_ms: float, after_ms: float, ref_ms: float) -> float:
    """One interval bracketed by two readings, in reference-speed seconds."""

    return wall_s * ref_ms / ((before_ms + after_ms) / 2.0)


#: samples below which a 90th percentile is not reported (ten beyond it)
P90_MIN_SAMPLES = 100


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> Optional[float]:
    """Nearest-rank 90th percentile, or None under 100 samples."""

    if len(values) < P90_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the contract bounds."""

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
