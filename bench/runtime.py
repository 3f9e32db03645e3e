"""What one benchmark pass carries: its sizes, clocks, span log and results.

A *pass* is one prepare -> measure -> teardown of a workload.  An untraced
run is one pass; a traced run is a short untraced pass (the overhead
baseline) followed by a full pass with ``repro.obs`` and bench spans on.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator, NoReturn, Optional, Union

from . import config
from .calib import TimedSection
from .spans import NullSpans, SpanLog


def child_env() -> dict:
    """Environment of every subprocess: ``src/`` importable, hash seed pinned."""

    env = os.environ.copy()
    paths = [str(config.SRC_DIR), str(config.REPO_ROOT), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Pass:
    """State shared between the runner and a workload module."""

    workload: str
    seed: int
    n_ops: int
    trace: bool
    seconds: float
    section: TimedSection = field(default_factory=lambda: TimedSection(config.CALIB_REF_MS))
    spans: Union[SpanLog, NullSpans] = field(default_factory=NullSpans)
    #: oracle/validation failures, human-readable (empty = correct)
    problems: list[str] = field(default_factory=list)
    #: per-layer metric name -> value, filled by the workload when tracing
    layer: dict[str, float] = field(default_factory=dict)
    #: deterministic per-op counts (``*_per_op``), also for repeat's equality check
    counts: dict[str, float] = field(default_factory=dict)
    #: client-side read latencies (serve), seconds with their block index
    queries: list[tuple[float, int]] = field(default_factory=list)
    #: :class:`bench.obs.ProgramObs` while ``repro.obs`` is on, else None
    obs: Optional[object] = None
    tmp: Optional[Path] = None
    _gap: float = 0.0
    _deadline: float = float("inf")

    def __post_init__(self) -> None:
        if self.trace:
            self.spans = SpanLog()

    # -- scratch space (inside the checkout, never /tmp) -----------------
    def tmp_dir(self) -> Path:
        if self.tmp is None:
            config.OUT_DIR.mkdir(parents=True, exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=config.OUT_DIR))
        return self.tmp

    def cleanup(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    # -- the timed section ----------------------------------------------
    def start_timing(self) -> None:
        self.section.start()
        self._deadline = perf_counter() + config.OVERRUN * self.seconds

    @contextmanager
    def untimed(self, name: str) -> Iterator[None]:
        """Work inside an op that its latency must not include (an oracle
        check that needs the engine still open)."""

        start = perf_counter()
        with self.spans.span(name):
            yield
        self._gap += perf_counter() - start

    def take_gap(self) -> float:
        gap, self._gap = self._gap, 0.0
        return gap

    def op_done(self, wall_s: float, problems: list[str]) -> bool:
        """Record one op; returns False once the pass should stop."""

        self.section.add_op(wall_s, ok=not problems)
        self.problems.extend(problems)
        self.section.checkpoint()
        return self.keep_going()

    def keep_going(self) -> bool:
        return len(self.section.ops) < self.n_ops and perf_counter() < self._deadline

    @property
    def layer_factor(self) -> float:
        """Run-wide calibration factor applied to span-derived layer times."""

        raw = self.section.busy_s(calibrated=False)
        return self.section.busy_s() / raw if raw else 1.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def live_children() -> list[int]:
    """Pids whose parent is this process (must be empty when a run ends)."""

    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            out.append(int(entry))
    return out


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)
