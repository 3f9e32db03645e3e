"""Dynamic workloads: link failures, cost changes, and refresh schedules.

Experiments that study protocol dynamics (count-to-infinity, convergence
after failure, soft-state refresh) need scripted perturbation sequences.
A :class:`WorkloadScript` is a list of timed events that can be applied to a
:class:`~repro.dn.engine.DistributedEngine` or replayed against the
protocol simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Literal, Optional

if TYPE_CHECKING:  # an annotation only: generating a scenario loads no engine
    from ..dn.engine import DistributedEngine


EventKind = Literal["fail_link", "restore_link", "set_cost", "inject_fact"]


@dataclass(frozen=True)
class WorkloadEvent:
    """One scheduled perturbation."""

    at: float
    kind: EventKind
    src: Optional[Hashable] = None
    dst: Optional[Hashable] = None
    cost: Optional[float] = None
    predicate: Optional[str] = None
    values: Optional[tuple] = None


@dataclass
class WorkloadScript:
    """A time-ordered list of perturbations."""

    events: list[WorkloadEvent] = field(default_factory=list)

    def add(self, event: WorkloadEvent) -> "WorkloadScript":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at)
        return self

    def fail_link(self, src: Hashable, dst: Hashable, at: float) -> "WorkloadScript":
        return self.add(WorkloadEvent(at=at, kind="fail_link", src=src, dst=dst))

    def restore_link(self, src: Hashable, dst: Hashable, at: float) -> "WorkloadScript":
        return self.add(WorkloadEvent(at=at, kind="restore_link", src=src, dst=dst))

    def set_cost(self, src: Hashable, dst: Hashable, cost: float, at: float) -> "WorkloadScript":
        return self.add(WorkloadEvent(at=at, kind="set_cost", src=src, dst=dst, cost=cost))

    def inject(self, predicate: str, values: tuple, at: float) -> "WorkloadScript":
        return self.add(
            WorkloadEvent(at=at, kind="inject_fact", predicate=predicate, values=tuple(values))
        )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_to_engine(self, engine: DistributedEngine) -> None:
        """Schedule every event on a distributed engine (before ``run``).

        The failure and restore paths are symmetric: both perturb the
        topology, and both skip database changes when the engine has no
        ``link_predicate`` configured (restoration used to inject under a
        guessed ``"link"`` name while failure silently no-opped).
        """

        for event in self.events:
            if event.kind == "fail_link":
                engine.schedule_link_failure(event.src, event.dst, event.at)
            elif event.kind == "restore_link":
                engine.schedule_link_restore(event.src, event.dst, event.at)
            elif event.kind == "set_cost":
                engine.schedule_cost_change(event.src, event.dst, event.cost or 1.0, event.at)
            elif event.kind == "inject_fact":
                engine.schedule_fact(event.predicate or "", event.values or (), event.at)

    def __len__(self) -> int:
        return len(self.events)


def periodic_refresh_workload(
    facts: Iterable[tuple[str, tuple]],
    *,
    period: float,
    repetitions: int,
    start: float = 0.0,
) -> WorkloadScript:
    """A script re-injecting soft-state facts every ``period`` seconds."""

    script = WorkloadScript()
    for repetition in range(repetitions):
        at = start + repetition * period
        for predicate, values in facts:
            script.inject(predicate, tuple(values), at)
    return script
