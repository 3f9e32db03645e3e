"""A transition-system (linear-logic style) view of NDlog programs.

Paper Sections 4.2/4.3: extending NDlog with linear logic lets the
specification be read as a set of *state-transition* rules over the routing
tables — soft-state facts are resources that are consumed and reproduced —
which in turn makes the specification directly amenable to model checking
(arcs 6 and 8 of Figure 1).

This module realizes that reading operationally:

* a :class:`State` is an immutable snapshot of all tables plus a logical
  clock;
* a :class:`Transition` is either a **rule firing** (body facts are read,
  the head fact is produced; soft-state body facts marked *linear* are
  consumed, which is the linear-logic twist) or a **clock tick** that expires
  soft-state facts whose lifetime has elapsed;
* :class:`TransitionSystem` enumerates the successors of a state, which
  :mod:`repro.fvn.modelcheck` explores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..ndlog.ast import Program
from ..ndlog.functions import builtin_registry
from ..ndlog.seminaive import RuleEngine
from ..ndlog.store import Database
from ..terms import FunctionRegistry


@dataclass(frozen=True)
class State:
    """An immutable snapshot of the system: facts per predicate plus a clock.

    Soft-state facts carry their insertion time so ticks can expire them.
    """

    facts: frozenset[tuple[str, tuple, float]]  # (predicate, values, inserted_at)
    clock: float = 0.0

    @staticmethod
    def initial(facts: Iterable[tuple[str, tuple]], clock: float = 0.0) -> "State":
        return State(frozenset((p, tuple(v), clock) for p, v in facts), clock)

    def rows(self, predicate: str) -> set[tuple]:
        return {values for p, values, _ in self.facts if p == predicate}

    def predicates(self) -> set[str]:
        return {p for p, _, _ in self.facts}

    def holds(self, predicate: str, values: tuple) -> bool:
        return any(p == predicate and v == tuple(values) for p, v, _ in self.facts)

    def fact_count(self) -> int:
        return len(self.facts)

    def to_database(self, program: Program) -> Database:
        db = Database()
        for decl in program.materialized.values():
            db.declare_from(decl)
        for predicate, values, inserted in self.facts:
            db.table(predicate).insert(values, inserted)
        return db

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = sorted(f"{p}{v}" for p, v, _ in self.facts)
        return f"State(t={self.clock}, {', '.join(parts)})"


@dataclass(frozen=True)
class Transition:
    """One enabled transition out of a state."""

    kind: str  # "fire" | "tick"
    rule: Optional[str]
    produced: tuple[tuple[str, tuple], ...]
    consumed: tuple[tuple[str, tuple], ...]
    target: State

    def label(self) -> str:
        if self.kind == "tick":
            return f"tick->{self.target.clock}"
        produced = ",".join(f"{p}{v}" for p, v in self.produced)
        return f"{self.rule}: {produced}"


class TransitionSystem:
    """Successor-state enumeration for an NDlog program.

    ``linear_predicates`` marks relations whose facts are consumed by rules
    that read them (the linear-logic treatment of soft state); by default all
    soft-state relations (finite lifetime in ``materialize``) are linear.
    ``tick`` controls the clock-advance granularity for expiry transitions.
    """

    def __init__(
        self,
        program: Program,
        *,
        linear_predicates: Optional[Sequence[str]] = None,
        tick: float = 1.0,
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        program.check()
        self.program = program
        self.tick = tick
        self.engine = RuleEngine(registry or builtin_registry())
        if linear_predicates is None:
            linear_predicates = [
                decl.predicate
                for decl in program.materialized.values()
                if decl.is_soft_state
            ]
        self.linear_predicates = frozenset(linear_predicates)

    # ------------------------------------------------------------------
    # Initial state
    # ------------------------------------------------------------------
    def initial_state(self, extra_facts: Iterable[tuple[str, tuple]] = ()) -> State:
        facts = [(f.predicate, tuple(f.values)) for f in self.program.facts]
        facts.extend((p, tuple(v)) for p, v in extra_facts)
        return State.initial(facts)

    # ------------------------------------------------------------------
    # Successors
    # ------------------------------------------------------------------
    def successors(self, state: State) -> Iterator[Transition]:
        """Enumerate rule firings (one new head fact each) and the clock tick."""

        db = state.to_database(self.program)
        for rule in self.program.rules:
            for row in self.engine.fire_rule(rule, db):
                produced = (rule.head.predicate, row)
                if state.holds(*produced):
                    continue
                consumed: list[tuple[str, tuple]] = []
                if self.linear_predicates:
                    # consume the linear body facts that matched: approximate
                    # by consuming every linear fact of the body's predicates
                    # that appears in the produced tuple's derivation support.
                    for lit in rule.positive_literals:
                        if lit.predicate in self.linear_predicates:
                            for row in state.rows(lit.predicate):
                                consumed.append((lit.predicate, row))
                new_facts = set(state.facts)
                for predicate, values in consumed:
                    new_facts = {
                        f for f in new_facts if not (f[0] == predicate and f[1] == values)
                    }
                new_facts.add((produced[0], produced[1], state.clock))
                target = State(frozenset(new_facts), state.clock)
                yield Transition(
                    kind="fire",
                    rule=rule.name,
                    produced=(produced,),
                    consumed=tuple(consumed),
                    target=target,
                )
        # clock tick: expire soft state whose lifetime elapsed
        expired: list[tuple[str, tuple]] = []
        new_clock = state.clock + self.tick
        remaining = set()
        for predicate, values, inserted in state.facts:
            lifetime = self.program.lifetime_of(predicate)
            if lifetime != float("inf") and new_clock >= inserted + lifetime:
                expired.append((predicate, values))
            else:
                remaining.add((predicate, values, inserted))
        # a tick that expires nothing still moves the clock toward later expiries
        yield Transition(
            kind="tick",
            rule=None,
            produced=(),
            consumed=tuple(expired),
            target=State(frozenset(remaining), new_clock),
        )
