"""The interactive and automated prover sessions.

This is the FVN stand-in for PVS's proof engine (paper Sections 3.1 and 4.3).
A :class:`ProofSession` holds a stack of open goals (sequents) and applies
tactics to them, recording every step so experiments can account for proof
effort (number of interactive steps, automated fraction, wall-clock time —
the quantities the paper reports for ``bestPathStrong``).

Two entry points matter:

* :meth:`ProofSession.apply` — one interactive step, by tactic name, exactly
  like typing a command at the PVS prover prompt.
* :meth:`ProofSession.grind` — the automated strategy (PVS ``grind``):
  repeated simplification, skolemization, definition expansion, heuristic
  quantifier instantiation, and splitting, until all goals close or a budget
  is exhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .formulas import Atom, Exists, Forall, Formula
from .sequent import Sequent
from .tactics import (
    TACTICS,
    ProofContext,
    TacticError,
    heuristic_instantiations,
)


@dataclass
class ProofStep:
    """One recorded proof step."""

    tactic: str
    detail: str = ""
    automated: bool = False
    goals_before: int = 0
    goals_after: int = 0

    def __str__(self) -> str:
        origin = "auto" if self.automated else "user"
        detail = f" {self.detail}" if self.detail else ""
        return f"({self.tactic}{detail}) [{origin}]"


@dataclass
class ProofResult:
    """Outcome of a proof attempt."""

    name: str
    goal: Formula
    proved: bool
    steps: list[ProofStep] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    open_goals: list[Sequent] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return len(self.steps)

    @property
    def interactive_steps(self) -> int:
        return sum(1 for s in self.steps if not s.automated)

    @property
    def automated_steps(self) -> int:
        return sum(1 for s in self.steps if s.automated)

    @property
    def automated_fraction(self) -> float:
        return self.automated_steps / self.total_steps if self.steps else 0.0

    def summary(self) -> str:
        status = "PROVED" if self.proved else "UNFINISHED"
        return (
            f"{self.name}: {status} in {self.total_steps} steps "
            f"({self.interactive_steps} interactive, {self.automated_steps} automated), "
            f"{self.elapsed_seconds * 1000:.1f} ms"
        )


class ProofSession:
    """An interactive proof attempt over one theorem."""

    def __init__(
        self,
        context: ProofContext,
        goal: Formula,
        name: str = "goal",
        assumptions: Iterable[Formula] = (),
    ) -> None:
        self.context = context
        self.name = name
        self.goal_formula = goal
        initial = Sequent(tuple(assumptions), (goal,))
        self.goals: list[Sequent] = [initial]
        self.steps: list[ProofStep] = []
        self._start = time.perf_counter()
        self._finish: Optional[float] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_goal(self) -> Optional[Sequent]:
        return self.goals[0] if self.goals else None

    @property
    def is_complete(self) -> bool:
        return not self.goals

    def show(self) -> str:
        """Human-readable rendering of the current goal (PVS-style)."""

        if self.is_complete:
            return "Q.E.D."
        return f"{self.name}.{1} :\n{self.current_goal}"

    # ------------------------------------------------------------------
    # Applying tactics
    # ------------------------------------------------------------------
    def apply(self, tactic: str, *, automated: bool = False, **params) -> list[Sequent]:
        """Apply a tactic to the current (first open) goal.

        Returns the subgoals produced.  The step is recorded even if the
        tactic closes the goal.  Raises :class:`TacticError` if the tactic
        does not apply.
        """

        if self.is_complete:
            raise TacticError("proof is already complete")
        fn = TACTICS.get(tactic)
        if fn is None:
            raise TacticError(f"unknown tactic {tactic!r}")
        goal = self.goals[0]
        before = len(self.goals)
        subgoals = fn(goal, self.context, **params)
        self.goals = subgoals + self.goals[1:]
        detail = _describe_params(params)
        self.steps.append(
            ProofStep(
                tactic=tactic,
                detail=detail,
                automated=automated,
                goals_before=before,
                goals_after=len(self.goals),
            )
        )
        if self.is_complete and self._finish is None:
            self._finish = time.perf_counter()
        return subgoals

    def try_apply(self, tactic: str, *, automated: bool = False, **params) -> bool:
        """Apply a tactic, returning ``False`` instead of raising when it
        does not apply or makes no progress."""

        if self.is_complete:
            return False
        goal = self.goals[0]
        try:
            subgoals = self.apply(tactic, automated=automated, **params)
        except TacticError:
            return False
        if subgoals == [goal]:
            # no progress: drop the recorded step to keep accounting honest
            self.steps.pop()
            return False
        return True

    # ------------------------------------------------------------------
    # Automated strategy
    # ------------------------------------------------------------------
    def grind(
        self,
        *,
        auto_expand: Optional[Sequence[str]] = None,
        max_steps: int = 400,
        max_expansions: int = 2,
        max_instantiations: int = 12,
    ) -> bool:
        """The automated strategy.  Returns ``True`` when every goal closes.

        ``auto_expand`` restricts which definitions may be unfolded
        automatically.  By default only *non-recursive* definitions are
        expanded: unfolding a recursive definition such as ``path`` replaces
        the very facts heuristic instantiation needs as triggers (and can
        unfold forever), so recursive predicates are left to explicit
        interactive ``expand``/``induct`` steps.  ``max_expansions`` bounds
        the number of automatic unfoldings of any single predicate.
        """

        if auto_expand is None:
            expandable = set(self.context.definitions.non_recursive_predicates())
        else:
            expandable = set(auto_expand)

        budget = max_steps
        # Per-branch bookkeeping is approximated by global counters keyed by
        # predicate; adequate for the generated FVN proof obligations.
        expansion_counts: dict[str, int] = {}
        instantiation_count = 0

        while self.goals and budget > 0:
            budget -= 1
            goal = self.goals[0]
            if goal.is_closed():
                self.apply("assert", automated=True)
                continue
            if self.try_apply("skosimp", automated=True):
                continue
            if self.try_apply("assert", automated=True):
                continue
            # expand definitions appearing as top-level atoms
            expanded = False
            for f in goal.antecedents + goal.succedents:
                if isinstance(f, Atom) and f.predicate in expandable:
                    count = expansion_counts.get(f.predicate, 0)
                    if count >= max_expansions:
                        continue
                    if self.try_apply("expand", automated=True, name=f.predicate):
                        expansion_counts[f.predicate] = count + 1
                        expanded = True
                        break
            if expanded:
                continue
            # heuristic instantiation of universally quantified antecedents
            # and existentially quantified succedents
            instantiated = False
            if instantiation_count < max_instantiations:
                candidates = [f for f in goal.antecedents if isinstance(f, Forall)]
                candidates += [f for f in goal.succedents if isinstance(f, Exists)]
                for f in candidates:
                    for binding in heuristic_instantiations(goal, f):
                        if any(v not in binding for v in f.vars):
                            # incomplete binding; skip
                            continue
                        values = [binding[v] for v in f.vars]
                        if self.try_apply(
                            "inst", automated=True, terms=values, target=f
                        ):
                            instantiation_count += 1
                            instantiated = True
                            break
                    if instantiated:
                        break
            if instantiated:
                continue
            if self.try_apply("split", automated=True):
                continue
            # no rule applies: give up on this strategy
            break
        if self.is_complete and self._finish is None:
            self._finish = time.perf_counter()
        return self.is_complete

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> ProofResult:
        end = self._finish if self._finish is not None else time.perf_counter()
        return ProofResult(
            name=self.name,
            goal=self.goal_formula,
            proved=self.is_complete,
            steps=list(self.steps),
            elapsed_seconds=end - self._start,
            open_goals=list(self.goals),
        )


def _describe_params(params: dict) -> str:
    if not params:
        return ""
    parts = []
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            rendered = ",".join(str(v) for v in value)
            parts.append(f"{key}=({rendered})")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def prove(
    context: ProofContext,
    goal: Formula,
    *,
    name: str = "goal",
    script: Optional[Sequence[tuple]] = None,
    assumptions: Iterable[Formula] = (),
    auto: bool = True,
    auto_expand: Optional[Sequence[str]] = None,
    max_steps: int = 400,
) -> ProofResult:
    """Prove ``goal`` by running an optional interactive script, then ``grind``.

    ``script`` is a sequence of ``(tactic_name, params_dict)`` pairs (the
    params dict may be omitted).  Any goals left open after the script are
    handed to the automated strategy when ``auto`` is true.
    """

    session = ProofSession(context, goal, name=name, assumptions=assumptions)
    for entry in script or ():
        if isinstance(entry, str):
            tactic, params = entry, {}
        else:
            tactic, params = entry[0], (entry[1] if len(entry) > 1 else {})
        if session.is_complete:
            break
        session.apply(tactic, **params)
    if auto and not session.is_complete:
        session.grind(auto_expand=auto_expand, max_steps=max_steps)
    return session.result()
