"""Finite models, bounded fixpoint evaluation, and counterexample search.

The paper (Section 4.3) argues for combining theorem proving with
model-checking style exploration: exhaustive evaluation over finite
instances finds counterexamples cheaply and guides the proof process.  This
module provides that complementary machinery for the FVN substrate:

* :class:`FiniteModel` — a finite set of ground facts with a first-order
  formula evaluator whose quantifiers range over the model's universe;
* :func:`least_fixpoint` — bottom-up (naive Datalog) evaluation of inductive
  definitions over a finite base-fact set, bounded by a round count;
* :func:`find_counterexample` — search for a falsifying assignment of a
  universally quantified formula over a finite model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from ..terms import COMPARISON_FNS, EvaluationError, FunctionRegistry, Var, ground_eval
from .formulas import (
    And,
    Atom,
    Comparison,
    Exists,
    Falsity,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Truth,
)
from .inductive import DefinitionTable, InductiveDefinition


@dataclass
class FiniteModel:
    """A finite relational structure: ground facts plus a value universe."""

    facts: dict[str, set[tuple]] = field(default_factory=dict)
    registry: FunctionRegistry = field(default_factory=FunctionRegistry)

    def add_fact(self, predicate: str, values: Sequence[object]) -> bool:
        """Add a ground fact; returns True if it was new."""

        rel = self.facts.setdefault(predicate, set())
        row = tuple(values)
        if row in rel:
            return False
        rel.add(row)
        return True

    def add_atom(self, a: Atom, bindings: Optional[Mapping[Var, object]] = None) -> bool:
        values = tuple(ground_eval(t, self.registry, bindings) for t in a.args)
        return self.add_fact(a.predicate, values)

    def holds(self, predicate: str, values: Sequence[object]) -> bool:
        return tuple(values) in self.facts.get(predicate, set())

    def rows(self, predicate: str) -> set[tuple]:
        return self.facts.get(predicate, set())

    def fact_count(self) -> int:
        return sum(len(rows) for rows in self.facts.values())

    def universe(self) -> list[object]:
        """All values occurring in any fact (quantifier range)."""

        seen: set = set()
        out: list[object] = []
        for rows in self.facts.values():
            for row in rows:
                for v in row:
                    try:
                        key = v
                        if key not in seen:
                            seen.add(key)
                            out.append(v)
                    except TypeError:  # unhashable — skip from universe
                        continue
        return out

    def copy(self) -> "FiniteModel":
        return FiniteModel(
            facts={p: set(rows) for p, rows in self.facts.items()},
            registry=self.registry,
        )

    # ------------------------------------------------------------------
    # Formula evaluation
    # ------------------------------------------------------------------
    def evaluate(self, formula: Formula, bindings: Optional[Mapping[Var, object]] = None) -> bool:
        """Evaluate a formula whose quantifiers range over :meth:`universe`."""

        env = dict(bindings or {})
        return self._eval(formula, env)

    def _eval(self, f: Formula, env: dict[Var, object]) -> bool:
        if isinstance(f, Truth):
            return True
        if isinstance(f, Falsity):
            return False
        if isinstance(f, Atom):
            values = tuple(ground_eval(t, self.registry, env) for t in f.args)
            return self.holds(f.predicate, values)
        if isinstance(f, Comparison):
            left = ground_eval(f.left, self.registry, env)
            right = ground_eval(f.right, self.registry, env)
            return COMPARISON_FNS[f.op](left, right)
        if isinstance(f, Not):
            return not self._eval(f.body, env)
        if isinstance(f, And):
            return all(self._eval(p, env) for p in f.parts)
        if isinstance(f, Or):
            return any(self._eval(p, env) for p in f.parts)
        if isinstance(f, Implies):
            return (not self._eval(f.antecedent, env)) or self._eval(f.consequent, env)
        if isinstance(f, Iff):
            return self._eval(f.left, env) == self._eval(f.right, env)
        if isinstance(f, Forall):
            domain = self.universe()
            for assignment in product(domain, repeat=len(f.vars)):
                local = dict(env)
                local.update(zip(f.vars, assignment))
                if not self._eval(f.body, local):
                    return False
            return True
        if isinstance(f, Exists):
            domain = self.universe()
            for assignment in product(domain, repeat=len(f.vars)):
                local = dict(env)
                local.update(zip(f.vars, assignment))
                if self._eval(f.body, local):
                    return True
            return False
        raise EvaluationError(f"cannot evaluate formula {f!r}")


# ---------------------------------------------------------------------------
# Bottom-up evaluation of inductive definitions (naive Datalog)
# ---------------------------------------------------------------------------

def _flatten_body(body: Formula) -> tuple[list[Formula], list[Var]]:
    """Split a clause body into conjuncts, hoisting nested existentials."""

    conjuncts: list[Formula] = []
    extra_vars: list[Var] = []
    stack = [body]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(reversed(f.parts))
        elif isinstance(f, Exists):
            extra_vars.extend(f.vars)
            stack.append(f.body)
        else:
            conjuncts.append(f)
    return conjuncts, extra_vars


def _solve_body(
    conjuncts: Sequence[Formula],
    model: FiniteModel,
    env: dict[Var, object],
) -> Iterable[dict[Var, object]]:
    """Enumerate bindings satisfying the conjuncts against the model."""

    if not conjuncts:
        yield env
        return
    first, rest = conjuncts[0], conjuncts[1:]
    if isinstance(first, Atom):
        for row in model.rows(first.predicate):
            if len(row) != len(first.args):
                continue
            local = dict(env)
            ok = True
            for arg, value in zip(first.args, row):
                if isinstance(arg, Var):
                    if arg in local:
                        if local[arg] != value:
                            ok = False
                            break
                    else:
                        local[arg] = value
                else:
                    try:
                        if ground_eval(arg, model.registry, local) != value:
                            ok = False
                            break
                    except EvaluationError:
                        ok = False
                        break
            if ok:
                yield from _solve_body(rest, model, local)
        return
    if isinstance(first, Comparison):
        # an equality with an unbound variable on one side acts as assignment
        if first.op == "=":
            left_unbound = isinstance(first.left, Var) and first.left not in env
            right_unbound = isinstance(first.right, Var) and first.right not in env
            if left_unbound and not right_unbound:
                try:
                    value = ground_eval(first.right, model.registry, env)
                except EvaluationError:
                    return
                local = dict(env)
                local[first.left] = value
                yield from _solve_body(rest, model, local)
                return
            if right_unbound and not left_unbound:
                try:
                    value = ground_eval(first.left, model.registry, env)
                except EvaluationError:
                    return
                local = dict(env)
                local[first.right] = value
                yield from _solve_body(rest, model, local)
                return
        try:
            left = ground_eval(first.left, model.registry, env)
            right = ground_eval(first.right, model.registry, env)
        except EvaluationError:
            return
        if COMPARISON_FNS[first.op](left, right):
            yield from _solve_body(rest, model, env)
        return
    if isinstance(first, Not):
        inner = first.body
        if isinstance(inner, Atom):
            try:
                values = tuple(ground_eval(t, model.registry, env) for t in inner.args)
            except EvaluationError:
                return
            if not model.holds(inner.predicate, values):
                yield from _solve_body(rest, model, env)
            return
        if isinstance(inner, Comparison):
            try:
                left = ground_eval(inner.left, model.registry, env)
                right = ground_eval(inner.right, model.registry, env)
            except EvaluationError:
                return
            if not COMPARISON_FNS[inner.op](left, right):
                yield from _solve_body(rest, model, env)
            return
        if not model.evaluate(inner, env):
            yield from _solve_body(rest, model, env)
        return
    # fall back to full evaluation for anything else (e.g. nested disjunction)
    if model.evaluate(first, env):
        yield from _solve_body(rest, model, env)


@dataclass
class FixpointResult:
    """Outcome of a bounded bottom-up evaluation."""

    model: FiniteModel
    rounds: int
    reached_fixpoint: bool
    derived_facts: int


def least_fixpoint(
    definitions: DefinitionTable | Iterable[InductiveDefinition],
    base_facts: FiniteModel,
    *,
    max_rounds: int = 64,
) -> FixpointResult:
    """Bottom-up evaluation of the definitions over the base facts.

    Runs naive iteration: in each round every clause of every definition is
    evaluated against the current model and newly derivable head facts are
    added.  Stops at a fixpoint or after ``max_rounds`` (bounded evaluation,
    which is what makes divergence such as count-to-infinity observable).
    """

    if isinstance(definitions, DefinitionTable):
        defs = list(definitions)
    else:
        defs = list(definitions)
    model = base_facts.copy()
    derived = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        changed = False
        for definition in defs:
            head = Atom(definition.predicate, tuple(definition.params))
            for clause in definition.clauses:
                conjuncts, _ = _flatten_body(clause.body)
                for binding in list(_solve_body(conjuncts, model, {})):
                    try:
                        if model.add_atom(head, binding):
                            changed = True
                            derived += 1
                    except EvaluationError:
                        continue
        if not changed:
            return FixpointResult(model, rounds, True, derived)
    return FixpointResult(model, rounds, False, derived)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """A falsifying assignment for a universally quantified formula."""

    assignment: dict[str, object]
    formula: Formula

    def __str__(self) -> str:
        binding = ", ".join(f"{k}={v}" for k, v in sorted(self.assignment.items()))
        return f"counterexample [{binding}] falsifies {self.formula}"


def find_counterexample(
    formula: Formula, model: FiniteModel
) -> Optional[Counterexample]:
    """Search a finite model for an assignment falsifying ``formula``.

    The formula's outermost universal quantifiers (if any) are enumerated
    explicitly so the witness assignment can be reported.  When the body is
    an implication whose antecedent is a conjunction of atoms/comparisons
    (the common shape of generated properties), the antecedent is solved by
    joining against the model's facts instead of enumerating the full
    universe product — otherwise properties over five or six variables would
    be intractable even on tiny instances.
    """

    prefix: list[Var] = []
    body = formula
    while isinstance(body, Forall):
        prefix.extend(body.vars)
        body = body.body
    if not prefix:
        if model.evaluate(formula):
            return None
        return Counterexample({}, formula)

    if isinstance(body, Implies):
        lhs = body.antecedent
        conjuncts = list(lhs.parts) if isinstance(lhs, And) else [lhs]
        guards = [c for c in conjuncts if isinstance(c, (Atom, Comparison, Not))]
        residual = [c for c in conjuncts if c not in guards]
        if guards:
            domain = model.universe()
            for binding in _solve_body(guards, model, {}):
                unbound = [v for v in prefix if v not in binding]
                for extra in product(domain, repeat=len(unbound)):
                    env = dict(binding)
                    env.update(zip(unbound, extra))
                    try:
                        if residual and not all(model.evaluate(r, env) for r in residual):
                            continue
                        if not model.evaluate(body.consequent, env):
                            witness = {v.name: val for v, val in env.items() if v in prefix}
                            return Counterexample(witness, body)
                    except EvaluationError:
                        continue
            return None

    domain = model.universe()
    for assignment in product(domain, repeat=len(prefix)):
        env = dict(zip(prefix, assignment))
        try:
            if not model.evaluate(body, env):
                return Counterexample({v.name: val for v, val in env.items()}, body)
        except EvaluationError:
            continue
    return None
