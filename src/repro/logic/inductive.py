"""Inductive predicate definitions (the PVS ``INDUCTIVE bool`` fragment).

The FVN translation (paper Section 3.1) maps the set of NDlog rules defining
a predicate to a single inductive definition.  For the path-vector program:

.. code-block:: none

    path(S,D,(P: Path),C): INDUCTIVE bool =
      (link(S,D,C) AND P=f_init(S,D)) OR
      (EXISTS (C1,C2,P2,Z): link(S,Z,C1) AND path(Z,D,P2,C2) AND ...)

Here an :class:`InductiveDefinition` is a head predicate with formal
parameters and a list of :class:`Clause` objects.  It supports:

* ``unfold`` — replace ``p(args)`` by the disjunction of its clause bodies
  (the right-to-left direction, used by the ``expand`` tactic);
* ``clauses_for`` — the case analysis used by inversion and induction;
* ``induction_scheme`` — derive the structural induction principle over the
  derivation of ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..terms import Var, fresh_var
from .formulas import Atom, Formula, Implies, close, conj, disj, exists, forall


@dataclass(frozen=True)
class Clause:
    """One disjunct of an inductive definition.

    ``exists_vars`` are the clause-local existential variables, ``body`` the
    clause body (over head parameters and ``exists_vars``).
    """

    exists_vars: tuple[Var, ...]
    body: Formula
    name: str = ""

    def as_formula(self) -> Formula:
        """The clause as a closed-over-existentials formula."""

        return exists(self.exists_vars, self.body) if self.exists_vars else self.body


@dataclass
class InductiveDefinition:
    """An inductively defined predicate."""

    predicate: str
    params: tuple[Var, ...]
    clauses: tuple[Clause, ...]
    doc: str = ""

    def __post_init__(self) -> None:
        self.params = tuple(self.params)
        self.clauses = tuple(self.clauses)

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def is_recursive(self) -> bool:
        """Does any clause body mention the defined predicate itself?"""

        return any(self.recursive_atoms(c) for c in self.clauses)

    def head(self) -> Atom:
        return Atom(self.predicate, tuple(self.params))

    def definition_formula(self) -> Formula:
        """``p(params) <=> clause1 OR clause2 OR ...`` universally closed."""

        from .formulas import Iff

        rhs = disj(*(c.as_formula() for c in self.clauses))
        return close(Iff(self.head(), rhs))

    def unfold(self, target: Atom) -> Optional[Formula]:
        """Replace ``target`` (an atom of this predicate) by its definition body.

        Returns the disjunction of clause bodies with the head parameters
        substituted by the target's arguments and existential variables
        freshened to avoid capture.  ``None`` if the atom is not this
        predicate or has the wrong arity.
        """

        if target.predicate != self.predicate or len(target.args) != self.arity:
            return None
        subst = dict(zip(self.params, target.args))
        taken = set().union(*(a.free_vars() for a in target.args)) if target.args else set()
        disjuncts: list[Formula] = []
        for clause in self.clauses:
            local = dict(subst)
            bound: list[Var] = []
            for v in clause.exists_vars:
                nv = fresh_var(v, taken | set(bound) | set(self.params))
                bound.append(nv)
                if nv != v:
                    local[v] = nv
            body = clause.body.substitute(local)
            disjuncts.append(exists(tuple(bound), body) if bound else body)
        return disj(*disjuncts)

    def clauses_for(self, target: Atom) -> Optional[list[Formula]]:
        """Like :meth:`unfold`, but returning one formula per clause."""

        unfolded = self.unfold(target)
        if unfolded is None:
            return None
        from .formulas import Or

        if isinstance(unfolded, Or):
            return list(unfolded.parts)
        return [unfolded]

    def recursive_atoms(self, clause: Clause) -> list[Atom]:
        """Occurrences of the defined predicate inside a clause body."""

        return [a for a in clause.body.atoms() if a.predicate == self.predicate]

    def induction_scheme(self, goal_params: Sequence[Var], goal: Formula) -> Formula:
        """The derivation-induction principle specialized to ``goal``.

        For a goal ``FORALL params: p(params) => goal(params)``, the scheme
        produces one proof obligation per clause: assuming the clause body
        *and* the goal for every recursive occurrence of ``p``, prove the
        goal for the head parameters.  The returned formula is the
        conjunction of the obligations; proving it proves the goal.
        """

        goal_params = tuple(goal_params)
        if len(goal_params) != self.arity:
            raise ValueError(
                f"induction over {self.predicate}/{self.arity} requires "
                f"{self.arity} goal parameters, got {len(goal_params)}"
            )
        obligations: list[Formula] = []
        for clause in self.clauses:
            subst = dict(zip(self.params, goal_params))
            body = clause.body.substitute(subst)
            hyps: list[Formula] = [body]
            for rec in self.recursive_atoms(clause):
                rec_inst = rec.substitute(subst)
                mapping = dict(zip(goal_params, rec_inst.args))
                hyps.append(goal.substitute(mapping))
            ob = forall(
                tuple(goal_params) + tuple(clause.exists_vars),
                Implies(conj(*hyps), goal),
            )
            obligations.append(ob)
        return conj(*obligations)


class DefinitionTable:
    """A lookup table of inductive (and plain) definitions by predicate name."""

    def __init__(self, definitions: Iterable[InductiveDefinition] = ()) -> None:
        self._defs: dict[str, InductiveDefinition] = {}
        for d in definitions:
            self.add(d)

    def add(self, definition: InductiveDefinition) -> None:
        if definition.predicate in self._defs:
            raise ValueError(f"duplicate definition for {definition.predicate}")
        self._defs[definition.predicate] = definition

    def get(self, predicate: str) -> Optional[InductiveDefinition]:
        return self._defs.get(predicate)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._defs

    def __iter__(self):
        return iter(self._defs.values())

    def __len__(self) -> int:
        return len(self._defs)

    def predicates(self) -> list[str]:
        return sorted(self._defs)

    def non_recursive_predicates(self) -> list[str]:
        """Predicates safe for unbounded automatic expansion."""

        return sorted(name for name, d in self._defs.items() if not d.is_recursive)
