"""Theories and theory interpretation.

Paper Section 3.3 encodes the abstract metarouting algebra as a PVS theory
(``routeAlgebra``) and instantiates it per protocol ("similar to a ``.c``
file implementing a ``.h`` file"), letting the PVS type checker generate and
discharge the instantiation proof obligations.

This module provides the equivalent mechanism for the FVN substrate:

* :class:`Theory` — a named collection of sort/symbol declarations,
  (inductive) definitions, axioms, and theorems, convertible into a
  :class:`~repro.logic.tactics.ProofContext` for the prover;
* :class:`Interpretation` — a mapping from an abstract theory's symbols to
  concrete symbols/terms of an implementing theory, which generates one
  :class:`Obligation` per abstract axiom;
* obligation discharge either through the prover or through a caller-supplied
  decision procedure (the metarouting package uses exhaustive checks over
  finite carriers, mirroring "obligations automatically discharged by the
  type checker").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..terms import Func, Term
from .formulas import Atom, Comparison, Formula
from .inductive import DefinitionTable, InductiveDefinition
from .prover import ProofResult, prove
from .tactics import ProofContext


@dataclass
class SymbolDeclaration:
    """A declared (uninterpreted) symbol of a theory."""

    name: str
    kind: str  # "sort" | "function" | "predicate" | "constant"
    arity: int = 0
    doc: str = ""


@dataclass
class Theorem:
    """A named proof goal attached to a theory."""

    name: str
    statement: Formula
    script: tuple = ()
    doc: str = ""


class Theory:
    """A named collection of declarations, definitions, axioms, and theorems."""

    def __init__(self, name: str, doc: str = "") -> None:
        self.name = name
        self.doc = doc
        self.declarations: dict[str, SymbolDeclaration] = {}
        self.definitions = DefinitionTable()
        self.axioms: dict[str, Formula] = {}
        self.theorems: dict[str, Theorem] = {}
        self.imports: list["Theory"] = []

    # -- construction --------------------------------------------------
    def declare(self, name: str, kind: str, arity: int = 0, doc: str = "") -> SymbolDeclaration:
        decl = SymbolDeclaration(name, kind, arity, doc)
        self.declarations[name] = decl
        return decl

    def define(self, definition: InductiveDefinition) -> InductiveDefinition:
        self.definitions.add(definition)
        return definition

    def axiom(self, name: str, statement: Formula) -> Formula:
        if name in self.axioms:
            raise ValueError(f"duplicate axiom {name!r} in theory {self.name!r}")
        self.axioms[name] = statement
        return statement

    def theorem(self, name: str, statement: Formula, script: Sequence = (), doc: str = "") -> Theorem:
        thm = Theorem(name, statement, tuple(script), doc)
        self.theorems[name] = thm
        return thm

    def importing(self, other: "Theory") -> None:
        self.imports.append(other)

    # -- views -----------------------------------------------------------
    def all_axioms(self) -> dict[str, Formula]:
        merged: dict[str, Formula] = {}
        for imp in self.imports:
            merged.update(imp.all_axioms())
        merged.update(self.axioms)
        return merged

    def all_definitions(self) -> DefinitionTable:
        table = DefinitionTable()
        for imp in self.imports:
            for d in imp.all_definitions():
                if d.predicate not in table:
                    table.add(d)
        for d in self.definitions:
            if d.predicate not in table:
                table.add(d)
        return table

    def context(self, extra_lemmas: Optional[Mapping[str, Formula]] = None) -> ProofContext:
        """Build a prover context containing this theory's definitions and axioms."""

        lemmas = dict(self.all_axioms())
        if extra_lemmas:
            lemmas.update(extra_lemmas)
        return ProofContext(definitions=self.all_definitions(), lemmas=lemmas)

    # -- proving ---------------------------------------------------------
    def prove_theorem(
        self,
        name: str,
        *,
        auto: bool = True,
        include_axioms: bool = True,
        max_steps: int = 400,
    ) -> ProofResult:
        """Prove a named theorem of this theory.

        All theory axioms are available as assumptions when
        ``include_axioms`` is set (the common case for generated NDlog
        specifications, whose aggregate semantics arrive as axioms).
        """

        thm = self.theorems.get(name)
        if thm is None:
            raise KeyError(f"theory {self.name!r} has no theorem {name!r}")
        assumptions = list(self.all_axioms().values()) if include_axioms else []
        return prove(
            self.context(),
            thm.statement,
            name=f"{self.name}.{name}",
            script=thm.script,
            assumptions=assumptions,
            auto=auto,
            max_steps=max_steps,
        )

    def prove_all(self, *, auto: bool = True, max_steps: int = 400) -> dict[str, ProofResult]:
        """Prove every theorem of the theory, returning results keyed by name."""

        return {
            name: self.prove_theorem(name, auto=auto, max_steps=max_steps)
            for name in self.theorems
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Theory({self.name!r}, axioms={len(self.axioms)}, "
            f"definitions={len(self.definitions)}, theorems={len(self.theorems)})"
        )


# ---------------------------------------------------------------------------
# Theory interpretation
# ---------------------------------------------------------------------------

@dataclass
class Obligation:
    """One proof obligation generated by a theory interpretation."""

    name: str
    statement: Formula
    source_axiom: str
    discharged: bool = False
    method: str = ""
    elapsed_seconds: float = 0.0
    detail: str = ""

    def summary(self) -> str:
        status = "discharged" if self.discharged else "OPEN"
        return f"{self.name}: {status} via {self.method or '-'} ({self.elapsed_seconds * 1000:.2f} ms)"


#: A decision procedure that attempts to discharge an obligation, returning
#: (success, detail).  Used by metarouting's finite-carrier checks.
Discharger = Callable[[Obligation], tuple[bool, str]]


class Interpretation:
    """An interpretation of an abstract theory inside a concrete one.

    ``symbol_map`` renames abstract predicate/function symbols to the
    concrete ones.  Every axiom of the abstract theory becomes an obligation
    over the concrete theory; :meth:`discharge_with_prover` tries the prover,
    :meth:`discharge_with` lets a domain-specific checker (e.g. exhaustive
    evaluation over a finite algebra) do the work — this is the analogue of
    the PVS type checker discharging TCCs for metarouting instantiations.
    """

    def __init__(
        self,
        abstract: Theory,
        concrete: Theory,
        symbol_map: Mapping[str, str],
        name: str = "",
    ) -> None:
        self.abstract = abstract
        self.concrete = concrete
        self.symbol_map = dict(symbol_map)
        self.name = name or f"{concrete.name}:{abstract.name}"
        self._obligations: Optional[list[Obligation]] = None

    # -- renaming --------------------------------------------------------
    def _rename_term(self, t: Term) -> Term:
        if isinstance(t, Func):
            new_name = self.symbol_map.get(t.name, t.name)
            return Func(new_name, tuple(self._rename_term(a) for a in t.args), t.sort)
        return t

    def _rename_formula(self, f: Formula) -> Formula:
        from .formulas import And, Exists, Forall, Iff, Implies, Not, Or

        if isinstance(f, Atom):
            return Atom(self.symbol_map.get(f.predicate, f.predicate), tuple(self._rename_term(a) for a in f.args))
        if isinstance(f, Comparison):
            return Comparison(f.op, self._rename_term(f.left), self._rename_term(f.right))
        if isinstance(f, Not):
            return Not(self._rename_formula(f.body))
        if isinstance(f, And):
            return And(tuple(self._rename_formula(p) for p in f.parts))
        if isinstance(f, Or):
            return Or(tuple(self._rename_formula(p) for p in f.parts))
        if isinstance(f, Implies):
            return Implies(self._rename_formula(f.antecedent), self._rename_formula(f.consequent))
        if isinstance(f, Iff):
            return Iff(self._rename_formula(f.left), self._rename_formula(f.right))
        if isinstance(f, Forall):
            return Forall(f.vars, self._rename_formula(f.body))
        if isinstance(f, Exists):
            return Exists(f.vars, self._rename_formula(f.body))
        return f

    # -- obligations -------------------------------------------------------
    def obligations(self) -> list[Obligation]:
        """Generate (and cache) one obligation per abstract axiom."""

        if self._obligations is None:
            self._obligations = [
                Obligation(
                    name=f"{self.name}.{axiom_name}",
                    statement=self._rename_formula(statement),
                    source_axiom=axiom_name,
                )
                for axiom_name, statement in self.abstract.all_axioms().items()
            ]
        return self._obligations

    def discharge_with(self, checker: Discharger) -> list[Obligation]:
        """Discharge all obligations with a domain-specific checker."""

        for ob in self.obligations():
            if ob.discharged:
                continue
            start = time.perf_counter()
            ok, detail = checker(ob)
            ob.elapsed_seconds = time.perf_counter() - start
            ob.discharged = ok
            ob.method = "checker"
            ob.detail = detail
        return self.obligations()

    def discharge_with_prover(self, *, max_steps: int = 400) -> list[Obligation]:
        """Discharge obligations by running the automated prover against the
        concrete theory's axioms and definitions."""

        assumptions = list(self.concrete.all_axioms().values())
        for ob in self.obligations():
            if ob.discharged:
                continue
            start = time.perf_counter()
            result = prove(
                self.concrete.context(),
                ob.statement,
                name=ob.name,
                assumptions=assumptions,
                auto=True,
                max_steps=max_steps,
            )
            ob.elapsed_seconds = time.perf_counter() - start
            ob.discharged = result.proved
            ob.method = "prover"
            ob.detail = result.summary()
        return self.obligations()

    @property
    def all_discharged(self) -> bool:
        return all(ob.discharged for ob in self.obligations())

    def report(self) -> str:
        lines = [f"Interpretation {self.name}:"]
        lines.extend("  " + ob.summary() for ob in self.obligations())
        return "\n".join(lines)
