"""First-order formulas for the FVN logic substrate.

Formulas mirror the PVS fragment the paper relies on:

* atomic predicates over terms (``path(S,D,P,C)``),
* equality and arithmetic comparisons,
* the usual connectives and quantifiers,
* and (in :mod:`repro.logic.inductive`) inductively defined predicates that
  play the role of PVS ``INDUCTIVE bool`` definitions.

Everything is immutable and hashable so formulas can live in sets (sequents
are sets of formulas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..terms import COMPARISONS, Term, TermLike, Var, fresh_var, term


class Formula:
    """Abstract base class for formulas."""

    __slots__ = ()

    def free_vars(self) -> frozenset[Var]:
        raise NotImplementedError

    def substitute(self, subst: Mapping[Var, Term]) -> "Formula":
        raise NotImplementedError

    def subformulas(self) -> Iterator["Formula"]:
        yield self

    def atoms(self) -> Iterator["Atom"]:
        for f in self.subformulas():
            if isinstance(f, Atom):
                yield f

    # -- convenience connective constructors -------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic predicate applied to terms."""

    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for a in self.args:
            out |= a.free_vars()
        return out

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return Atom(self.predicate, tuple(a.substitute(subst) for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(a) for a in self.args)})"

    def __hash__(self) -> int:
        return hash(("Atom", self.predicate, self.args))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other.predicate == self.predicate
            and other.args == self.args
        )


@dataclass(frozen=True)
class Comparison(Formula):
    """An (in)equality or arithmetic comparison between two terms."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def free_vars(self) -> frozenset[Var]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return Comparison(self.op, self.left.substitute(subst), self.right.substitute(subst))

    def negate(self) -> "Comparison":
        """The comparison equivalent to the negation of this one."""

        flipped = {"=": "/=", "/=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
        return Comparison(flipped[self.op], self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def __hash__(self) -> int:
        return hash(("Comparison", self.op, self.left, self.right))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )


@dataclass(frozen=True)
class Truth(Formula):
    """The constant TRUE."""

    def free_vars(self) -> frozenset[Var]:
        return frozenset()

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return self

    def __str__(self) -> str:
        return "TRUE"

    def __hash__(self) -> int:
        return hash("Truth")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Truth)


@dataclass(frozen=True)
class Falsity(Formula):
    """The constant FALSE."""

    def free_vars(self) -> frozenset[Var]:
        return frozenset()

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return self

    def __str__(self) -> str:
        return "FALSE"

    def __hash__(self) -> int:
        return hash("Falsity")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Falsity)


TRUE = Truth()
FALSE = Falsity()


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def free_vars(self) -> frozenset[Var]:
        return self.body.free_vars()

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return Not(self.body.substitute(subst))

    def subformulas(self) -> Iterator[Formula]:
        yield self
        yield from self.body.subformulas()

    def __str__(self) -> str:
        return f"NOT ({self.body})"

    def __hash__(self) -> int:
        return hash(("Not", self.body))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.body == self.body


def _flatten(cls: type, parts: Sequence[Formula]) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)  # type: ignore[attr-defined]
        else:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", _flatten(And, tuple(self.parts)))

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for p in self.parts:
            out |= p.free_vars()
        return out

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return And(tuple(p.substitute(subst) for p in self.parts))

    def subformulas(self) -> Iterator[Formula]:
        yield self
        for p in self.parts:
            yield from p.subformulas()

    def __str__(self) -> str:
        return "(" + " AND ".join(str(p) for p in self.parts) + ")"

    def __hash__(self) -> int:
        return hash(("And", self.parts))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.parts == self.parts


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", _flatten(Or, tuple(self.parts)))

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for p in self.parts:
            out |= p.free_vars()
        return out

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return Or(tuple(p.substitute(subst) for p in self.parts))

    def subformulas(self) -> Iterator[Formula]:
        yield self
        for p in self.parts:
            yield from p.subformulas()

    def __str__(self) -> str:
        return "(" + " OR ".join(str(p) for p in self.parts) + ")"

    def __hash__(self) -> int:
        return hash(("Or", self.parts))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.parts == self.parts


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def free_vars(self) -> frozenset[Var]:
        return self.antecedent.free_vars() | self.consequent.free_vars()

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return Implies(self.antecedent.substitute(subst), self.consequent.substitute(subst))

    def subformulas(self) -> Iterator[Formula]:
        yield self
        yield from self.antecedent.subformulas()
        yield from self.consequent.subformulas()

    def __str__(self) -> str:
        return f"({self.antecedent} => {self.consequent})"

    def __hash__(self) -> int:
        return hash(("Implies", self.antecedent, self.consequent))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Implies)
            and other.antecedent == self.antecedent
            and other.consequent == self.consequent
        )


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def free_vars(self) -> frozenset[Var]:
        return self.left.free_vars() | self.right.free_vars()

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        return Iff(self.left.substitute(subst), self.right.substitute(subst))

    def subformulas(self) -> Iterator[Formula]:
        yield self
        yield from self.left.subformulas()
        yield from self.right.subformulas()

    def __str__(self) -> str:
        return f"({self.left} <=> {self.right})"

    def __hash__(self) -> int:
        return hash(("Iff", self.left, self.right))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Iff) and other.left == self.left and other.right == self.right


class Quantifier(Formula):
    """Common machinery for FORALL / EXISTS."""

    __slots__ = ("vars", "body")
    kind = "?"

    def __init__(self, vars: Sequence[Var], body: Formula) -> None:
        self.vars = tuple(vars)
        self.body = body
        if not self.vars:
            raise ValueError("quantifier requires at least one variable")

    def free_vars(self) -> frozenset[Var]:
        return self.body.free_vars() - frozenset(self.vars)

    def substitute(self, subst: Mapping[Var, Term]) -> Formula:
        # Capture-avoiding substitution: drop bindings for bound variables
        # and rename bound variables that would capture.
        live = {v: t for v, t in subst.items() if v not in self.vars}
        if not live:
            return type(self)(self.vars, self.body)
        incoming = frozenset().union(*(t.free_vars() for t in live.values())) if live else frozenset()
        bound = list(self.vars)
        body = self.body
        renames: dict[Var, Term] = {}
        taken = set(incoming) | body.free_vars()
        for i, v in enumerate(bound):
            if v in incoming:
                nv = fresh_var(v, taken)
                taken.add(nv)
                renames[v] = nv
                bound[i] = nv
        if renames:
            body = body.substitute(renames)
        return type(self)(tuple(bound), body.substitute(live))

    def subformulas(self) -> Iterator[Formula]:
        yield self
        yield from self.body.subformulas()

    def __str__(self) -> str:
        vs = ",".join(str(v) for v in self.vars)
        return f"{self.kind} ({vs}): {self.body}"

    def __hash__(self) -> int:
        return hash((self.kind, self.vars, self.body))

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.vars == self.vars  # type: ignore[attr-defined]
            and other.body == self.body  # type: ignore[attr-defined]
        )


class Forall(Quantifier):
    kind = "FORALL"


class Exists(Quantifier):
    kind = "EXISTS"


# ---------------------------------------------------------------------------
# Convenience constructors (mirroring the PVS-ish surface syntax used in the
# paper's examples).
# ---------------------------------------------------------------------------

def atom(predicate: str, *args: TermLike) -> Atom:
    """Build an atom, coercing Python values to terms."""

    return Atom(predicate, tuple(term(a) for a in args))


def eq(left: TermLike, right: TermLike) -> Comparison:
    return Comparison("=", term(left), term(right))


def neq(left: TermLike, right: TermLike) -> Comparison:
    return Comparison("/=", term(left), term(right))


def lt(left: TermLike, right: TermLike) -> Comparison:
    return Comparison("<", term(left), term(right))


def le(left: TermLike, right: TermLike) -> Comparison:
    return Comparison("<=", term(left), term(right))


def gt(left: TermLike, right: TermLike) -> Comparison:
    return Comparison(">", term(left), term(right))


def ge(left: TermLike, right: TermLike) -> Comparison:
    return Comparison(">=", term(left), term(right))


def conj(*parts: Formula) -> Formula:
    """Conjunction; empty conjunction is TRUE, singleton is itself."""

    flat = [p for p in parts if not isinstance(p, Truth)]
    if any(isinstance(p, Falsity) for p in flat):
        return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    """Disjunction; empty disjunction is FALSE, singleton is itself."""

    flat = [p for p in parts if not isinstance(p, Falsity)]
    if any(isinstance(p, Truth) for p in flat):
        return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Implies(antecedent, consequent)


def iff(left: Formula, right: Formula) -> Formula:
    return Iff(left, right)


def neg(body: Formula) -> Formula:
    if isinstance(body, Not):
        return body.body
    if isinstance(body, Truth):
        return FALSE
    if isinstance(body, Falsity):
        return TRUE
    return Not(body)


def forall(vars: Sequence[Var] | Var, body: Formula) -> Formula:
    if isinstance(vars, Var):
        vars = (vars,)
    if not vars:
        return body
    return Forall(tuple(vars), body)


def exists(vars: Sequence[Var] | Var, body: Formula) -> Formula:
    if isinstance(vars, Var):
        vars = (vars,)
    if not vars:
        return body
    return Exists(tuple(vars), body)


def close(body: Formula) -> Formula:
    """Universally close a formula over its free variables (sorted by name)."""

    fv = sorted(body.free_vars(), key=lambda v: v.name)
    return forall(tuple(fv), body) if fv else body


def predicates_in(formula: Formula) -> frozenset[str]:
    """The set of predicate names occurring in ``formula``."""

    return frozenset(a.predicate for a in formula.atoms())
