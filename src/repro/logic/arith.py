"""Linear-arithmetic decision support for the sequent prover.

PVS closes goals such as ``C <= C2 AND C2 < C => FALSE`` with its arithmetic
decision procedures.  The FVN proofs generated in this repository only need
*linear* arithmetic over integers/rationals where the "variables" may be
arbitrary uninterpreted terms (e.g. ``C``, ``C1+C2``, ``f_size(P)``).  This
module provides:

* :func:`linearize` — turn a term into a linear combination of atomic terms
  plus a constant,
* :func:`evaluate` — fully evaluate ground arithmetic terms,
* :class:`ComparisonSet` — incremental Fourier–Motzkin style satisfiability
  checking over a conjunction of comparisons; reporting UNSAT lets the prover
  close a branch by arithmetic contradiction and reporting implied
  comparisons lets it discharge arithmetic goals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from ..terms import Const, Func, Term
from .formulas import Comparison


ARITH_OPS = {"+", "-", "*", "/"}


def is_numeric_const(t: Term) -> bool:
    return isinstance(t, Const) and isinstance(t.value, (int, float, Fraction)) and not isinstance(t.value, bool)


def evaluate(t: Term) -> Optional[Fraction]:
    """Evaluate a ground arithmetic term to a rational, or ``None``."""

    if is_numeric_const(t):
        return Fraction(t.value)  # type: ignore[arg-type]
    if isinstance(t, Func) and t.name in ARITH_OPS:
        args = [evaluate(a) for a in t.args]
        if any(a is None for a in args):
            return None
        if t.name == "+":
            return sum(args, Fraction(0))  # type: ignore[arg-type]
        if t.name == "-":
            if len(args) == 1:
                return -args[0]  # type: ignore[operator]
            return args[0] - args[1]  # type: ignore[operator]
        if t.name == "*":
            out = Fraction(1)
            for a in args:
                out *= a  # type: ignore[operator]
            return out
        if t.name == "/":
            if args[1] == 0:
                return None
            return args[0] / args[1]  # type: ignore[operator]
    if isinstance(t, Func) and t.name == "min" and len(t.args) == 2:
        args = [evaluate(a) for a in t.args]
        if any(a is None for a in args):
            return None
        return min(args)  # type: ignore[type-var]
    if isinstance(t, Func) and t.name == "max" and len(t.args) == 2:
        args = [evaluate(a) for a in t.args]
        if any(a is None for a in args):
            return None
        return max(args)  # type: ignore[type-var]
    return None


@dataclass(frozen=True)
class LinearExpr:
    """A linear combination ``sum(coeff_i * atom_i) + constant``.

    ``atoms`` maps an atomic (non-arithmetic) term to its rational
    coefficient.  Atomic terms are variables, non-numeric constants, and
    applications of uninterpreted functions.
    """

    coeffs: tuple[tuple[Term, Fraction], ...]
    constant: Fraction

    @staticmethod
    def build(coeffs: Mapping[Term, Fraction], constant: Fraction) -> "LinearExpr":
        items = tuple(sorted(((t, c) for t, c in coeffs.items() if c != 0), key=lambda tc: str(tc[0])))
        return LinearExpr(items, constant)

    def as_dict(self) -> dict[Term, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "LinearExpr") -> "LinearExpr":
        d = self.as_dict()
        for t, c in other.coeffs:
            d[t] = d.get(t, Fraction(0)) + c
        return LinearExpr.build(d, self.constant + other.constant)

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        return self + other.scale(Fraction(-1))

    def scale(self, k: Fraction) -> "LinearExpr":
        return LinearExpr.build({t: c * k for t, c in self.coeffs}, self.constant * k)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c}*{t}" for t, c in self.coeffs]
        parts.append(str(self.constant))
        return " + ".join(parts)


def linearize(t: Term) -> LinearExpr:
    """Convert a term into a :class:`LinearExpr`.

    Non-linear subterms (products of two non-constant expressions) and
    uninterpreted function applications are treated as opaque atoms.
    """

    value = evaluate(t)
    if value is not None:
        return LinearExpr.build({}, value)
    if isinstance(t, Func) and t.name in {"+", "-"}:
        if t.name == "+" and len(t.args) == 2:
            return linearize(t.args[0]) + linearize(t.args[1])
        if t.name == "-" and len(t.args) == 2:
            return linearize(t.args[0]) - linearize(t.args[1])
        if t.name == "-" and len(t.args) == 1:
            return linearize(t.args[0]).scale(Fraction(-1))
    if isinstance(t, Func) and t.name == "*" and len(t.args) == 2:
        left, right = linearize(t.args[0]), linearize(t.args[1])
        if left.is_constant:
            return right.scale(left.constant)
        if right.is_constant:
            return left.scale(right.constant)
    if isinstance(t, Func) and t.name == "/" and len(t.args) == 2:
        num, den = linearize(t.args[0]), linearize(t.args[1])
        if den.is_constant and den.constant != 0:
            return num.scale(Fraction(1) / den.constant)
    # opaque atom
    return LinearExpr.build({t: Fraction(1)}, Fraction(0))


@dataclass(frozen=True)
class Constraint:
    """A normalized constraint ``expr (op) 0`` with op in {<=, <, =}."""

    expr: LinearExpr
    op: str  # "<=", "<", "="

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.expr} {self.op} 0"


def normalize_comparison(cmp: Comparison) -> Optional[list[Constraint]]:
    """Normalize ``left op right`` to constraints of the form ``e op 0``.

    Disequalities (``/=``) are not convex; they are handled separately by the
    caller (by case split or by checking implied equality).  Returns ``None``
    for them.
    """

    diff = linearize(cmp.left) - linearize(cmp.right)
    if cmp.op == "<":
        return [Constraint(diff, "<")]
    if cmp.op == "<=":
        return [Constraint(diff, "<=")]
    if cmp.op == ">":
        return [Constraint(diff.scale(Fraction(-1)), "<")]
    if cmp.op == ">=":
        return [Constraint(diff.scale(Fraction(-1)), "<=")]
    if cmp.op == "=":
        return [Constraint(diff, "=")]
    return None


class ComparisonSet:
    """A conjunction of arithmetic comparisons with satisfiability checking.

    The implementation eliminates atoms one at a time (Fourier–Motzkin).
    Equalities are used for Gaussian substitution first.  The expected
    constraint sets in FVN proofs are tiny (a handful of atoms), so the
    worst-case blow-up of FM elimination is irrelevant in practice.
    """

    def __init__(self, comparisons: Iterable[Comparison] = ()) -> None:
        self.comparisons: list[Comparison] = []
        self.disequalities: list[Comparison] = []
        for c in comparisons:
            self.add(c)

    def add(self, cmp: Comparison) -> None:
        if cmp.op == "/=":
            self.disequalities.append(cmp)
        else:
            self.comparisons.append(cmp)

    def copy(self) -> "ComparisonSet":
        out = ComparisonSet()
        out.comparisons = list(self.comparisons)
        out.disequalities = list(self.disequalities)
        return out

    # -- satisfiability -----------------------------------------------------
    def is_unsatisfiable(self) -> bool:
        """True when the conjunction has no rational solution."""

        constraints: list[Constraint] = []
        for c in self.comparisons:
            norm = normalize_comparison(c)
            if norm is None:
                continue
            constraints.extend(norm)
        if _fm_unsat(constraints):
            return True
        # A disequality participates in UNSAT by case splitting:
        # a /= b is (a < b) OR (a > b); if both branches are UNSAT the whole
        # conjunction is UNSAT (this also covers "the equality is implied").
        for d in self.disequalities:
            less = normalize_comparison(Comparison("<", d.left, d.right)) or []
            more = normalize_comparison(Comparison(">", d.left, d.right)) or []
            if _fm_unsat(constraints + less) and _fm_unsat(constraints + more):
                return True
        return False

    def implies(self, goal: Comparison) -> bool:
        """True when the conjunction entails ``goal`` (over the rationals)."""

        if goal.op == "/=":
            # entailment of a disequality: the conjunction plus the equality
            # must be unsatisfiable.
            test = self.copy()
            test.add(Comparison("=", goal.left, goal.right))
            return test.is_unsatisfiable()
        test = self.copy()
        test.add(goal.negate())
        return test.is_unsatisfiable()


def _substitute_equalities(constraints: list[Constraint]) -> Optional[list[Constraint]]:
    """Use equalities for Gaussian elimination.  Returns ``None`` when an
    equality is itself contradictory (e.g. ``1 = 0``)."""

    inequalities = [c for c in constraints if c.op != "="]
    equalities = [c for c in constraints if c.op == "="]
    while equalities:
        eq = equalities.pop()
        if eq.expr.is_constant:
            if eq.expr.constant != 0:
                return None
            continue
        # pick a pivot atom
        pivot, coeff = eq.expr.coeffs[0]
        # pivot = -(rest)/coeff
        rest = LinearExpr.build(
            {t: c for t, c in eq.expr.coeffs if t != pivot}, eq.expr.constant
        ).scale(Fraction(-1) / coeff)

        def subst(e: LinearExpr) -> LinearExpr:
            d = e.as_dict()
            if pivot not in d:
                return e
            k = d.pop(pivot)
            return LinearExpr.build(d, e.constant) + rest.scale(k)

        inequalities = [Constraint(subst(c.expr), c.op) for c in inequalities]
        equalities = [Constraint(subst(c.expr), c.op) for c in equalities]
    return inequalities


def _fm_unsat(constraints: list[Constraint]) -> bool:
    """Fourier–Motzkin unsatisfiability over the rationals."""

    current = _substitute_equalities(constraints)
    if current is None:
        return True

    # iterate: pick an atom, split constraints into lower/upper bounds,
    # combine, repeat until no atoms remain.
    for _ in range(64):  # far more rounds than atoms in practice
        atoms = {t for c in current for t, _ in c.expr.coeffs}
        # check constant-only constraints
        for c in current:
            if c.expr.is_constant:
                k = c.expr.constant
                if c.op == "<=" and k > 0:
                    return True
                if c.op == "<" and k >= 0:
                    return True
        if not atoms:
            return False
        pivot = sorted(atoms, key=str)[0]
        uppers: list[tuple[LinearExpr, str]] = []  # pivot <= expr (or <)
        lowers: list[tuple[LinearExpr, str]] = []  # expr <= pivot (or <)
        others: list[Constraint] = []
        for c in current:
            d = c.expr.as_dict()
            k = d.get(pivot)
            if not k:
                others.append(c)
                continue
            rest = LinearExpr.build({t: v for t, v in d.items() if t != pivot}, c.expr.constant)
            # k*pivot + rest (op) 0
            if k > 0:
                # pivot (op) -rest/k   -> upper bound
                uppers.append((rest.scale(Fraction(-1) / k), c.op))
            else:
                # pivot (op') -rest/k  -> lower bound (inequality flips)
                lowers.append((rest.scale(Fraction(-1) / k), c.op))
        new: list[Constraint] = list(others)
        for (lo, lop), (hi, hop) in ((low, u) for low in lowers for u in uppers):
            op = "<" if "<" in (lop, hop) and (lop == "<" or hop == "<") else "<="
            # lo <= pivot <= hi  =>  lo - hi <= 0
            new.append(Constraint(lo - hi, op))
        current = new
    return False


def comparisons_entail(hypotheses: Iterable[Comparison], goal: Comparison) -> bool:
    """Convenience wrapper: do the hypotheses entail the goal?"""

    return ComparisonSet(hypotheses).implies(goal)


def comparisons_unsat(hypotheses: Iterable[Comparison]) -> bool:
    """Convenience wrapper: is the conjunction of hypotheses unsatisfiable?"""

    return ComparisonSet(hypotheses).is_unsatisfiable()


#: the name :mod:`repro.logic` exports :func:`evaluate` under
eval_arith = evaluate
