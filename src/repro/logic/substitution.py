"""Substitution composition, unification, and matching.

The sequent prover and the semi-naive NDlog evaluator both rely on
first-order syntactic unification.  Matching (one-way unification) is used
when instantiating universally quantified axioms against ground facts.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..terms import Const, Func, Term, Var
from .formulas import Atom, Comparison, Formula


Substitution = dict[Var, Term]


def apply(subst: Mapping[Var, Term], t: Term) -> Term:
    """Apply ``subst`` to ``t``."""

    return t.substitute(subst)


def compose(outer: Mapping[Var, Term], inner: Mapping[Var, Term]) -> Substitution:
    """Compose substitutions: ``apply(compose(o, i), t) == apply(o, apply(i, t))``."""

    result: Substitution = {v: t.substitute(outer) for v, t in inner.items()}
    for v, t in outer.items():
        if v not in result:
            result[v] = t
    return result


def occurs_in(v: Var, t: Term) -> bool:
    """Occurs check: does ``v`` occur in ``t``?"""

    if isinstance(t, Var):
        return t == v
    if isinstance(t, Func):
        return any(occurs_in(v, a) for a in t.args)
    return False


def unify_terms(
    a: Term, b: Term, subst: Optional[Mapping[Var, Term]] = None
) -> Optional[Substitution]:
    """Most general unifier of two terms, extending ``subst``.

    Returns ``None`` when the terms do not unify.  The result maps variables
    to terms and is idempotent.
    """

    work: Substitution = dict(subst or {})

    def walk(t: Term) -> Term:
        while isinstance(t, Var) and t in work:
            t = work[t]
        return t

    def _unify(x: Term, y: Term) -> bool:
        x, y = walk(x), walk(y)
        if x == y:
            return True
        if isinstance(x, Var):
            resolved = y.substitute(work)
            if occurs_in(x, resolved):
                return False
            work[x] = resolved
            # keep substitution idempotent
            for k in list(work):
                work[k] = work[k].substitute({x: resolved})
            return True
        if isinstance(y, Var):
            return _unify(y, x)
        if isinstance(x, Const) and isinstance(y, Const):
            return x.value == y.value
        if isinstance(x, Func) and isinstance(y, Func):
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            return all(_unify(xa, ya) for xa, ya in zip(x.args, y.args))
        return False

    return work if _unify(a, b) else None


def unify_atoms(
    a: Atom, b: Atom, subst: Optional[Mapping[Var, Term]] = None
) -> Optional[Substitution]:
    """Unify two atoms (same predicate, arity, and unifiable arguments)."""

    if a.predicate != b.predicate or len(a.args) != len(b.args):
        return None
    work: Optional[Substitution] = dict(subst or {})
    for x, y in zip(a.args, b.args):
        work = unify_terms(x, y, work)
        if work is None:
            return None
    return work


def match_terms(
    pattern: Term, target: Term, subst: Optional[Mapping[Var, Term]] = None
) -> Optional[Substitution]:
    """One-way matching: find a substitution over ``pattern``'s variables only.

    Variables in ``target`` are treated as constants.  Used when a universally
    quantified axiom is instantiated against a concrete (possibly still
    symbolic) goal.
    """

    work: Substitution = dict(subst or {})

    def _match(p: Term, t: Term) -> bool:
        if isinstance(p, Var):
            if p in work:
                return work[p] == t
            work[p] = t
            return True
        if isinstance(p, Const):
            return isinstance(t, Const) and p.value == t.value
        if isinstance(p, Func):
            if not isinstance(t, Func) or p.name != t.name or len(p.args) != len(t.args):
                return False
            return all(_match(pa, ta) for pa, ta in zip(p.args, t.args))
        return False

    return work if _match(pattern, target) else None


def match_atoms(
    pattern: Atom, target: Atom, subst: Optional[Mapping[Var, Term]] = None
) -> Optional[Substitution]:
    """One-way matching of atoms."""

    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return None
    work: Optional[Substitution] = dict(subst or {})
    for p, t in zip(pattern.args, target.args):
        work = match_terms(p, t, work)
        if work is None:
            return None
    return work


def match_formula(
    pattern: Formula, target: Formula, subst: Optional[Mapping[Var, Term]] = None
) -> Optional[Substitution]:
    """Match simple formulas (atoms and comparisons) structurally."""

    if isinstance(pattern, Atom) and isinstance(target, Atom):
        return match_atoms(pattern, target, subst)
    if isinstance(pattern, Comparison) and isinstance(target, Comparison):
        if pattern.op != target.op:
            return None
        work = match_terms(pattern.left, target.left, subst)
        if work is None:
            return None
        return match_terms(pattern.right, target.right, work)
    return None
