"""Sequents and trivial-closure checks for the FVN prover.

A sequent ``Γ ⊢ Δ`` asserts that the conjunction of the antecedent formulas
``Γ`` entails the disjunction of the succedent formulas ``Δ``.  Proof goals
are sequents; tactics transform one goal into zero or more subgoals.

Closure (the prover's ``assert`` step, mirroring PVS's decision procedures)
recognises:

* a formula occurring both as antecedent and succedent,
* ``FALSE`` in the antecedent or ``TRUE`` in the succedent,
* syntactically reflexive equalities in the succedent,
* arithmetic entailment — the antecedent comparisons (after rewriting with
  antecedent equalities) are unsatisfiable, or they entail some succedent
  comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..terms import COMPARISON_FNS, Const, Func, Term, Var
from .arith import ComparisonSet, evaluate
from .formulas import (
    Atom,
    Comparison,
    Falsity,
    Formula,
    Not,
    Truth,
)


@dataclass(frozen=True)
class Sequent:
    """An immutable sequent: antecedents ⊢ succedents."""

    antecedents: tuple[Formula, ...] = ()
    succedents: tuple[Formula, ...] = ()

    @staticmethod
    def goal(formula: Formula) -> "Sequent":
        """The initial proof goal for a theorem: ``⊢ formula``."""

        return Sequent((), (formula,))

    def with_antecedents(self, *formulas: Formula) -> "Sequent":
        new = [f for f in formulas if f not in self.antecedents]
        return Sequent(self.antecedents + tuple(new), self.succedents)

    def with_succedents(self, *formulas: Formula) -> "Sequent":
        new = [f for f in formulas if f not in self.succedents]
        return Sequent(self.antecedents, self.succedents + tuple(new))

    def replace_antecedent(self, old: Formula, *new: Formula) -> "Sequent":
        ante = [f for f in self.antecedents if f != old]
        for f in new:
            if f not in ante:
                ante.append(f)
        return Sequent(tuple(ante), self.succedents)

    def replace_succedent(self, old: Formula, *new: Formula) -> "Sequent":
        succ = [f for f in self.succedents if f != old]
        for f in new:
            if f not in succ:
                succ.append(f)
        return Sequent(self.antecedents, tuple(succ))

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for f in self.antecedents + self.succedents:
            out |= f.free_vars()
        return out

    def constants(self) -> set[Term]:
        """Ground atomic terms mentioned anywhere (used for instantiation)."""

        out: set[Term] = set()
        for f in self.antecedents + self.succedents:
            for a in f.atoms():
                for t in a.args:
                    if t.is_ground:
                        out.add(t)
            if isinstance(f, Comparison):
                for t in (f.left, f.right):
                    if t.is_ground:
                        out.add(t)
        return out

    def __str__(self) -> str:
        ante = "\n".join(f"  [-{i + 1}] {f}" for i, f in enumerate(self.antecedents))
        succ = "\n".join(f"  [{i + 1}] {f}" for i, f in enumerate(self.succedents))
        return f"{ante}\n  |-------\n{succ}" if ante else f"  |-------\n{succ}"

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def equality_rewrites(self) -> dict[Term, Term]:
        """Oriented rewrites from antecedent equalities ``x = t`` (var → term)
        and ``t = c`` (term → constant)."""

        rewrites: dict[Term, Term] = {}
        for f in self.antecedents:
            if isinstance(f, Comparison) and f.op == "=":
                left, right = f.left, f.right
                if isinstance(left, Var) and left not in right.free_vars():
                    rewrites.setdefault(left, right)
                elif isinstance(right, Var) and right not in left.free_vars():
                    rewrites.setdefault(right, left)
                elif isinstance(right, Const):
                    rewrites.setdefault(left, right)
                elif isinstance(left, Const):
                    rewrites.setdefault(right, left)
        return rewrites

    def _rewrite_term(self, t: Term, rewrites: dict[Term, Term], depth: int = 8) -> Term:
        for _ in range(depth):
            if t in rewrites:
                t = rewrites[t]
                continue
            if isinstance(t, Func):
                new_args = tuple(self._rewrite_term(a, rewrites, depth - 1) for a in t.args)
                if new_args != t.args:
                    t = Func(t.name, new_args, t.sort)
                    continue
            break
        return t

    def _rewrite_formula(self, f: Formula, rewrites: dict[Term, Term]) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.predicate, tuple(self._rewrite_term(a, rewrites) for a in f.args))
        if isinstance(f, Comparison):
            return Comparison(
                f.op,
                self._rewrite_term(f.left, rewrites),
                self._rewrite_term(f.right, rewrites),
            )
        return f

    def normalized(self) -> "Sequent":
        """Apply antecedent equality rewrites to all atoms and comparisons."""

        rewrites = self.equality_rewrites()
        if not rewrites:
            return self
        ante = tuple(self._rewrite_formula(f, rewrites) for f in self.antecedents)
        succ = tuple(self._rewrite_formula(f, rewrites) for f in self.succedents)
        return Sequent(ante, succ)

    def is_closed(self) -> bool:
        """Is this sequent trivially valid?"""

        if any(isinstance(f, Falsity) for f in self.antecedents):
            return True
        if any(isinstance(f, Truth) for f in self.succedents):
            return True
        norm = self.normalized()
        ante = set(norm.antecedents) | set(self.antecedents)
        succ = set(norm.succedents) | set(self.succedents)
        if ante & succ:
            return True
        # a succedent conjunction all of whose conjuncts are antecedents is
        # established (lets a single decision-procedure step close goals of
        # the shape Γ, A, B ⊢ A AND B, as PVS's assert does)
        from .formulas import And as _And

        for f in succ:
            if isinstance(f, _And) and all(part in ante for part in f.parts):
                return True
        # NOT f in antecedent with f in antecedent, or NOT f in succedent with
        # f in succedent (after normalization) close as well.
        for f in ante:
            if isinstance(f, Not) and f.body in ante:
                return True
        for f in succ:
            if isinstance(f, Not) and f.body in succ:
                # ⊢ f, ¬f is valid
                return True
        # reflexive equality / evaluated comparisons in the succedent
        for f in succ:
            if isinstance(f, Comparison):
                if f.op in {"=", "<=", ">="} and f.left == f.right:
                    return True
                lv, rv = evaluate(f.left), evaluate(f.right)
                if lv is not None and rv is not None and COMPARISON_FNS[f.op](lv, rv):
                    return True
        for f in ante:
            if isinstance(f, Comparison):
                lv, rv = evaluate(f.left), evaluate(f.right)
                if lv is not None and rv is not None and not COMPARISON_FNS[f.op](lv, rv):
                    return True
                if f.op == "/=" and f.left == f.right:
                    return True
        # arithmetic closure
        hyp = [f for f in norm.antecedents if isinstance(f, Comparison)]
        hyp += [
            f.body.negate()
            for f in norm.antecedents
            if isinstance(f, Not) and isinstance(f.body, Comparison)
        ]
        hyp += [
            f.negate() for f in norm.succedents if isinstance(f, Comparison)
        ]
        if hyp and ComparisonSet(hyp).is_unsatisfiable():
            return True
        return False
