"""Proof tactics for the FVN sequent prover.

Tactic names and behaviour deliberately mirror the PVS commands the paper's
proofs use (``skolem``, ``flatten``, ``split``, ``inst``, ``expand``,
``lemma``, ``assert``, ``induct``), so that proof scripts written for this
reproduction read like the PVS scripts reference [22] describes.

Every tactic is a pure function ``(sequent, context, **params) -> list[Sequent]``
returning the subgoals that remain (the empty list means the goal is
closed).  A :class:`TacticError` signals that a tactic does not apply; the
interactive session surfaces the message, and the automated strategy simply
moves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..terms import Term, TermLike, Var, fresh_var, term
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
from .inductive import DefinitionTable
from .sequent import Sequent
from .substitution import Substitution, match_formula


class TacticError(Exception):
    """Raised when a tactic does not apply to the current goal."""


@dataclass
class ProofContext:
    """Everything a tactic may consult besides the goal itself.

    ``definitions`` holds inductive definitions (expandable by ``expand``),
    ``lemmas`` holds named closed formulas (axioms and previously proven
    theorems) that ``lemma`` can cite.
    """

    definitions: DefinitionTable = field(default_factory=DefinitionTable)
    lemmas: dict[str, Formula] = field(default_factory=dict)

    def lemma(self, name: str) -> Formula:
        if name not in self.lemmas:
            raise TacticError(f"unknown lemma {name!r}")
        return self.lemmas[name]


Tactic = Callable[..., list[Sequent]]


# ---------------------------------------------------------------------------
# Propositional tactics
# ---------------------------------------------------------------------------

def propax(goal: Sequent, ctx: ProofContext) -> list[Sequent]:
    """Close the goal if an antecedent syntactically matches a succedent."""

    if set(goal.antecedents) & set(goal.succedents):
        return []
    if any(isinstance(f, Falsity) for f in goal.antecedents):
        return []
    if any(isinstance(f, Truth) for f in goal.succedents):
        return []
    raise TacticError("no matching antecedent/succedent pair")


def assert_(goal: Sequent, ctx: ProofContext) -> list[Sequent]:
    """Arithmetic + equality closure, otherwise simplify in place.

    This is the workhorse end-of-branch step, analogous to PVS ``(assert)``:
    it invokes the arithmetic decision procedure and the equality rewriter.
    """

    if goal.is_closed():
        return []
    simplified = goal.normalized()
    if simplified.is_closed():
        return []
    if simplified != goal:
        return [simplified]
    return [goal]


def flatten(goal: Sequent, ctx: ProofContext) -> list[Sequent]:
    """Apply all invertible propositional rules until none apply.

    * succedent ``A => B``   → antecedent ``A``, succedent ``B``
    * succedent ``NOT A``    → antecedent ``A``
    * succedent ``A OR B``   → succedents ``A``, ``B``
    * antecedent ``A AND B`` → antecedents ``A``, ``B``
    * antecedent ``NOT A``   → succedent ``A``
    * drop ``TRUE`` antecedents and ``FALSE`` succedents
    """

    current = goal
    changed = True
    progressed = False
    while changed:
        changed = False
        for f in current.succedents:
            if isinstance(f, Implies):
                current = current.replace_succedent(f, f.consequent).with_antecedents(f.antecedent)
                changed = progressed = True
                break
            if isinstance(f, Not):
                current = current.replace_succedent(f).with_antecedents(f.body)
                changed = progressed = True
                break
            if isinstance(f, Or):
                current = current.replace_succedent(f, *f.parts)
                changed = progressed = True
                break
            if isinstance(f, Falsity):
                current = current.replace_succedent(f)
                changed = progressed = True
                break
        if changed:
            continue
        for f in current.antecedents:
            if isinstance(f, And):
                current = current.replace_antecedent(f, *f.parts)
                changed = progressed = True
                break
            if isinstance(f, Not):
                current = current.replace_antecedent(f).with_succedents(f.body)
                changed = progressed = True
                break
            if isinstance(f, Truth):
                current = current.replace_antecedent(f)
                changed = progressed = True
                break
    if not progressed:
        raise TacticError("nothing to flatten")
    return [current]


def split(goal: Sequent, ctx: ProofContext) -> list[Sequent]:
    """Case-split on the first splittable formula.

    * succedent ``A AND B``  → one subgoal per conjunct
    * succedent ``A <=> B``  → the two implications
    * antecedent ``A OR B``  → one subgoal per disjunct
    * antecedent ``A => B``  → prove ``A``; use ``B``
    * antecedent ``A <=> B`` → the two implications as antecedents
    """

    for f in goal.succedents:
        if isinstance(f, And):
            return [goal.replace_succedent(f, part) for part in f.parts]
        if isinstance(f, Iff):
            return [
                goal.replace_succedent(f, Implies(f.left, f.right)),
                goal.replace_succedent(f, Implies(f.right, f.left)),
            ]
    for f in goal.antecedents:
        if isinstance(f, Or):
            return [goal.replace_antecedent(f, part) for part in f.parts]
        if isinstance(f, Implies):
            return [
                goal.replace_antecedent(f).with_succedents(f.antecedent),
                goal.replace_antecedent(f, f.consequent),
            ]
        if isinstance(f, Iff):
            return [
                goal.replace_antecedent(
                    f, Implies(f.left, f.right), Implies(f.right, f.left)
                )
            ]
    raise TacticError("nothing to split")


# ---------------------------------------------------------------------------
# Quantifier tactics
# ---------------------------------------------------------------------------

def skolem(goal: Sequent, ctx: ProofContext) -> list[Sequent]:
    """Introduce fresh eigenvariables.

    Applies to the first universally quantified succedent or existentially
    quantified antecedent; the bound variables are replaced by fresh free
    variables (PVS ``skolem!``).
    """

    taken = set(goal.free_vars())

    def freshen(vars: Sequence[Var], body: Formula) -> Formula:
        mapping: dict[Var, Term] = {}
        for v in vars:
            nv = fresh_var(v, taken)
            taken.add(nv)
            if nv != v:
                mapping[v] = nv
        return body.substitute(mapping) if mapping else body

    for f in goal.succedents:
        if isinstance(f, Forall):
            return [goal.replace_succedent(f, freshen(f.vars, f.body))]
    for f in goal.antecedents:
        if isinstance(f, Exists):
            return [goal.replace_antecedent(f, freshen(f.vars, f.body))]
    raise TacticError("no quantifier to skolemize")


def skosimp(goal: Sequent, ctx: ProofContext) -> list[Sequent]:
    """Repeatedly skolemize and flatten (PVS ``skosimp*``)."""

    current = goal
    progressed = False
    for _ in range(64):
        stepped = False
        try:
            (current,) = skolem(current, ctx)
            stepped = progressed = True
        except TacticError:
            pass
        try:
            (current,) = flatten(current, ctx)
            stepped = progressed = True
        except TacticError:
            pass
        if not stepped:
            break
    if not progressed:
        raise TacticError("skosimp made no progress")
    return [current]


def inst(
    goal: Sequent,
    ctx: ProofContext,
    terms: Sequence[TermLike],
    target: Optional[Formula] = None,
    keep: bool = True,
) -> list[Sequent]:
    """Instantiate a quantifier with explicit terms.

    Applies to a universally quantified antecedent or an existentially
    quantified succedent.  ``target`` selects the formula; if omitted the
    first applicable quantified formula is used.  With ``keep`` the original
    quantified formula is retained (so it can be instantiated again later).
    """

    values = [term(t) for t in terms]

    def instantiate(q) -> Formula:
        if len(values) != len(q.vars):
            raise TacticError(
                f"expected {len(q.vars)} instantiation terms, got {len(values)}"
            )
        return q.body.substitute(dict(zip(q.vars, values)))

    candidates_ante = [
        f for f in goal.antecedents if isinstance(f, Forall) and (target is None or f == target)
    ]
    candidates_succ = [
        f for f in goal.succedents if isinstance(f, Exists) and (target is None or f == target)
    ]
    if candidates_ante:
        f = candidates_ante[0]
        inst_body = instantiate(f)
        if keep:
            return [goal.with_antecedents(inst_body)]
        return [goal.replace_antecedent(f, inst_body)]
    if candidates_succ:
        f = candidates_succ[0]
        inst_body = instantiate(f)
        if keep:
            return [goal.with_succedents(inst_body)]
        return [goal.replace_succedent(f, inst_body)]
    raise TacticError("no instantiable quantifier found")


# ---------------------------------------------------------------------------
# Definition / lemma tactics
# ---------------------------------------------------------------------------

def expand(goal: Sequent, ctx: ProofContext, name: str) -> list[Sequent]:
    """Unfold an inductive or plain definition everywhere it occurs."""

    definition = ctx.definitions.get(name)
    if definition is None:
        raise TacticError(f"no definition named {name!r}")

    expanded_any = False
    current = goal
    for f in list(current.antecedents):
        if isinstance(f, Atom) and f.predicate == name:
            unfolded = definition.unfold(f)
            if unfolded is not None:
                current = current.replace_antecedent(f, unfolded)
                expanded_any = True
    for f in list(current.succedents):
        if isinstance(f, Atom) and f.predicate == name:
            unfolded = definition.unfold(f)
            if unfolded is not None:
                current = current.replace_succedent(f, unfolded)
                expanded_any = True
    if not expanded_any:
        raise TacticError(f"{name!r} does not occur at the top level of the goal")
    return [current]


def lemma(goal: Sequent, ctx: ProofContext, name: str) -> list[Sequent]:
    """Bring a named lemma/axiom into the antecedent."""

    return [goal.with_antecedents(ctx.lemma(name))]


def case(goal: Sequent, ctx: ProofContext, formula: Formula) -> list[Sequent]:
    """Case split on an arbitrary formula (PVS ``case``)."""

    return [goal.with_antecedents(formula), goal.with_succedents(formula)]


def induct(goal: Sequent, ctx: ProofContext, predicate: str) -> list[Sequent]:
    """Induction over the derivation of an inductively defined predicate.

    The goal must have a single succedent of the shape
    ``FORALL xs: p(xs) => goal(xs)`` (possibly after ``flatten``).  One
    subgoal per clause of the definition of ``p`` is produced, each with the
    clause body and the induction hypotheses available as antecedents.
    """

    definition = ctx.definitions.get(predicate)
    if definition is None:
        raise TacticError(f"no definition named {predicate!r}")
    target = None
    for f in goal.succedents:
        if isinstance(f, Forall) and isinstance(f.body, Implies):
            head = f.body.antecedent
            if isinstance(head, Atom) and head.predicate == predicate:
                target = f
                break
    if target is None:
        raise TacticError(
            "induction requires a succedent of the form FORALL xs: p(xs) => goal"
        )
    assert isinstance(target.body, Implies)
    head_atom = target.body.antecedent
    assert isinstance(head_atom, Atom)
    goal_body = target.body.consequent
    # Parameters of the induction are the head atom's argument variables; we
    # require them to be exactly the quantified variables (the common case
    # for generated specifications).
    params: list[Var] = []
    for a in head_atom.args:
        if not isinstance(a, Var):
            raise TacticError("induction head arguments must be variables")
        params.append(a)
    subgoals: list[Sequent] = []
    for clause in definition.clauses:
        subst = dict(zip(definition.params, params))
        taken = set(goal.free_vars()) | set(params)
        local: dict[Var, Term] = dict(subst)
        bound: list[Var] = []
        for v in clause.exists_vars:
            nv = fresh_var(v, taken)
            taken.add(nv)
            bound.append(nv)
            local[v] = nv
        body = clause.body.substitute(local)
        hyps: list[Formula] = [body]
        for rec in definition.recursive_atoms(clause):
            rec_inst = rec.substitute(local)
            mapping = dict(zip(params, rec_inst.args))
            hyps.append(goal_body.substitute(mapping))
        sub = goal.replace_succedent(target, goal_body).with_antecedents(*hyps)
        subgoals.append(sub)
    return subgoals


def hide(goal: Sequent, ctx: ProofContext, formula: Formula) -> list[Sequent]:
    """Remove a formula from the goal (weakening)."""

    if formula in goal.antecedents:
        return [goal.replace_antecedent(formula)]
    if formula in goal.succedents:
        return [goal.replace_succedent(formula)]
    raise TacticError("formula not present in the goal")


# ---------------------------------------------------------------------------
# Heuristic instantiation (used by the automated strategy)
# ---------------------------------------------------------------------------

def _strip_foralls(f: Formula) -> tuple[tuple[Var, ...], Formula]:
    vars: tuple[Var, ...] = ()
    while isinstance(f, Forall):
        vars += f.vars
        f = f.body
    return vars, f


def _candidate_triggers(body: Formula) -> list[Formula]:
    """Atoms/comparisons inside a quantified body usable as matching triggers."""

    triggers: list[Formula] = []
    if isinstance(body, Implies):
        lhs = body.antecedent
        parts = lhs.parts if isinstance(lhs, And) else (lhs,)
        triggers.extend(p for p in parts if isinstance(p, (Atom, Comparison)))
    for a in body.atoms():
        if a not in triggers:
            triggers.append(a)
    return triggers


def _joint_matches(
    triggers: Sequence[Formula],
    facts: Sequence[Formula],
    binding: Substitution,
    limit: int,
    out: list[Substitution],
) -> None:
    """Join-match every trigger against some fact, accumulating bindings."""

    if len(out) >= limit:
        return
    if not triggers:
        out.append(dict(binding))
        return
    first, rest = triggers[0], triggers[1:]
    for fact in facts:
        subst = match_formula(first, fact, binding)
        if subst is None:
            continue
        _joint_matches(rest, facts, subst, limit, out)
        if len(out) >= limit:
            return


def heuristic_instantiations(
    goal: Sequent, quantified: Forall | Exists, limit: int = 8
) -> list[Substitution]:
    """Guess instantiations for a universally quantified antecedent (or an
    existentially quantified succedent).

    Strategy: when the body is an implication whose antecedent is a
    conjunction of atoms/comparisons (the shape generated from NDlog rules
    and aggregate axioms), the conjuncts are *jointly* matched against the
    goal's atomic facts so that every quantified variable gets bound.
    Otherwise each atom of the body is tried as a single trigger.
    """

    if isinstance(quantified, Forall):
        vars, body = _strip_foralls(quantified)
    else:
        vars = quantified.vars
        body = quantified.body
        while isinstance(body, Exists):
            vars = vars + body.vars
            body = body.body
    facts: list[Formula] = [f for f in goal.antecedents if isinstance(f, (Atom, Comparison))]
    facts += [f for f in goal.succedents if isinstance(f, (Atom, Comparison))]
    results: list[Substitution] = []
    seen: set[tuple] = set()

    def record(subst: Substitution) -> None:
        binding = {v: t for v, t in subst.items() if v in vars}
        if not binding:
            return
        key = tuple(sorted((v.name, str(t)) for v, t in binding.items()))
        if key in seen:
            return
        seen.add(key)
        results.append(binding)

    # 1. joint matching of the implication's antecedent conjuncts (or, for an
    #    existential goal, of the body conjuncts themselves)
    if isinstance(body, Implies):
        lhs = body.antecedent
        conjuncts = list(lhs.parts) if isinstance(lhs, And) else [lhs]
    elif isinstance(body, And):
        conjuncts = list(body.parts)
    else:
        conjuncts = [body]
    joint_triggers = [c for c in conjuncts if isinstance(c, (Atom, Comparison))]
    if joint_triggers:
        joint: list[Substitution] = []
        _joint_matches(joint_triggers, facts, {}, limit, joint)
        for subst in joint:
            record(subst)
    # 2. single-trigger fallback
    if len(results) < limit:
        for trigger in _candidate_triggers(body):
            for fact in facts:
                subst = match_formula(trigger, fact)
                if subst is None:
                    continue
                record(subst)
                if len(results) >= limit:
                    break
            if len(results) >= limit:
                break
    return results


#: Registry used by the interactive session to look tactics up by name.
TACTICS: dict[str, Tactic] = {
    "propax": propax,
    "assert": assert_,
    "flatten": flatten,
    "split": split,
    "skolem": skolem,
    "skosimp": skosimp,
    "inst": inst,
    "expand": expand,
    "lemma": lemma,
    "case": case,
    "induct": induct,
    "hide": hide,
}
