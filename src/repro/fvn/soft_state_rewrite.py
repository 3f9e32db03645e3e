"""The soft-state → hard-state rule rewrite (paper Section 4.2).

To reason about soft state with a classical (non-linear) logic, reference
[22] rewrites soft-state predicates into hard-state predicates carrying
explicit timestamp and lifetime attributes, and adds liveness conditions to
every rule reading them.  The paper calls the resulting encoding
"heavy-weight and cumbersome to prove" — this module implements the rewrite
and *measures* that blow-up, which is what experiment E7 reports, and it
motivates the transition-system view in :mod:`repro.fvn.linear`.

Rewrite, for each soft-state predicate ``p(A1..An)`` with lifetime ``L``:

* the predicate becomes ``p(A1..An, Tins, Ttl)``;
* every rule deriving ``p`` appends ``Tins = Tnow`` and ``Ttl = L`` where
  ``Tnow`` is the (max of the) timestamps of the soft-state body literals
  (or 0 for purely hard-state bodies);
* every rule reading ``p`` receives fresh timestamp variables and the
  liveness condition ``Tnow <= Tins + Ttl`` relating the reader's timestamp
  to the tuple's insertion time and lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ndlog.ast import (
    Assignment,
    Condition,
    HeadLiteral,
    Literal,
    MaterializeDecl,
    Program,
    Rule,
)
from ..terms import Const, Func, Term, Var


@dataclass
class RewriteMetrics:
    """Size metrics of a program, used to quantify the encoding blow-up."""

    rules: int
    body_literals: int
    attributes: int
    conditions: int
    assignments: int

    @staticmethod
    def of(program: Program) -> "RewriteMetrics":
        rules = len(program.rules)
        body_literals = sum(len(r.body_literals) for r in program.rules)
        attributes = sum(r.head.arity for r in program.rules) + sum(
            lit.arity for r in program.rules for lit in r.body_literals
        )
        conditions = sum(len(r.conditions) for r in program.rules)
        assignments = sum(len(r.assignments) for r in program.rules)
        return RewriteMetrics(rules, body_literals, attributes, conditions, assignments)

    def blowup_over(self, other: "RewriteMetrics") -> dict[str, float]:
        """Relative growth of each metric versus ``other`` (the original)."""

        def ratio(a: int, b: int) -> float:
            return a / b if b else float("inf") if a else 1.0

        return {
            "rules": ratio(self.rules, other.rules),
            "body_literals": ratio(self.body_literals, other.body_literals),
            "attributes": ratio(self.attributes, other.attributes),
            "conditions": ratio(self.conditions, other.conditions),
            "assignments": ratio(self.assignments, other.assignments),
        }


@dataclass
class SoftStateRewrite:
    """The rewritten program plus before/after metrics."""

    original: Program
    rewritten: Program
    soft_predicates: tuple[str, ...]
    before: RewriteMetrics
    after: RewriteMetrics

    def blowup(self) -> dict[str, float]:
        return self.after.blowup_over(self.before)

    def summary(self) -> str:
        blow = self.blowup()
        return (
            f"soft-state rewrite of {self.original.name}: "
            f"attributes x{blow['attributes']:.2f}, conditions x{blow['conditions']:.2f}, "
            f"assignments x{blow['assignments']:.2f} over {len(self.soft_predicates)} soft predicates"
        )


def _is_soft(predicate: str, program: Program) -> bool:
    decl = program.materialized.get(predicate)
    return bool(decl and decl.is_soft_state)


def rewrite_soft_state(program: Program, *, timestamp_prefix: str = "T") -> SoftStateRewrite:
    """Apply the soft-state → hard-state rewrite to a program."""

    program.check()
    soft = tuple(sorted(p for p in program.predicates() if _is_soft(p, program)))
    if not soft:
        rewritten = Program(program.name + "_hard")
        for rule in program.rules:
            rewritten.add_rule(rule)
        for fact in program.facts:
            rewritten.add_fact(fact)
        metrics = RewriteMetrics.of(program)
        return SoftStateRewrite(program, rewritten, soft, metrics, metrics)

    rewritten = Program(program.name + "_hard")
    # Hard-state (rewritten) tables keep their keys but lose the lifetime —
    # expiry is now expressed by the liveness conditions, not by the store.
    for decl in program.materialized.values():
        rewritten.add_materialize(
            MaterializeDecl(
                predicate=decl.predicate,
                lifetime=float("inf"),
                max_size=decl.max_size,
                keys=decl.keys,
            )
        )

    for rule in program.rules:
        counter = 0
        new_body: list = []
        body_timestamps: list[Var] = []

        def fresh_pair() -> tuple[Var, Var]:
            nonlocal counter
            counter += 1
            return Var(f"{timestamp_prefix}ins{counter}"), Var(f"{timestamp_prefix}ttl{counter}")

        for item in rule.body:
            if isinstance(item, Literal) and not item.negated and item.predicate in soft:
                tins, tttl = fresh_pair()
                new_body.append(Literal(item.predicate, item.args + (tins, tttl), item.location, item.negated))
                body_timestamps.append(tins)
                # liveness: the fact must still be alive when used
                new_body.append(Condition("<=", Var(f"{timestamp_prefix}now"), Func("+", (tins, tttl))))
            elif isinstance(item, Literal) and item.negated and item.predicate in soft:
                tins, tttl = fresh_pair()
                new_body.append(Literal(item.predicate, item.args + (tins, tttl), item.location, item.negated))
            else:
                new_body.append(item)

        # The reader's "now" is the latest insertion time among its soft inputs.
        if body_timestamps:
            now_expr: Term = body_timestamps[0]
            for ts in body_timestamps[1:]:
                now_expr = Func("max", (now_expr, ts))
            new_body.insert(0, Assignment(Var(f"{timestamp_prefix}now"), now_expr))
        else:
            new_body.insert(0, Assignment(Var(f"{timestamp_prefix}now"), Const(0)))

        head = rule.head
        if head.predicate in soft:
            lifetime = program.lifetime_of(head.predicate)
            head_args = head.args + (
                Var(f"{timestamp_prefix}now"),
                Const(lifetime),
            )
            head = HeadLiteral(head.predicate, head_args, head.location)
        rewritten.add_rule(Rule(rule.name, head, tuple(new_body)))

    for fact in program.facts:
        if fact.predicate in soft:
            lifetime = program.lifetime_of(fact.predicate)
            rewritten.add_fact(
                type(fact)(fact.predicate, fact.values + (0, lifetime), fact.location)
            )
        else:
            rewritten.add_fact(fact)

    return SoftStateRewrite(
        original=program,
        rewritten=rewritten,
        soft_predicates=soft,
        before=RewriteMetrics.of(program),
        after=RewriteMetrics.of(rewritten),
    )
