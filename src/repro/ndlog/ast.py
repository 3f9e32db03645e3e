"""Abstract syntax for Network Datalog (NDlog).

NDlog (paper Section 2.2) is Datalog extended with:

* a **location specifier** on every predicate — the ``@`` attribute naming
  the node where the tuple lives (``link(@S,D,C)`` is stored at ``S``);
* **aggregates** in rule heads (``bestPathCost(@S,D,min<C>)``);
* **built-in functions** over values and path vectors (``f_init``,
  ``f_concatPath``, ``f_inPath``);
* **assignments** and boolean conditions in rule bodies;
* optional **soft-state lifetimes** declared per table (``materialize``).

Terms are the shared kernel's :class:`~repro.terms.Var`,
:class:`~repro.terms.Const` and :class:`~repro.terms.Func`, which keeps the
NDlog→logic translation (arc 4 of Figure 1) a structural walk.

The AST dataclasses are declared with ``slots`` — evaluation touches
literals and facts constantly, and large generated programs/databases hold
many of them — and the parser interns predicate-name strings so the
dictionary lookups keyed by predicate throughout the evaluators compare
interned pointers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterator, Optional, Union

from ..terms import COMPARISONS, Const, Func, Term, Var


class NDlogError(Exception):
    """Base class for NDlog syntax/semantics errors."""


#: Aggregate function names supported in rule heads.
AGGREGATE_FUNCTIONS = ("min", "max", "count", "sum", "avg")


@dataclass(frozen=True, slots=True)
class Span:
    """A source position (1-based line and column) attached to parsed AST
    nodes so diagnostics and :class:`NDlogError` s can cite locations.

    Spans are carried in ``compare=False`` fields: two nodes that differ
    only in provenance still compare (and hash) equal, which keeps parsed
    programs interchangeable with hand-built ones throughout the engines
    and the test suite.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def _cite(span: Optional["Span"]) -> str:
    """``" (line L:C)"`` when a span is known, else empty — appended to
    error messages so parsed-program failures point at their source."""

    return f" (line {span})" if span is not None else ""


def render_term(term: Term) -> str:
    """Render a term in parseable NDlog surface syntax.

    The generic :meth:`Const.__str__` prints Python spellings (``True``,
    ``inf``) that the parser reads back as a *variable* and a symbol
    constant respectively; this renderer emits the surface keywords
    (``true``/``false``/``infinity``) instead, recursing through function
    applications, so ``parse(str(program))`` round-trips (the property the
    parser fuzz suite pins).
    """

    if isinstance(term, Const):
        value = term.value
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, float) and value == float("inf"):
            return "infinity"
        return str(term)
    if isinstance(term, Func) and term.args:
        if term.name in _INFIX_FUNCS and len(term.args) == 2:
            left, right = (render_term(a) for a in term.args)
            return f"({left} {term.name} {right})"
        inner = ",".join(render_term(a) for a in term.args)
        return f"{term.name}({inner})"
    return str(term)


_INFIX_FUNCS = {"+", "-", "*", "/"}


@dataclass(frozen=True, slots=True)
class Aggregate:
    """An aggregate head argument such as ``min<C>``."""

    function: str
    variable: Var

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise NDlogError(f"unknown aggregate function {self.function!r}")

    def __str__(self) -> str:
        return f"{self.function}<{self.variable}>"


HeadArg = Union[Term, Aggregate]


@dataclass(frozen=True, slots=True)
class Literal:
    """A (possibly negated, possibly located) predicate occurrence.

    ``location`` is the index into ``args`` of the location-specifier
    attribute, or ``None`` for location-agnostic predicates (e.g. in
    centralized programs or in the component-translation intermediate form).
    """

    predicate: str
    args: tuple[Term, ...]
    location: Optional[int] = None
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if self.location is not None and not (0 <= self.location < len(self.args)):
            raise NDlogError(
                f"location index {self.location} out of range for "
                f"{self.predicate}/{len(self.args)}"
            )

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def location_term(self) -> Optional[Term]:
        if self.location is None:
            return None
        return self.args[self.location]

    def variables(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for a in self.args:
            out |= a.free_vars()
        return out

    def __str__(self) -> str:
        rendered = []
        for i, a in enumerate(self.args):
            prefix = "@" if i == self.location else ""
            rendered.append(prefix + render_term(a))
        body = f"{self.predicate}({','.join(rendered)})"
        return f"!{body}" if self.negated else body


@dataclass(frozen=True, slots=True)
class HeadLiteral:
    """A rule head: like a literal but allowing aggregate arguments."""

    predicate: str
    args: tuple[HeadArg, ...]
    location: Optional[int] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def aggregates(self) -> list[tuple[int, Aggregate]]:
        return [(i, a) for i, a in enumerate(self.args) if isinstance(a, Aggregate)]

    @property
    def has_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def group_by_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.args) if not isinstance(a, Aggregate)]

    def plain_args(self) -> tuple[Term, ...]:
        """Arguments with aggregates replaced by their underlying variable."""

        return tuple(a.variable if isinstance(a, Aggregate) else a for a in self.args)

    def as_literal(self) -> Literal:
        return Literal(self.predicate, self.plain_args(), self.location, span=self.span)

    def variables(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for a in self.plain_args():
            out |= a.free_vars()
        return out

    def __str__(self) -> str:
        rendered = []
        for i, a in enumerate(self.args):
            prefix = "@" if i == self.location else ""
            part = str(a) if isinstance(a, Aggregate) else render_term(a)
            rendered.append(prefix + part)
        return f"{self.predicate}({','.join(rendered)})"


@dataclass(frozen=True, slots=True)
class Assignment:
    """A body assignment ``Var = expression``."""

    variable: Var
    expression: Term
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def variables(self) -> frozenset[Var]:
        return frozenset((self.variable,)) | self.expression.free_vars()

    def __str__(self) -> str:
        return f"{self.variable} = {render_term(self.expression)}"


@dataclass(frozen=True, slots=True)
class Condition:
    """A body comparison such as ``C1 < C2`` or ``f_inPath(P2,S) = false``."""

    op: str
    left: Term
    right: Term
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS and self.op not in ("==", "!="):
            raise NDlogError(f"unknown comparison operator {self.op!r}")
        normalized = {"==": "=", "!=": "/="}.get(self.op, self.op)
        object.__setattr__(self, "op", normalized)

    def variables(self) -> frozenset[Var]:
        return self.left.free_vars() | self.right.free_vars()

    def __str__(self) -> str:
        # the internal spelling of disequality is "/=", which the surface
        # grammar does not accept — render the parseable "!=" instead
        op = "!=" if self.op == "/=" else self.op
        return f"{render_term(self.left)} {op} {render_term(self.right)}"


BodyItem = Union[Literal, Assignment, Condition]


@dataclass(frozen=True, slots=True)
class Rule:
    """An NDlog rule ``name head :- body.``"""

    name: str
    head: HeadLiteral
    body: tuple[BodyItem, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    # -- accessors ---------------------------------------------------------
    @property
    def body_literals(self) -> list[Literal]:
        return [b for b in self.body if isinstance(b, Literal)]

    @property
    def positive_literals(self) -> list[Literal]:
        return [b for b in self.body_literals if not b.negated]

    @property
    def negative_literals(self) -> list[Literal]:
        return [b for b in self.body_literals if b.negated]

    @property
    def assignments(self) -> list[Assignment]:
        return [b for b in self.body if isinstance(b, Assignment)]

    @property
    def conditions(self) -> list[Condition]:
        return [b for b in self.body if isinstance(b, Condition)]

    def variables(self) -> frozenset[Var]:
        out = self.head.variables()
        for b in self.body:
            out |= b.variables()
        return out

    def body_predicates(self) -> list[str]:
        return [lit.predicate for lit in self.body_literals]

    # -- well-formedness -----------------------------------------------------
    def check_safety(self) -> None:
        """Range restriction: every head/condition/negated variable must be
        bound by a positive body literal or by an assignment."""

        bound: set[Var] = set()
        for lit in self.positive_literals:
            bound |= lit.variables()
        changed = True
        while changed:
            changed = False
            for assign in self.assignments:
                if assign.variable not in bound and assign.expression.free_vars() <= bound:
                    bound.add(assign.variable)
                    changed = True
        unbound_head = self.head.variables() - bound
        if unbound_head:
            names = ", ".join(sorted(v.name for v in unbound_head))
            raise NDlogError(
                f"rule {self.name}: unsafe head variables {{{names}}}"
                f"{_cite(self.head.span or self.span)}"
            )
        for lit in self.negative_literals:
            unbound = lit.variables() - bound
            if unbound:
                names = ", ".join(sorted(v.name for v in unbound))
                raise NDlogError(
                    f"rule {self.name}: unsafe variables {{{names}}} in negated "
                    f"literal {lit}{_cite(lit.span or self.span)}"
                )
        for cond in self.conditions:
            unbound = cond.variables() - bound
            if unbound:
                names = ", ".join(sorted(v.name for v in unbound))
                raise NDlogError(
                    f"rule {self.name}: unsafe variables {{{names}}} in condition "
                    f"{cond}{_cite(cond.span or self.span)}"
                )

    @property
    def is_local(self) -> bool:
        """True when all located body literals share the head's location term."""

        head_loc = self.head.as_literal().location_term
        if head_loc is None:
            return True
        for lit in self.body_literals:
            loc = lit.location_term
            if loc is not None and loc != head_loc:
                return False
        return True

    def __str__(self) -> str:
        body = ", ".join(str(b) for b in self.body)
        return f"{self.name} {self.head} :- {body}."


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground fact ``predicate(@loc, v1, ...)`` given with the program."""

    predicate: str
    values: tuple[object, ...]
    location: Optional[int] = 0
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    def __str__(self) -> str:
        rendered = []
        for i, v in enumerate(self.values):
            prefix = "@" if i == self.location else ""
            rendered.append(prefix + str(v))
        return f"{self.predicate}({','.join(rendered)})."


@dataclass
class MaterializeDecl:
    """A ``materialize(name, lifetime, size, keys(...))`` declaration.

    ``lifetime`` is in seconds, ``float('inf')`` for hard state; ``size`` is
    the maximum number of tuples (``float('inf')`` for unbounded); ``keys``
    are 1-based attribute positions forming the primary key.
    """

    predicate: str
    lifetime: float
    max_size: float
    keys: tuple[int, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def is_soft_state(self) -> bool:
        return self.lifetime != float("inf")


@dataclass
class Program:
    """A parsed NDlog program."""

    name: str
    rules: list[Rule] = field(default_factory=list)
    facts: list[Fact] = field(default_factory=list)
    materialized: dict[str, MaterializeDecl] = field(default_factory=dict)

    def add_rule(self, rule: Rule) -> None:
        rule.check_safety()
        self.rules.append(rule)

    def add_fact(self, fact: Fact) -> None:
        self.facts.append(fact)

    def add_materialize(self, decl: MaterializeDecl) -> None:
        self.materialized[decl.predicate] = decl

    # -- queries over the program ------------------------------------------
    def rules_for(self, predicate: str) -> list[Rule]:
        return [r for r in self.rules if r.head.predicate == predicate]

    def head_predicates(self) -> set[str]:
        return {r.head.predicate for r in self.rules}

    def body_predicates(self) -> set[str]:
        out: set[str] = set()
        for r in self.rules:
            out.update(r.body_predicates())
        return out

    def base_predicates(self) -> set[str]:
        """Predicates that are never derived (EDB relations such as ``link``)."""

        derived = self.head_predicates()
        out = {p for p in self.body_predicates() if p not in derived}
        out.update(f.predicate for f in self.facts if f.predicate not in derived)
        return out

    def derived_predicates(self) -> set[str]:
        return self.head_predicates()

    def predicates(self) -> set[str]:
        return self.base_predicates() | self.derived_predicates()

    def check_base_fact(
        self, predicate: str, node: object = None, nodes: Optional[Container] = None
    ) -> None:
        """Refuse a fact a run of this program may not be handed: one of a
        predicate some rule derives (a row the program never derives is
        not its state), or, given the ``nodes`` of a network, one located
        at ``node`` outside them."""

        for rule in self.rules:
            if rule.head.predicate == predicate:
                raise NDlogError(
                    f"fact of {predicate!r} refused: rule {rule.name} derives it, and "
                    "facts go to base predicates only (derive it from one instead)"
                )
        if nodes is not None and node not in nodes:
            raise NDlogError(
                f"fact of {predicate!r} refused: it is located at node {node!r}, "
                "which the topology lacks"
            )

    def predicate_arities(self) -> dict[str, int]:
        arities: dict[str, int] = {}
        for r in self.rules:
            arities.setdefault(r.head.predicate, r.head.arity)
            for lit in r.body_literals:
                arities.setdefault(lit.predicate, lit.arity)
        for f in self.facts:
            arities.setdefault(f.predicate, len(f.values))
        return arities

    def lifetime_of(self, predicate: str) -> float:
        decl = self.materialized.get(predicate)
        return decl.lifetime if decl else float("inf")

    def check(self) -> None:
        """Program-level sanity checks: safety and consistent arities."""

        arities: dict[str, int] = {}

        def note(pred: str, arity: int, where: str, span: Optional[Span] = None) -> None:
            if pred in arities and arities[pred] != arity:
                raise NDlogError(
                    f"predicate {pred!r} used with arity {arity} in {where} "
                    f"but {arities[pred]} elsewhere{_cite(span)}"
                )
            arities.setdefault(pred, arity)

        for r in self.rules:
            r.check_safety()
            note(r.head.predicate, r.head.arity, f"rule {r.name} head", r.head.span)
            for lit in r.body_literals:
                note(lit.predicate, lit.arity, f"rule {r.name} body", lit.span)
        for f in self.facts:
            note(f.predicate, len(f.values), "fact", f.span)

    def __str__(self) -> str:
        lines = [f"/* program {self.name} */"]
        for decl in self.materialized.values():
            keys = ",".join(str(k) for k in decl.keys)
            lifetime = "infinity" if decl.lifetime == float("inf") else decl.lifetime
            size = "infinity" if decl.max_size == float("inf") else decl.max_size
            lines.append(
                f"materialize({decl.predicate}, {lifetime}, {size}, keys({keys}))."
            )
        lines.extend(str(r) for r in self.rules)
        lines.extend(str(f) for f in self.facts)
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)
