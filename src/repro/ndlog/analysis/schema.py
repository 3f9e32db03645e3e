"""Schema and type-inference pass (codes NDL101–NDL104).

Arity consistency (NDL101) is :meth:`repro.ndlog.ast.Program.arity_findings`,
whose first finding :meth:`~repro.ndlog.ast.Program.check` refuses;
``materialize`` declarations are checked against each predicate's first-seen
arity (``keys`` positions are 1-based) and against the set of predicates
the program actually mentions.

Type inference is a union-find over *slots* — ``(predicate, position)``
pairs — seeded by fact constants, builtin-function signatures, arithmetic,
and assignment/comparison equalities.  A slot forced to two different
concrete types yields NDL104.  The type lattice is deliberately tiny
(``number``, ``string``, ``boolean``, ``path``): it matches the value kinds
:mod:`repro.ndlog.functions` evaluates over.
"""

from __future__ import annotations

from typing import Optional, Union

from ...terms import Const, Func, Term, Var
from ..ast import Program, Span
from .diagnostics import Diagnostic

#: Builtin functions with a known result type.
_FUNCTION_RESULTS = {
    "f_init": "path",
    "f_concatPath": "path",
    "f_appendPath": "path",
    "f_removeFirst": "path",
    "f_removeLast": "path",
    "f_reverse": "path",
    "f_inPath": "boolean",
    "f_member": "boolean",
    "f_empty": "path",
    "f_size": "number",
    "+": "number",
    "-": "number",
    "*": "number",
    "/": "number",
}

#: Builtin functions whose *first* argument must be a path.
_PATH_FIRST_ARG = frozenset(
    {
        "f_concatPath",
        "f_appendPath",
        "f_removeFirst",
        "f_removeLast",
        "f_reverse",
        "f_inPath",
        "f_member",
        "f_size",
        "f_first",
        "f_last",
    }
)

_ARITH = frozenset({"+", "-", "*", "/"})

#: A union-find key: a predicate slot or a rule-scoped variable.
_Key = Union[tuple[str, int], tuple[str, str, str]]


class _Unifier:
    """Union-find over slots/variables carrying at most one concrete type."""

    def __init__(self) -> None:
        self.parent: dict[_Key, _Key] = {}
        self.types: dict[_Key, tuple[str, Optional[Span]]] = {}
        self.conflicts: list[tuple[_Key, str, str, Optional[Span]]] = []

    def find(self, key: _Key) -> _Key:
        root = key
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(key, key) != key:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a: _Key, b: _Key, span: Optional[Span] = None) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self.parent[ra] = rb
        ta, tb = self.types.pop(ra, None), self.types.get(rb)
        if ta is not None:
            if tb is None:
                self.types[rb] = ta
            elif ta[0] != tb[0]:
                self.conflicts.append((rb, tb[0], ta[0], span or ta[1]))

    def assign(self, key: _Key, typ: str, span: Optional[Span] = None) -> None:
        root = self.find(key)
        current = self.types.get(root)
        if current is None:
            self.types[root] = (typ, span)
        elif current[0] != typ:
            self.conflicts.append((root, current[0], typ, span or current[1]))


def _const_type(value: object) -> Optional[str]:
    # bool before int: isinstance(True, int) holds in Python
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (tuple, list)):
        return "path"
    return None


def _check_materialize(program: Program, arities: dict[str, int]) -> list[Diagnostic]:
    """NDL102 (keys out of range) and NDL103 (declaration never used)."""

    out: list[Diagnostic] = []
    mentioned = program.predicates()
    for decl in program.materialized.values():
        arity = arities.get(decl.predicate)
        for key in decl.keys:
            if key < 1 or (arity is not None and key > arity):
                limit = f"1..{arity}" if arity is not None else ">= 1"
                out.append(
                    Diagnostic(
                        "NDL102",
                        f"materialize({decl.predicate}, ...) key position {key} "
                        f"outside the valid range {limit}",
                        predicate=decl.predicate,
                        span=decl.span,
                    )
                )
        if decl.predicate not in mentioned:
            out.append(
                Diagnostic(
                    "NDL103",
                    f"materialize declaration for {decl.predicate!r} but no rule "
                    "or fact mentions that predicate",
                    predicate=decl.predicate,
                    span=decl.span,
                )
            )
    return out


def _walk_expression(
    uf: _Unifier, scope: str, rule: str, expr: Term, span: Optional[Span]
) -> Optional[_Key]:
    """Record constraints from one expression; return its union-find key (for
    a variable) or ``None`` plus an :meth:`assign` when the type is fixed."""

    if isinstance(expr, Var):
        return ("var", scope, expr.name)
    if isinstance(expr, Const):
        return None
    if isinstance(expr, Func):
        for i, arg in enumerate(expr.args):
            key = _walk_expression(uf, scope, rule, arg, span)
            if key is None:
                continue
            if expr.name in _ARITH:
                uf.assign(key, "number", span)
            elif expr.name in _PATH_FIRST_ARG and i == 0:
                uf.assign(key, "path", span)
        return None
    return None


def _expression_type(expr: Term) -> Optional[str]:
    if isinstance(expr, Const):
        return _const_type(expr.value)
    if isinstance(expr, Func):
        return _FUNCTION_RESULTS.get(expr.name)
    return None


def _infer_types(program: Program) -> list[Diagnostic]:
    """NDL104: one predicate position forced to two concrete types."""

    uf = _Unifier()
    slot_spans: dict[tuple[str, int], Optional[Span]] = {}

    def bind_literal(scope: str, rule: str, predicate: str, args, span) -> None:
        for i, arg in enumerate(args):
            slot = (predicate, i)
            slot_spans.setdefault(slot, span)
            if isinstance(arg, Var):
                uf.union(slot, ("var", scope, arg.name), span)
            elif isinstance(arg, Const):
                typ = _const_type(arg.value)
                if typ is not None:
                    uf.assign(slot, typ, span)
            elif isinstance(arg, Func):
                typ = _FUNCTION_RESULTS.get(arg.name)
                if typ is not None:
                    uf.assign(slot, typ, span)
                _walk_expression(uf, scope, rule, arg, span)

    for r in program.rules:
        scope = r.name
        bind_literal(scope, r.name, r.head.predicate, r.head.plain_args(), r.head.span)
        for lit in r.body_literals:
            bind_literal(scope, r.name, lit.predicate, lit.args, lit.span)
        for assign in r.assignments:
            var_key = ("var", scope, assign.variable.name)
            expr_type = _expression_type(assign.expression)
            if expr_type is not None:
                uf.assign(var_key, expr_type, assign.span)
            expr_key = _walk_expression(uf, scope, r.name, assign.expression, assign.span)
            if expr_key is not None:
                uf.union(var_key, expr_key, assign.span)
        for cond in r.conditions:
            left = _walk_expression(uf, scope, r.name, cond.left, cond.span)
            right = _walk_expression(uf, scope, r.name, cond.right, cond.span)
            for key, other in ((left, cond.right), (right, cond.left)):
                if key is None:
                    continue
                typ = _expression_type(other)
                if typ is not None:
                    uf.assign(key, typ, cond.span)
            if cond.op == "=" and left is not None and right is not None:
                uf.union(left, right, cond.span)
    for f in program.facts:
        for i, value in enumerate(f.values):
            slot = (f.predicate, i)
            slot_spans.setdefault(slot, f.span)
            typ = _const_type(value)
            if typ is not None:
                uf.assign(slot, typ, f.span)

    out: list[Diagnostic] = []
    seen: set[tuple[str, int]] = set()
    # map conflicts back to a predicate slot in the offending class
    members: dict[_Key, list[tuple[str, int]]] = {}
    for key in list(uf.parent) + list(uf.types):
        if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], int):
            members.setdefault(uf.find(key), []).append(key)
    for root, old, new, span in uf.conflicts:
        slots = sorted(members.get(uf.find(root), []))
        slot = slots[0] if slots else None
        if slot in seen:
            continue
        if slot is not None:
            seen.add(slot)
        where = (
            f"{slot[0]!r} position {slot[1] + 1}" if slot else "an expression context"
        )
        out.append(
            Diagnostic(
                "NDL104",
                f"conflicting field types for {where}: inferred both "
                f"{old} and {new}",
                predicate=slot[0] if slot else None,
                span=span or (slot_spans.get(slot) if slot else None),
            )
        )
    return out


def check_schema(program: Program) -> list[Diagnostic]:
    """Run the schema pass: arities, materialize declarations, field types."""

    arity = [Diagnostic(*f) for f in program.arity_findings()]
    diags = arity + _check_materialize(program, program.predicate_arities())
    if not arity:
        # type inference over inconsistent arities would double-report
        diags.extend(_infer_types(program))
    return diags
