"""Per-rule Python source generation: the rule evaluator the engines run.

For each rule this module **emits specialized Python source** (nested probe
loops with inlined index lookups, constant checks, comparisons, arithmetic,
and head construction), ``compile()``\\ s it once at program load, and wraps
the resulting functions in a :class:`CodegenRule` (``fire`` / ``derive``,
both returning bare head rows).  CPython then executes straight-line loops
over locals with no per-literal dispatch at all.

The source is lowered from :func:`~repro.ndlog.plan.rule_layout`, so body
order, slot assignment, probe positions, and check placement are decided
once, in :mod:`repro.ndlog.plan`.  Every rule lowers: a **dead plan** (a
body literal argument unevaluable at match time) becomes body functions
that emit nothing, and a rule with **unsafe head variables** raises the
canonical :class:`~repro.ndlog.ast.NDlogError` at compile time.  The
differential conformance suite (``tests/ndlog/test_codegen_conformance.py``)
checks fixpoint and trace-fingerprint equality against the reference
interpreter (:mod:`repro.ndlog.reference`).

Public entry points: :func:`codegen_rule` (one rule → :class:`CodegenRule`),
:func:`generate_rule_source` (the emitted source and its namespace, for
debugging and golden-pinning), and :func:`emit_program_source`
(whole-program dump backing ``fvn-lint --emit-codegen``).
"""

from __future__ import annotations

import math
import re
from typing import Optional

from ..terms import Const, DEFAULT_ARITHMETIC, EvaluationError, Func, FunctionRegistry, Term, Var
from .aggregates import aggregate_rows
from .ast import NDlogError, Program, Rule
from .plan import (
    _OP_CONST,
    _OP_SLOT,
    _OP_STORE,
    RuleLayout,
    rule_layout,
)

__all__ = [
    "CodegenRule",
    "codegen_rule",
    "generate_rule_source",
    "emit_program_source",
]


#: Binary arithmetic inlined as Python operators when the registry still
#: maps the name to the default interpretation (``operator.add`` *is* ``+``).
_INLINE_BINOPS = {"+": "+", "-": "-", "*": "*", "/": "/"}

#: Memoization sentinels for the hoisted probe indexes: ``_EMPTY`` pins "no
#: table exists for this predicate" (every probe yields nothing), ``_SCAN``
#: pins "the delta view's grouped index is unbuildable" (every probe falls
#: back to the filtered scan, as per-probe retries would).
_EMPTY = object()
_SCAN = object()


def _is_inline_const(value: object) -> bool:
    """Whether ``repr(value)`` round-trips exactly in generated source."""

    if value is None or isinstance(value, bool):
        return True
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, str)


class _Writer:
    """Indentation-tracking line buffer for the emitted source."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.depth + line) if line else "")

    def indent(self) -> None:
        self.depth += 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _RuleEmitter:
    """Generates the source for one rule from its :class:`RuleLayout`."""

    def __init__(
        self,
        rule: Rule,
        layout: RuleLayout,
        registry: FunctionRegistry,
    ) -> None:
        self.rule = rule
        self.layout = layout
        self.registry = registry
        self.namespace: dict[str, object] = {
            "EvaluationError": EvaluationError,
            "NDlogError": NDlogError,
            "_registry": registry,
            "_EMPTY": _EMPTY,
            "_SCAN": _SCAN,
        }
        if not layout.dead:
            unsafe = layout.unsafe_head_variables()
            if unsafe:
                raise NDlogError(
                    f"rule {rule.name}: unsafe head variables {{{', '.join(unsafe)}}}"
                )
        self.slot_names = self._allocate_slot_names(layout.slots)
        self._counters: dict[str, int] = {}
        self.source = self._generate()

    # ------------------------------------------------------------------
    # Naming and namespace management
    # ------------------------------------------------------------------
    @staticmethod
    def _allocate_slot_names(slots: dict[Var, int]) -> dict[int, str]:
        names: dict[int, str] = {}
        used: set[str] = set()
        for var, slot in slots.items():
            base = "v_" + re.sub(r"\W", "_", var.name)
            name = base if base not in used else f"{base}_{slot}"
            used.add(name)
            names[slot] = name
        return names

    def _fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        self._counters[prefix] = n + 1
        return f"_{prefix}{n}"

    def _bind(self, prefix: str, value: object) -> str:
        name = self._fresh(prefix)
        self.namespace[name] = value
        return name

    def _const_expr(self, value: object) -> str:
        if _is_inline_const(value):
            return repr(value)
        return self._bind("c", value)

    # ------------------------------------------------------------------
    # Terms → (expression source, may raise EvaluationError)
    # ------------------------------------------------------------------
    def _term_expr(self, term: Term) -> tuple[str, bool]:
        if isinstance(term, Const):
            return self._const_expr(term.value), False
        if isinstance(term, Var):
            return self.slot_names[self.layout.slots[term]], False
        if isinstance(term, Func):
            name = term.name
            parts = [self._term_expr(a) for a in term.args]
            exprs = [e for e, _ in parts]
            may_raise = any(m for _, m in parts)
            fn = self.registry.resolve(name)
            if fn is None:
                # unknown at compile time: late registry dispatch (raises
                # EvaluationError for names still unregistered at call time,
                # exactly like the reference interpreter's ground_eval)
                call = f"_registry.call({name!r}, [{', '.join(exprs)}])"
                return call, True
            if fn is DEFAULT_ARITHMETIC.get(name):
                op = _INLINE_BINOPS.get(name)
                if op is not None and len(exprs) == 2:
                    return f"({exprs[0]} {op} {exprs[1]})", may_raise
                if name in ("min", "max"):
                    return f"{name}({', '.join(exprs)})", may_raise
                # default arithmetic at an unexpected arity: snapshot the
                # callable; the wrong-arity TypeError propagates
                return f"{self._bind('f', fn)}({', '.join(exprs)})", may_raise
            # custom function: snapshot the resolved callable (registering a
            # new interpretation later does not update existing plans)
            return f"{self._bind('f', fn)}({', '.join(exprs)})", True
        raise NDlogError(f"cannot generate code for term {term!r}")

    # ------------------------------------------------------------------
    # Body emission
    # ------------------------------------------------------------------
    def _emit_check(self, w: _Writer, val: str, op: tuple) -> None:
        kind, _pos, payload = op
        if kind == _OP_CONST:
            w.emit(f"if {val} != {self._const_expr(payload)}:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        elif kind == _OP_SLOT:
            w.emit(f"if {val} != {self.slot_names[payload]}:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        else:  # _OP_EVAL
            expr, may_raise = self._term_expr(payload)
            if may_raise:
                w.emit("try:")
                w.indent()
                w.emit(f"if {expr} != {val}:")
                w.indent()
                w.emit("continue")
                w.depth -= 2
                w.emit("except EvaluationError:")
                w.indent()
                w.emit("continue")
                w.depth -= 1
            else:
                w.emit(f"if {expr} != {val}:")
                w.indent()
                w.emit("continue")
                w.depth -= 1

    def _pre_check_conds(self, probe: str, pre_checks: tuple) -> list[str]:
        conds = []
        for kind, pos, payload in pre_checks:
            if kind == _OP_CONST:
                conds.append(f"{probe}[{pos}] == {self._const_expr(payload)}")
            else:  # _OP_SLOT
                conds.append(f"{probe}[{pos}] == {self.slot_names[payload]}")
        return conds

    def _probe_values_expr(self, getters: tuple) -> str:
        parts = [
            self.slot_names[slot] if slot is not None else self._const_expr(const)
            for slot, const in getters
        ]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return f"({', '.join(parts)})"

    def _emit_literal(self, w: _Writer, spec: tuple, delta_sid: int) -> None:
        _, pred, arity, sid, positions, getters, pre, stores, post = spec
        is_delta = sid == delta_sid
        rows = f"_rows{sid}"
        row = f"_r{sid}"
        scan_src = f"view.rows({pred!r})" if is_delta else f"_db_rows({pred!r})"
        if not positions:
            # scan-primary literal: the row list was hoisted to the function
            # top (it is binding-independent and the db is stable during a
            # fire), so the loop header reads it directly
            probing = False
        else:
            values = self._fresh("v")
            w.emit(f"{values} = {self._probe_values_expr(getters)}")
            # unhashable probe value — fall back to scanning with the
            # pre-checks applied inline
            conds = [f"len(_x) == {arity}"] + self._pre_check_conds("_x", pre)
            fallback = f"[_x for _x in {scan_src} if {' and '.join(conds)}]"
            if is_delta:
                # the delta view's grouped index, memoized at the literal's
                # first probe of this pass (a build TypeError — unhashable
                # grouped row values — pins the scan fallback, which is what
                # retrying the build per probe would produce anyway)
                grp = f"_grp{sid}"
                w.emit(f"if {grp} is None:")
                w.indent()
                w.emit("try:")
                w.indent()
                w.emit(f"{grp} = view.groups({pred!r}, {positions!r})")
                w.depth -= 1
                w.emit("except TypeError:")
                w.indent()
                w.emit(f"{grp} = _SCAN")
                w.depth -= 2
                w.emit(f"if {grp} is _SCAN:")
                w.indent()
                w.emit(f"{rows} = {fallback}")
                w.depth -= 1
                w.emit("else:")
                w.indent()
                w.emit("try:")
                w.indent()
                w.emit(f"{rows} = {grp}.get({values}, ())")
                w.depth -= 1
                w.emit("except TypeError:")
                w.indent()
                w.emit(f"{rows} = {fallback}")
                w.depth -= 2
            else:
                # the stored table's hash index, memoized at the literal's
                # first probe (index builds never raise: rows with
                # unhashable indexed values stay out and matching probes
                # raise TypeError themselves, taking the scan fallback)
                idx = f"_idx{sid}"
                w.emit(f"if {idx} is None:")
                w.indent()
                w.emit(f"_tbl{sid} = _db_get({pred!r})")
                w.emit(
                    f"{idx} = _EMPTY if _tbl{sid} is None "
                    f"else _tbl{sid}.index_on({positions!r})"
                )
                w.depth -= 1
                w.emit(f"if {idx} is _EMPTY:")
                w.indent()
                w.emit(f"{rows} = ()")
                w.depth -= 1
                w.emit("else:")
                w.indent()
                w.emit("try:")
                w.indent()
                w.emit(f"_b{sid} = {idx}.get({values})")
                w.depth -= 1
                w.emit("except TypeError:")
                w.indent()
                w.emit(f"{rows} = {fallback}")
                w.depth -= 1
                w.emit("else:")
                w.indent()
                w.emit(f"{rows} = _b{sid}.values() if _b{sid} else ()")
                w.depth -= 2
            probing = True
        w.emit(f"for {row} in {rows}:")
        w.indent()
        ops = (stores + post) if probing else (pre + stores + post)
        if arity == 0:
            w.emit(f"if len({row}) != 0:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        else:
            # tuple unpacking binds every needed position in one opcode and
            # doubles as the arity check (wrong-length rows raise ValueError
            # — exactly the rows a literal of this arity cannot match).
            # Moving the stores ahead of the checks is unobservable: checks
            # are pure and only ever read slots bound before this point
            names = ["_"] * arity
            for kind, pos, payload in ops:
                if kind == _OP_STORE:
                    names[pos] = self.slot_names[payload]
                elif names[pos] == "_":
                    names[pos] = f"_p{sid}_{pos}"
            lhs = f"{names[0]}," if arity == 1 else ", ".join(names)
            w.emit("try:")
            w.indent()
            w.emit(f"{lhs} = {row}")
            w.depth -= 1
            w.emit("except ValueError:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
            for op in ops:
                if op[0] != _OP_STORE:
                    self._emit_check(w, names[op[1]], op)

    def _emit_negation(self, w: _Writer, spec: tuple) -> None:
        _, pred, arg_terms = spec
        parts = [self._term_expr(a) for a in arg_terms]
        exprs = [e for e, _ in parts]
        may_raise = any(m for _, m in parts)
        values = self._fresh("n")
        tuple_src = f"({exprs[0]},)" if len(exprs) == 1 else f"({', '.join(exprs)})"
        if may_raise:
            w.emit("try:")
            w.indent()
            w.emit(f"{values} = {tuple_src}")
            w.depth -= 1
            w.emit("except EvaluationError:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        else:
            w.emit(f"{values} = {tuple_src}")
        w.emit(f"if {values} in _db_table({pred!r}):")
        w.indent()
        w.emit("continue")
        w.depth -= 1

    def _emit_assignment(self, w: _Writer, spec: tuple) -> None:
        _, slot, expression, fresh = spec
        expr, may_raise = self._term_expr(expression)
        target = self.slot_names[slot] if fresh else self._fresh("a")
        if may_raise:
            w.emit("try:")
            w.indent()
            w.emit(f"{target} = {expr}")
            w.depth -= 1
            w.emit("except EvaluationError:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        else:
            w.emit(f"{target} = {expr}")
        if not fresh:
            w.emit(f"if not ({self.slot_names[slot]} == {target}):")
            w.indent()
            w.emit("continue")
            w.depth -= 1

    def _emit_condition(self, w: _Writer, spec: tuple) -> None:
        _, op, left, right = spec
        left_expr, left_may = self._term_expr(left)
        right_expr, right_may = self._term_expr(right)
        lname = self._fresh("l")
        rname = self._fresh("g")
        if left_may or right_may:
            w.emit("try:")
            w.indent()
            w.emit(f"{lname} = {left_expr}")
            w.emit(f"{rname} = {right_expr}")
            w.depth -= 1
            w.emit("except EvaluationError:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        else:
            w.emit(f"{lname} = {left_expr}")
            w.emit(f"{rname} = {right_expr}")
        if op == "=":
            w.emit(f"if not ({lname} == {rname}):")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        elif op == "/=":
            w.emit(f"if not ({lname} != {rname}):")
            w.indent()
            w.emit("continue")
            w.depth -= 1
        else:
            # ordering comparisons inline as Python operators; an unordered
            # operand pair raises the canonical EvaluationError with the
            # same message as plan.comparison_fn, and — emitted outside any
            # term-eval try — it propagates to the caller
            w.emit("try:")
            w.indent()
            w.emit(f"if not ({lname} {op} {rname}):")
            w.indent()
            w.emit("continue")
            w.depth -= 2
            w.emit("except TypeError as _exc:")
            w.indent()
            w.emit(
                "raise EvaluationError("
                f"f\"cannot compare {{{lname}!r}} {op} {{{rname}!r}}: "
                f"operands of types {{type({lname}).__name__}} and "
                f"{{type({rname}).__name__}} are not ordered\""
                ") from _exc"
            )
            w.depth -= 1

    def _emit_dedup(self, w: _Writer) -> None:
        # binding-level dedup across delta passes; only a multi-pass derive
        # passes a set (derivation multiplicity must not double-count a
        # binding matched by two delta literals) — the plain firing path
        # passes None because duplicate bindings yield duplicate head rows
        # that aggregate_rows' dict.fromkeys collapses anyway
        ordered = [self.slot_names[s] for s in sorted(self.slot_names)]
        if len(ordered) == 1:
            key_src = f"({ordered[0]},)"
        else:
            key_src = f"({', '.join(ordered)})"
        w.emit("if _seen is not None:")
        w.indent()
        w.emit(f"_k = {key_src}")
        w.emit("try:")
        w.indent()
        w.emit("if _k in _seen:")
        w.indent()
        w.emit("continue")
        w.depth -= 2
        w.emit("except TypeError:")
        w.indent()
        w.emit(
            "_k = tuple(tuple(_x) if isinstance(_x, list) else _x for _x in _k)"
        )
        w.emit("if _k in _seen:")
        w.indent()
        w.emit("continue")
        w.depth -= 2
        w.emit("_seen.add(_k)")
        w.depth -= 1

    def _emit_head(self, w: _Writer) -> None:
        parts: list[str] = []
        for term in self.rule.head.plain_args():
            if isinstance(term, Var):
                parts.append(self.slot_names[self.layout.slots[term]])
            elif isinstance(term, Const):
                parts.append(self._const_expr(term.value))
            else:
                # evaluated head arguments run as statements in argument
                # order, so the first failing argument (left to right) is
                # the one the error names
                expr, may_raise = self._term_expr(term)
                hname = self._fresh("h")
                if may_raise:
                    prefix = self._bind(
                        "hm",
                        f"rule {self.rule.name}: cannot evaluate head "
                        f"argument {term}: ",
                    )
                    w.emit("try:")
                    w.indent()
                    w.emit(f"{hname} = {expr}")
                    w.depth -= 1
                    w.emit("except EvaluationError as _exc:")
                    w.indent()
                    w.emit(
                        f"raise NDlogError({prefix} + str(_exc)) from _exc"
                    )
                    w.depth -= 1
                else:
                    w.emit(f"{hname} = {expr}")
                parts.append(hname)
        if not parts:
            w.emit("_append(())")
        elif len(parts) == 1:
            w.emit(f"_append(({parts[0]},))")
        else:
            w.emit(f"_append(({', '.join(parts)}))")

    def _emit_body_fn(self, w: _Writer, name: str, delta_sid: int) -> None:
        params = "db, _append" if delta_sid < 0 else "db, view, _seen, _append"
        w.emit(f"def {name}({params}):")
        w.indent()
        if self.layout.dead:
            # the reference interpreter rejects every row at the unevaluable
            # literal argument, so the rule derives nothing (its head may
            # name variables that only that argument mentions)
            w.emit("return")
            w.depth = 0
            w.emit()
            return
        # hoist everything binding-independent to the function top: the db
        # and the delta view are stable for the duration of a fire, so scan
        # row lists are snapshotted once (db.rows builds a fresh list per
        # call) and probe indexes are memoized per literal instead of being
        # re-resolved on every outer binding
        need_db_rows = False
        need_db_get = False
        need_db_table = False
        scans: list[str] = []
        inits: list[str] = []
        for spec in self.layout.specs:
            kind = spec[0]
            if kind == "literal":
                _, pred, _arity, sid, positions = spec[:5]
                is_delta = sid == delta_sid
                if not positions:
                    src = (
                        f"view.rows({pred!r})"
                        if is_delta
                        else f"_db_rows({pred!r})"
                    )
                    scans.append(f"_rows{sid} = {src}")
                    need_db_rows = need_db_rows or not is_delta
                elif is_delta:
                    inits.append(f"_grp{sid} = None")
                else:
                    inits.append(f"_idx{sid} = None")
                    need_db_get = True
                    need_db_rows = True  # the unhashable-probe scan fallback
            elif kind == "negation":
                need_db_table = True
        if need_db_rows:
            w.emit("_db_rows = db.rows")
        if need_db_get:
            w.emit("_db_get = db.get_table")
        if need_db_table:
            w.emit("_db_table = db.table")
        for line in scans:
            w.emit(line)
        for line in inits:
            w.emit(line)
        # a dummy single-iteration loop makes `continue` (= reject binding)
        # well-defined even before the first positive literal's loop opens
        w.emit("for _once in (None,):")
        w.indent()
        for spec in self.layout.specs:
            kind = spec[0]
            if kind == "literal":
                self._emit_literal(w, spec, delta_sid)
            elif kind == "negation":
                self._emit_negation(w, spec)
            elif kind == "assignment":
                self._emit_assignment(w, spec)
            else:
                self._emit_condition(w, spec)
        if delta_sid >= 0:
            self._emit_dedup(w)
        self._emit_head(w)
        w.depth = 0
        w.emit()

    def _generate(self) -> str:
        w = _Writer()
        w.emit(f"# codegen for rule {self.rule.name}: "
               f"{self.rule.head.predicate}/{len(self.rule.head.args)}")
        if self.layout.dead:
            w.emit("# dead plan: a body literal argument is unevaluable at "
                   "match time")
        self._emit_body_fn(w, "_full", -1)
        for sid, _pred in self.layout.delta_candidates:
            self._emit_body_fn(w, f"_delta_{sid}", sid)
        return w.source()


class CodegenRule:
    """One rule compiled to generated Python source.

    ``fire`` and ``derive`` take ``(db, view=None)``: ``view`` is a
    semi-naive delta view (``DeltaIndex``-shaped: ``in`` / ``rows`` /
    ``groups`` / ``distinct``) restricting the join to one pass per delta-matched positive
    literal, or ``None`` for a full evaluation.  The emitted source is kept
    on :attr:`source` for debugging and golden tests.
    """

    __slots__ = (
        "rule",
        "name",
        "head",
        "has_aggregate",
        "n_slots",
        "source",
        "_full",
        "_delta_fns",
        "_delta_candidates",
    )

    def __init__(
        self,
        rule: Rule,
        n_slots: int,
        source: str,
        full_fn,
        delta_fns: dict[int, object],
        delta_candidates: tuple[tuple[int, str], ...],
    ) -> None:
        self.rule = rule
        self.name = rule.name
        self.head = rule.head
        self.has_aggregate = rule.head.has_aggregate
        self.n_slots = n_slots
        self.source = source
        self._full = full_fn
        self._delta_fns = delta_fns
        self._delta_candidates = delta_candidates

    def fire(self, db, view=None) -> list[tuple]:
        """The derived head rows, deduplicated (aggregate heads are
        recomputed over the full body and ignore ``view``).

        Rows are bare tuples: the head predicate and location are the
        rule's (:attr:`head`), so callers route whole row lists.
        """

        raw: list[tuple] = []
        append = raw.append
        if view is None or self.has_aggregate:
            self._full(db, append)
        else:
            # no binding-level dedup: duplicate head rows across delta
            # passes are collapsed by aggregate_rows (dict.fromkeys), the
            # same way duplicates within a full pass always have been
            delta_fns = self._delta_fns
            for sid, pred in self._delta_candidates:
                if pred in view:
                    delta_fns[sid](db, view, None, append)
        return aggregate_rows(self.head, raw)

    def derive(self, db, view=None) -> list[tuple]:
        """The retraction/counting variant of :meth:`fire`.

        Enumerates head rows at **body-binding multiplicity**: one row per
        distinct body binding, with no same-row deduplication, which is
        what derivation-count maintenance needs (two bindings deriving the
        same head row are two supports, and losing one of them must
        decrement — not delete — the row).  With a ``view`` holding
        retracted tuples still present in ``db`` this is the deletion-delta
        join against the old database.  Aggregate heads are recomputed and
        diffed instead, and rejected here.

        A binding fixes the row every body literal matched (each argument
        is a variable, a constant or a term over variables), so a single
        delta pass over a ``distinct`` view meets each binding once and
        runs without the binding-dedup set; several passes (a binding seen
        by two delta literals) or a view with repeated rows keep it.
        """

        if self.has_aggregate:
            raise NDlogError(
                f"rule {self.name}: aggregate heads are recomputed, not "
                "incrementally retracted"
            )
        raw: list[tuple] = []
        append = raw.append
        if view is None:
            self._full(db, append)
        else:
            delta_fns = self._delta_fns
            passes = [delta_fns[sid] for sid, pred in self._delta_candidates if pred in view]
            seen = None if len(passes) == 1 and view.distinct else set()
            for delta_fn in passes:
                delta_fn(db, view, seen, append)
        return raw


def generate_rule_source(
    rule: Rule, registry: Optional[FunctionRegistry] = None
) -> tuple[str, dict]:
    """The generated source and exec namespace for one rule.

    Raises :class:`~repro.ndlog.ast.NDlogError` for a rule with unsafe
    head variables or a body that cannot be ordered.
    """

    if registry is None:
        registry = FunctionRegistry()
    emitter = _RuleEmitter(rule, rule_layout(rule), registry)
    return emitter.source, emitter.namespace


# Compiled-rule cache: rules are frozen (hashable by structure), so equal
# rules compile to interchangeable CodegenRule objects, which are themselves
# immutable after construction and safe to share between engines.  The
# registry participates by content signature — engines that build a fresh
# ``builtin_registry()`` each (the default) still share one compilation.
# This is exactly the documented "compilation snapshots the function
# registry" contract; the cache value pins the snapshot registry so the
# callable ids in the signature cannot be recycled while an entry is live.
# Caching makes "compile once at load" hold even for callers that rebuild
# an engine per evaluation (the bytecode compile of the generated source is
# the single most expensive step of engine construction).
_CODEGEN_CACHE: dict[tuple, tuple[FunctionRegistry, "CodegenRule"]] = {}
_CODEGEN_CACHE_MAX = 512


def codegen_rule(rule: Rule, registry: FunctionRegistry) -> CodegenRule:
    """Compile one rule to a :class:`CodegenRule` via generated source."""

    key = (rule, registry.signature())
    cached = _CODEGEN_CACHE.get(key)
    if cached is not None:
        return cached[1]
    layout = rule_layout(rule)
    emitter = _RuleEmitter(rule, layout, registry)
    source = emitter.source
    namespace = emitter.namespace
    code = compile(source, f"<codegen:{rule.name}>", "exec")
    exec(code, namespace)
    delta_fns = {
        sid: namespace[f"_delta_{sid}"]
        for sid, _pred in layout.delta_candidates
    }
    compiled = CodegenRule(
        rule,
        len(layout.slots),
        source,
        namespace["_full"],
        delta_fns,
        layout.delta_candidates,
    )
    if len(_CODEGEN_CACHE) >= _CODEGEN_CACHE_MAX:
        _CODEGEN_CACHE.clear()
    _CODEGEN_CACHE[key] = (registry, compiled)
    return compiled


def emit_program_source(
    program: Program, registry: Optional[FunctionRegistry] = None
) -> str:
    """Dump every rule's generated source (``fvn-lint --emit-codegen``).

    A rule the generator rejects (unsafe head, unorderable body — programs
    the linter's lenient parse lets through) is listed with the reason, so
    the dump is total over the program; output is deterministic for a
    given program/registry, which is what the golden corpus pins.
    """

    if registry is None:
        registry = FunctionRegistry()
    chunks: list[str] = []
    for rule in program.rules:
        try:
            source, _ = generate_rule_source(rule, registry)
        except NDlogError as exc:
            chunks.append(f"# rule {rule.name}: rejected -- {exc}\n")
        else:
            chunks.append(source)
    return "\n".join(chunks)
