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

**The compiled settle.**  A distributed node's settle runs, between two
rule calls, code generated per program from its
:class:`~repro.ndlog.plan.SettlePlan`: :func:`generate_settle_source`
emits it and :func:`compile_settle` binds it to a rule engine.  Per
derived rule a *fire* function derives the rule over a delta view and
routes each head row inline (local rows to the node's op queue, remote
rows to the settle's outbox); per aggregate rule a *route* function does
the routing alone; per key-scoped derive a *scoped* function looks its
plan-chosen seed up under the keys and derives; per sweepable
predicate a *check* (the scoped consistency verdict), a *sweep* (the full
repair) and per derived predicate a *refill*.  The rule bodies themselves
are called through the rule engine (its ``deriver`` per rule), so the
reference interpreter still drives the same settle.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from ..terms import Const, DEFAULT_ARITHMETIC, EvaluationError, Func, FunctionRegistry, Term, Var
from .aggregates import aggregate_rows
from .ast import NDlogError, Program, Rule
from .plan import (
    _OP_CONST,
    _OP_SLOT,
    _OP_STORE,
    RuleLayout,
    ScopedDerive,
    SettlePlan,
    ViewPlan,
    key_positions,
    rule_layout,
    settle_plan,
)

__all__ = [
    "CodegenRule",
    "codegen_rule",
    "generate_rule_source",
    "emit_program_source",
    "SettleCode",
    "generate_settle_source",
    "compile_settle",
    "program_text",
    "program_digest",
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
        # raw rules reach here through the public RuleEngine.precompile; a
        # dead plan derives nothing, so its head needs no binding
        if not layout.dead:
            unsafe = rule.head.variables() - rule.bound_variables()
            if unsafe:
                names = ", ".join(sorted(v.name for v in unsafe))
                raise NDlogError(f"rule {rule.name}: unsafe head variables {{{names}}}")
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
    semi-naive delta view (a :class:`~repro.ndlog.rules.DeltaIndex`)
    restricting the join to one pass per delta-matched positive literal,
    or ``None`` for a full evaluation.  The emitted source is kept
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
        "_passes_of",
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
        #: predicate → the delta passes of its literals, in body order (a
        #: one-predicate view's passes)
        passes_of: dict[str, list] = {}
        for sid, pred in delta_candidates:
            passes_of.setdefault(pred, []).append(delta_fns[sid])
        self._passes_of = {pred: tuple(fns) for pred, fns in passes_of.items()}

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
            if len(view) == 1:
                passes = ()
                for pred in view:
                    passes = self._passes_of.get(pred, ())
            else:
                delta_fns = self._delta_fns
                passes = []
                for sid, pred in self._delta_candidates:
                    if pred in view:
                        passes.append(delta_fns[sid])
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


# ---------------------------------------------------------------------------
# The compiled settle
# ---------------------------------------------------------------------------


def _getter_name(positions: tuple[int, ...]) -> str:
    """The module-level ``itemgetter`` of a settle source taking a row to
    its values at ``positions`` (two or more): a tuple built in C."""

    return "_at_" + "_".join(map(str, positions))


class _SettleEmitter:
    """Generates the settle source of one :class:`SettlePlan`.

    Every function takes ``derive`` first, the rule engine's derive of
    each rule of ``plan.derived`` by position, so one compilation serves
    every engine.  Rules are named by index: ``derive[i]`` / ``_fire{i}``
    by position in ``plan.derived``, ``_route{r}`` by position in the program's rules,
    ``_scoped{j}`` in the order :attr:`scoped` lists the key-scoped
    derives, and ``_check{k}`` / ``_sweep{k}`` / ``_refill{k}`` by position
    among the predicates they serve.
    """

    def __init__(self, plan: SettlePlan) -> None:
        self.plan = plan
        #: every key-scoped derive of a keyed predicate's rule, in plan order
        self.scoped: list[ScopedDerive] = [
            scoped for plans in plan.key_plans.values() for scoped in plans
        ]
        #: the position tuples the source reads through an ``itemgetter``
        self.getters: set[tuple[int, ...]] = set()
        self.source = self._generate()

    def _key_expr(self, positions: tuple[int, ...], row: str = "values") -> str:
        """Source building the tuple of ``row``'s values at ``positions``."""

        if len(positions) == 1:
            return f"({row}[{positions[0]}],)"
        self.getters.add(positions)
        return f"{_getter_name(positions)}({row})"

    def _generate(self) -> str:
        plan = self.plan
        program = plan.program
        w = _Writer()
        w.emit(f"# settle code for program {program.name}")
        w.emit("# derive[i]: the rule engine's derive of")
        for i, rule in enumerate(plan.derived):
            w.emit(f"#   {i}: {rule.name}")
        w.emit()
        header = len(w.lines)
        variants = len(plan.derived) - len(plan.view_plans)
        for i, rule in enumerate(plan.derived[:variants]):
            self._emit_fire(w, i, rule)
        for r, rule in enumerate(program.rules):
            if rule.head.has_aggregate:
                self._emit_route(w, r, rule)
                view = plan.view_plans.get(r)
                if view is not None:
                    self._emit_moved(w, r, rule, view)
                    self._emit_refold(w, r, rule, view)
        for j, scoped in enumerate(self.scoped):
            self._emit_scoped(w, j, scoped)
        for k, predicate in enumerate(plan.sweep_rules):
            if predicate in plan.sweep_plans:
                self._emit_check(w, k, predicate)
            self._emit_sweep(w, k, predicate)
        for k, predicate in enumerate(plan.head_rules):
            self._emit_refill(w, k, predicate)
        w.emit(f"FIRE = ({''.join(f'_fire{i}, ' for i in range(variants))})")
        routes = [r for r, rule in enumerate(program.rules) if rule.head.has_aggregate]
        w.emit("ROUTE = {" + ", ".join(f"{r}: _route{r}" for r in routes) + "}")
        views = [r for r in routes if r in plan.view_plans]
        w.emit("MOVED = {" + ", ".join(f"{r}: _moved{r}" for r in views) + "}")
        w.emit("REFOLD = {" + ", ".join(f"{r}: _refold{r}" for r in views) + "}")
        checks = [
            f"{predicate!r}: _check{k}"
            for k, predicate in enumerate(plan.sweep_rules)
            if predicate in plan.sweep_plans
        ]
        w.emit("CHECK = {" + ", ".join(checks) + "}")
        sweeps = [f"{predicate!r}: _sweep{k}" for k, predicate in enumerate(plan.sweep_rules)]
        w.emit("SWEEP = {" + ", ".join(sweeps) + "}")
        refills = [f"{predicate!r}: _refill{k}" for k, predicate in enumerate(plan.head_rules)]
        w.emit("REFILL = {" + ", ".join(refills) + "}")
        # the key getters the functions read, defined ahead of them
        w.lines[header:header] = [
            f"{_getter_name(positions)} = _itemgetter{positions!r}"
            for positions in sorted(self.getters)
        ] + ([""] if self.getters else [])
        return w.source()

    # -- routing ------------------------------------------------------------
    def _emit_routing(self, w: _Writer, rule: Rule, rows: str) -> None:
        """Route ``rows`` (a source expression) as the heads of ``rule``:
        local rows join the node's queue as one run ``(op, predicate,
        rows)``, remote rows count under ``side`` in the outbox entry
        ``[asserts, retracts, dst, predicate, values]`` keyed ``(dst,
        predicate, row)`` — by the row's ``row_key`` when it holds an
        unhashable value."""

        predicate = repr(rule.head.predicate)
        location = rule.head.location
        if location is None:
            w.emit(f"local = list({rows})")
            w.emit("if local:")
            w.indent()
            w.emit(f"queue.append((op, {predicate}, local))")
            w.depth -= 1
            return
        w.emit("local = []")
        w.emit("keep = local.append")
        w.emit(f"for values in {rows}:")
        w.indent()
        w.emit(f"destination = values[{location}]")
        w.emit("if destination is None or destination == node_id:")
        w.indent()
        w.emit("keep(values)")
        w.emit("continue")
        w.depth -= 1
        w.emit(f"entry = [0, 0, destination, {predicate}, values]")
        w.emit("try:")
        w.indent()
        w.emit(f"entry = outbox.setdefault((destination, {predicate}, values), entry)")
        w.depth -= 1
        w.emit("except TypeError:")
        w.indent()
        w.emit(f"entry = outbox.setdefault((destination, {predicate}, _row_key(values)), entry)")
        w.depth -= 1
        w.emit("entry[side] += 1")
        w.depth -= 1
        w.emit("if local:")
        w.indent()
        w.emit(f"queue.append((op, {predicate}, local))")
        w.depth -= 1

    def _emit_fire(self, w: _Writer, i: int, rule: Rule) -> None:
        w.emit(f"def _fire{i}(derive, db, view, queue, outbox, node_id, op, side):")
        w.indent()
        w.emit(f"# {rule.name}: derive over the delta view, route {rule.head.predicate}")
        self._emit_routing(w, rule, f"derive[{i}](db, view)")
        w.depth = 0
        w.emit()

    def _emit_route(self, w: _Writer, r: int, rule: Rule) -> None:
        w.emit(f"def _route{r}(rows, queue, outbox, node_id, op, side):")
        w.indent()
        w.emit(f"# {rule.name}: route changed {rule.head.predicate} groups")
        self._emit_routing(w, rule, "rows")
        w.depth = 0
        w.emit()

    # -- group-maintained aggregates ------------------------------------------
    def _emit_moved(self, w: _Writer, r: int, rule: Rule, view: ViewPlan) -> None:
        """``_moved{r}(moved, memo)``: the group keys that the body rows in
        ``moved`` (predicate → rows inserted or removed) can change, or
        ``None`` when the whole rule must be re-fired (a moved predicate
        read by a literal that does not bind the group).  A row whose
        aggregated value the group's ``memo`` row outranks names no
        group."""

        w.emit(f"def _moved{r}(moved, memo):")
        w.indent()
        w.emit(f"# {rule.name}: the {rule.head.predicate} groups moved body rows can change")
        for predicate, readers in view.group_of.items():
            if readers is None:
                w.emit(f"if moved.get({predicate!r}):")
                w.indent()
                w.emit("return None")
                w.depth -= 1
        w.emit("groups = set()")
        for predicate, readers in view.group_of.items():
            if readers is None:
                continue
            w.emit(f"rows = moved.get({predicate!r})")
            w.emit("if rows:")
            w.indent()
            for positions, value_at in readers:
                group = self._key_expr(positions, "row")
                if view.outranked is None or value_at is None:
                    w.emit(f"groups.update([{group} for row in rows])")
                    continue
                w.emit("for row in rows:")
                w.indent()
                w.emit(f"group = {group}")
                w.emit("if group in groups:")
                w.indent()
                w.emit("continue")
                w.depth -= 1
                w.emit("held = memo.get(group)")
                w.emit(
                    f"if held is None or not (row[{value_at}] {view.outranked} "
                    f"held[{view.value_at}]):"
                )
                w.indent()
                w.emit("groups.add(group)")
                w.depth -= 2
            w.depth -= 1
        w.emit("return groups")
        w.depth = 0
        w.emit()

    def _emit_refold(self, w: _Writer, r: int, rule: Rule, view: ViewPlan) -> None:
        """``_refold{r}(db, memo, keys, stats)``: ``(removed, added,
        fresh)`` of the groups ``keys``: the rule's plain-head variant is
        derived under the keys (seeded as a key-scoped derive is), its
        bindings folded per group as a whole firing folds them, and the
        memo rows and fresh rows of the groups whose row changed returned
        in ``order_key`` order of their keys."""

        head = rule.head
        group = view.scoped.key_positions
        aggregates = head.aggregates
        w.emit(f"def _refold{r}(derive, db, memo, keys, stats):")
        w.indent()
        w.emit(f"# {rule.name}: re-fold the {head.predicate} groups under keys")
        w.emit("table = db.table")
        self._emit_seed(w, view.scoped)
        w.emit("folded = {}")
        w.emit("if rows:")
        w.indent()
        w.emit("stats.rule_firings += 1")
        w.emit(f"for values in derive[{view.scoped.derive}](db, _DeltaIndex({{seeded: rows}}, distinct=True)):")
        w.indent()
        w.emit(f"key = {self._key_expr(group)}")
        w.emit("if key not in keys:")
        w.indent()
        w.emit("continue")
        w.depth -= 1
        if len(aggregates) == 1:
            # one aggregate: the running value itself, as aggregate_rows folds it
            (index, aggregate), = aggregates
            if aggregate.function == "count":
                w.emit("folded[key] = folded.get(key, 0) + 1")
            else:
                compare = "<" if aggregate.function == "min" else ">"
                w.emit(f"value = values[{index}]")
                w.emit("current = folded.get(key, _MISSING)")
                w.emit(f"if current is _MISSING or value {compare} current:")
                w.indent()
                w.emit("folded[key] = value")
                w.depth -= 1
            values_of = {index: "value"}
            source = "value"
        else:
            # several: one accumulator per aggregate, a count as its tally
            starts = ", ".join(
                "1" if agg.function == "count" else f"values[{index}]"
                for index, agg in aggregates
            )
            w.emit("acc = folded.get(key)")
            w.emit("if acc is None:")
            w.indent()
            w.emit(f"folded[key] = [{starts}]")
            w.emit("continue")
            w.depth -= 1
            for k, (index, agg) in enumerate(aggregates):
                if agg.function == "count":
                    w.emit(f"acc[{k}] += 1")
                    continue
                compare = "<" if agg.function == "min" else ">"
                w.emit(f"if values[{index}] {compare} acc[{k}]:")
                w.indent()
                w.emit(f"acc[{k}] = values[{index}]")
                w.depth -= 1
            values_of = {index: f"value[{k}]" for k, (index, _) in enumerate(aggregates)}
            source = "value"
        row = ", ".join(
            f"key[{group.index(position)}]" if position in group else values_of[position]
            for position in range(head.arity)
        )
        if head.arity == 1:
            row += ","
        w.depth -= 2
        w.emit(f"fresh = {{key: ({row}) for key, {source} in folded.items()}}")
        w.emit("changed = [group for group in keys if memo.get(group) != fresh.get(group)]")
        w.emit("if len(changed) > 1:")
        w.indent()
        w.emit("changed.sort(key=_order_key)")
        w.depth -= 1
        w.emit(
            "return [memo[group] for group in changed if group in memo], "
            "[fresh[group] for group in changed if group in fresh], fresh"
        )
        w.depth = 0
        w.emit()

    # -- key-scoped derives -------------------------------------------------
    def _emit_seed(self, w: _Writer, scoped: ScopedDerive) -> None:
        """Emit the seeding of a key-scoped derive: ``seeded`` (the seed
        predicate) and ``rows`` (its rows agreeing with one of ``keys``, in
        key order, then lookup order), through the seed the plan chose."""

        seed = scoped.seed
        if seed.whole:
            probes = "keys"
        else:
            probes = f"dict.fromkeys([{self._key_expr(seed.slots, 'key')} for key in keys])"
        w.emit(
            f"seeded, rows = {seed.predicate!r}, "
            f"table({seed.predicate!r}).lookup_all({seed.positions!r}, {probes})"
        )

    def _emit_scoped(self, w: _Writer, j: int, scoped: ScopedDerive) -> None:
        """``_scoped{j}(db, keys, stats)``: the rows the rule derives whose
        values at the key positions are among ``keys``, at binding
        multiplicity.  The seed rows agreeing with a key go in as the
        delta of an ordinary derive; rows come in the order ``keys``
        iterates, then lookup order.  Nothing fires when no seed row
        agrees."""

        rule, derive, seed, positions = scoped
        w.emit(f"def _scoped{j}(derive, db, keys, stats):")
        w.indent()
        w.emit(
            f"# {rule.name} under {rule.head.predicate} keys at {positions!r}, "
            f"seeded by {seed.predicate}{seed.positions!r}"
        )
        w.emit("table = db.table")
        self._emit_seed(w, scoped)
        w.emit("if not rows:")
        w.indent()
        w.emit("return rows")
        w.depth -= 1
        w.emit("stats.rule_firings += 1")
        w.emit(
            f"found = derive[{derive}](db, _DeltaIndex({{seeded: rows}}, distinct=True))"
        )
        w.emit(f"return [values for values in found if {self._key_expr(positions)} in keys]")
        w.depth = 0
        w.emit()

    # -- consistency: scoped check, full sweep, keyed refill ------------------
    def _emit_location_test(self, w: _Writer, rule: Rule, *, local: bool) -> bool:
        """Open an ``if`` keeping rows stored at ``node_id`` (``local``) or
        skipping rows stored elsewhere; ``False`` when the head has no
        location, so every row is local."""

        location = rule.head.location
        if location is None:
            return False
        if local:
            w.emit(f"if values[{location}] == node_id:")
        else:
            w.emit(f"if values[{location}] is None or values[{location}] == node_id:")
        w.indent()
        return True

    def _emit_check(self, w: _Writer, k: int, predicate: str) -> None:
        """``_check{k}``: each deriving rule seeded under ``keys`` as its
        key-scoped derive seeds it, and its rows compared, as they come,
        with the row stored under their key."""

        plans = self.plan.key_plans[predicate]
        w.emit(f"def _check{k}(derive, db, keys, node_id, stats):")
        w.indent()
        w.emit(
            f"# is every {predicate} row stored under keys derivable, and none "
            "derivable under a key that stores none?"
        )
        w.emit("table = db.table")
        w.emit(f"held_at = table({predicate!r}).by_key().get")
        w.emit("supported = set()")
        w.emit("unstored = False")
        # every rule is derived before the verdict: an early return would
        # save derives, but would move the firing counts a settle reports
        for scoped in plans:
            self._emit_seed(w, scoped)
            w.emit("if rows:")
            w.indent()
            w.emit("stats.rule_firings += 1")
            w.emit(
                f"for values in derive[{scoped.derive}](db, _DeltaIndex({{seeded: rows}}, distinct=True)):"
            )
            w.indent()
            w.emit(f"key = {self._key_expr(scoped.key_positions)}")
            w.emit("if key not in keys:")
            w.indent()
            w.emit("continue")
            w.depth -= 1
            opened = self._emit_location_test(w, scoped.rule, local=True)
            w.emit("held = held_at(key)")
            w.emit("if held is None:")
            w.indent()
            w.emit("unstored = True")
            w.depth -= 1
            w.emit("elif held == values or _row_key(held) == _row_key(values):")
            w.indent()
            w.emit("supported.add(key)")
            w.depth -= 3 + opened
        w.emit("if unstored:")
        w.indent()
        w.emit("return False")
        w.depth -= 1
        w.emit("return all(key in supported for key in keys if held_at(key) is not None)")
        w.depth = 0
        w.emit()

    def _emit_sweep(self, w: _Writer, k: int, predicate: str) -> None:
        derived = self.plan.derived
        w.emit(f"def _sweep{k}(derive, db, queue, node_id, stats):")
        w.indent()
        w.emit(
            f"# re-derive {predicate} over the node: purge stored rows no rule "
            "derives, re-assert derivable rows whose key went empty"
        )
        w.emit(f"table = db.table({predicate!r})")
        w.emit("derivable = {}")
        for i in self.plan.sweep_rules[predicate]:
            w.emit("stats.rule_firings += 1")
            w.emit(f"for values in derive[{i}](db):")
            w.indent()
            opened = self._emit_location_test(w, derived[i], local=False)
            w.emit("derivable[_row_key(values)] = values")
            w.depth -= 1 + opened
        w.emit("stored = {_row_key(row): row for row in table.rows()}")
        w.emit("purged = [row for key, row in stored.items() if key not in derivable]")
        w.emit("if purged:")
        w.indent()
        w.emit(f"queue.append(('purge', {predicate!r}, purged))")
        w.depth -= 1
        w.emit("current = table.current")
        w.emit(
            "restored = [row for key, row in derivable.items() "
            "if key not in stored and current(row) is None]"
        )
        w.emit("if restored:")
        w.indent()
        w.emit(f"queue.append(('insert', {predicate!r}, restored))")
        w.depth -= 1
        w.emit("return bool(purged or restored)")
        w.depth = 0
        w.emit()

    def _emit_refill(self, w: _Writer, k: int, predicate: str) -> None:
        plan = self.plan
        keyed = plan.key_plans.get(predicate)
        w.emit(f"def _refill{k}(derive, db, keys, queue, node_id, stats):")
        w.indent()
        w.emit(
            f"# queue every locally stored {predicate} row derivable under the "
            "once-displaced keys, keys in order_key order"
        )
        w.emit(f"table = db.table({predicate!r})")
        w.emit("current = table.current")
        w.emit("found = []")
        if keyed:
            w.emit("ordered = dict.fromkeys(sorted(keys, key=_order_key))")
            sources = [
                (scoped.rule, f"_scoped{self.scoped.index(scoped)}(derive, db, ordered, stats)")
                for scoped in keyed
            ]
        else:
            sources = [
                (plan.derived[i], f"derive[{i}](db)") for i in plan.head_rules[predicate]
            ]
        positions = plan.key_plans[predicate][0].key_positions if keyed else None
        for rule, rows in sources:
            if not keyed:
                w.emit("stats.rule_firings += 1")
                positions = key_positions(plan.program, rule)
            w.emit(f"for values in {rows}:")
            w.indent()
            opened = self._emit_location_test(w, rule, local=False)
            w.emit(f"if {self._key_expr(positions)} in keys and current(values) is None:")
            w.indent()
            w.emit("found.append(values)")
            w.depth -= 2 + opened
        w.emit("if found:")
        w.indent()
        w.emit(f"queue.append(('insert', {predicate!r}, found))")
        w.depth = 0
        w.emit()


def generate_settle_source(plan: SettlePlan) -> str:
    """The settle source of ``plan`` (see :func:`compile_settle`); pinned
    for the golden corpus beside each program's ``*.codegen.txt``."""

    return _SettleEmitter(plan).source


class SettleCode(NamedTuple):
    """A program's compiled settle, bound to one rule engine.

    ``plan`` is the program's :class:`~repro.ndlog.plan.SettlePlan`, shared
    by every engine over an equal program.  ``fire`` holds, by position in
    ``plan.derived``, ``fire(db, view, queue, outbox, node_id, op, side)``
    of each rule that fires over a delta view (the non-aggregate rules and
    their negation-delta variants); ``route`` maps each aggregate rule, by
    program position, to ``route(rows, queue, outbox, node_id, op, side)``;
    ``moved`` each group-maintained one to ``moved(moved, memo) -> groups``
    (``None``: re-fire whole) and ``refold`` to ``refold(db, memo, keys,
    stats) -> (removed, added, fresh)``.  ``check`` / ``sweep`` map
    sweepable predicates, ``refill`` derived ones."""

    plan: SettlePlan
    fire: tuple[Callable, ...]
    route: dict[int, Callable]
    moved: dict[int, Callable]
    refold: dict[int, Callable]
    check: dict[str, Callable]
    sweep: dict[str, Callable]
    refill: dict[str, Callable]


def program_text(program: Program) -> str:
    """The canonical text of ``program``: ``program <name>``, then one
    ``repr`` line per materialize declaration, rule and fact, in program
    order (source spans are not part of a ``repr``).  The corpus pins it
    as ``tests/ndlog/corpus/*.parse.txt``."""

    lines = [f"program {program.name}"]
    lines += map(repr, program.materialized.values())
    lines += map(repr, program.rules)
    lines += map(repr, program.facts)
    return "\n".join(lines) + "\n"


def program_digest(program: Program) -> str:
    """The identity of ``program``: the SHA-256 hex digest of its
    :func:`program_text`.  An engine digests the localized program it runs
    (``DistributedEngine.program_digest``); the settle cache, the discharge
    cache, engine captures and campaign ledger records are keyed or stamped
    by it."""

    return hashlib.sha256(program_text(program).encode()).hexdigest()


#: a program's digest → its settle plan and the namespace its settle source
#: defined: every engine over an equal program shares both (the functions
#: take the engine's derives as their first argument), as rules share their
#: code through ``_CODEGEN_CACHE``, and an engine over a program already
#: seen neither plans nor emits
_SETTLE_CACHE: dict[str, tuple[SettlePlan, dict]] = {}


def compile_settle(program: Program, rule_engine, digest: Optional[str] = None) -> SettleCode:
    """Plan and compile ``program``'s settle (once per program content) and
    bind it to ``rule_engine``: each derived rule is called through the
    engine's ``deriver`` (for generated rules, compiled now, off the hot
    path).  ``digest`` is ``program``'s :func:`program_digest` where the
    caller holds it (an engine does); without it the program is digested
    here."""

    key = digest or program_digest(program)
    cached = _SETTLE_CACHE.get(key)
    if cached is None:
        plan = settle_plan(program)
        source = generate_settle_source(plan)
        from .aggregates import order_key
        from .rules import DeltaIndex, row_key

        if len(_SETTLE_CACHE) >= _CODEGEN_CACHE_MAX:
            _SETTLE_CACHE.clear()
        namespace = {
            "_DeltaIndex": DeltaIndex,
            "_itemgetter": itemgetter,
            "_row_key": row_key,
            "_order_key": order_key,
            "_MISSING": object(),
        }
        exec(compile(source, f"<settle:{program.name}>", "exec"), namespace)
        cached = _SETTLE_CACHE[key] = (plan, namespace)
    plan, namespace = cached
    derive = tuple(rule_engine.deriver(rule) for rule in plan.derived)

    def bound(table):
        if isinstance(table, dict):
            return {key: partial(fn, derive) for key, fn in table.items()}
        return tuple(partial(fn, derive) for fn in table)

    return SettleCode(
        plan=plan,
        fire=bound(namespace["FIRE"]),
        route=namespace["ROUTE"],
        moved=namespace["MOVED"],
        refold=bound(namespace["REFOLD"]),
        check=bound(namespace["CHECK"]),
        sweep=bound(namespace["SWEEP"]),
        refill=bound(namespace["REFILL"]),
    )
