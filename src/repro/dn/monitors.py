"""Runtime invariant monitors: FVN properties checked *during* execution.

The FVN workflow proves properties of the generated specification offline
(arcs 4–5 of Figure 1) and, in this reproduction, re-checks them post-hoc on
final execution states.  This module closes the remaining gap: the same
safety properties evaluated **incrementally while the protocol runs**, so a
campaign over thousands of seeded executions can report *when* an invariant
first broke instead of only *whether* the final state satisfies it.

Monitors implement the :class:`repro.dn.engine.EngineMonitor` hook protocol
and keep no copy of the state they check: each check reads the node's own
tables (``engine.nodes[node].rows(predicate)`` / ``.select(...)``, the same
calls on a single-process :class:`~repro.dn.node.Node` and on a sharded
host's row view).

* ``attach`` — bind the monitor to the engine whose tables it reads;
* ``on_settle`` — evaluate the invariant for a node that just reached a
  local fixpoint with at least one recorded state change, reading that
  node's tables.  Checking only at settle points is what makes runtime
  monitoring sound: mid-drain states are deliberately inconsistent
  (deletion deltas fire against the old database), while every FVN safety
  property is a statement about (locally) quiescent states;
* ``finalize`` — one check of every node at the end of the run.  The
  monitor's *active* violations then describe the engine's final tables,
  which is what :func:`posthoc_violations` checks with fresh monitors, so
  runtime and post-hoc checks agree by construction: the same code reads
  the same tables.

**Change-scoped checks.**  A settle hands ``on_settle`` the trace records it
appended, and a monitor re-checks only the *units* those records touch,
keeping its active violations outside them: the ``(source, destination)``
groups at ``schema.group_positions`` for :class:`RouteValidityMonitor` and
:class:`BestAgreementMonitor` (every violation they report belongs to one
group and reads only that group's rows), the changed rows for
:class:`CycleFreedomMonitor`.  Each monitor has **one** check function,
parameterised by the rows it reads; the whole-node rescan is that function
over every row, and it runs for ``finalize``, a node's first check after
``attach``, an ``on_settle`` call without records, any change to a
size-capped table (its FIFO eviction is untraced), and — for
:class:`RouteValidityMonitor`, whose first-hop liveness reads every local
link — any ``link`` change.  Scoped reads go through primary-key lookups or
indexes that already exist (:meth:`~repro.ndlog.store.Table.select`):
``select`` reads only what exists, so a monitor's reads add no index the
tables would then maintain on every change.
:class:`SoftStateBoundMonitor` (its violations come from the clock, not
from changes) rescans every settle, and only when the program has a
soft-state table.

A violation is *recorded* the first time its signature appears (that is the
first-violation timestamp) and *healed* when a later check no longer finds
it, so transient reconvergence windows and persistent safety failures are
distinguishable in the campaign artifacts.

The monitors correspond to the :mod:`repro.fvn.properties` corpus:

* :class:`RouteValidityMonitor` — ``bestPathSound`` + ``pathHasLink``: every
  selected best route is a currently-derived route whose first hop is a live
  local link;
* :class:`BestAgreementMonitor` — ``bestPathStrong``/``bestPathWeak``: the
  selected cost/rank is exactly the minimum over the node's candidate
  routes, and every candidate group has a selection;
* :class:`CycleFreedomMonitor` — ``pathCycleFree``: no stored path vector
  revisits a node;
* :class:`SoftStateBoundMonitor` — the §4.2 soft-state liveness bound: no
  soft-state row outlives its lifetime by more than a scan interval.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..ndlog.aggregates import tuple_getter
from ..ndlog.ast import Program

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..fvn.properties import PropertySpec
    from .engine import DistributedEngine


@dataclass(frozen=True, slots=True)
class MonitorViolation:
    """One invariant violation observed at a node.

    ``signature`` identifies the violation across checks (so a persisting
    violation is recorded once, with its first-observation ``time``), and
    ``detail`` is a human-readable description for reports.
    """

    monitor: str
    time: float
    node: object
    signature: tuple
    detail: str


@dataclass(frozen=True)
class MonitorSchema:
    """Predicate names/positions binding monitors to a program's schema.

    The defaults match the paper's path-vector program (``r1``–``r4``);
    :data:`POLICY_SCHEMA` matches the generated policy path-vector program.
    ``best_to_path`` maps positions of a best-route row to the positions of
    the candidate-route row that must support it.
    """

    link_predicate: str = "link"
    path_predicate: str = "path"
    best_predicate: str = "bestPath"
    best_cost_predicate: str = "bestPathCost"
    #: (predicate, position-of-path-vector) pairs checked for cycles
    vector_positions: tuple[tuple[str, int], ...] = (("path", 2), ("bestPath", 2))
    #: best-row position → candidate-row position projection
    best_to_path: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (3, 3))
    #: position of the path vector in a best-route row (first-hop check)
    best_vector_position: int = 2
    #: position of the minimized value in a best-route row (stale-route
    #: projection — tie-robust comparisons keep (group, value), drop paths)
    best_value_position: int = 3
    #: (source, destination) group positions shared by all route relations
    group_positions: tuple[int, ...] = (0, 1)
    #: position of the minimized value in candidate rows / best-cost rows
    path_value_position: int = 3
    best_cost_value_position: int = 2


PATH_VECTOR_SCHEMA = MonitorSchema()

POLICY_SCHEMA = MonitorSchema(
    path_predicate="route",
    best_predicate="bestRoute",
    best_cost_predicate="bestRouteRank",
    vector_positions=(("route", 2), ("bestRoute", 2)),
    # bestRoute(S,D,P,C,R) is supported by route(S,D,P,C,Pref,R)
    best_to_path=((0, 0), (1, 1), (2, 2), (3, 3), (4, 5)),
    best_vector_position=2,
    best_value_position=4,
    group_positions=(0, 1),
    path_value_position=5,
    best_cost_value_position=2,
)


#: ``tuple_getter`` per position tuple: checks ask for the same few on
#: every settle
_getter = functools.lru_cache(maxsize=None)(tuple_getter)


def schema_for_program(program: Program) -> MonitorSchema:
    """Pick the monitor schema matching a program's head predicates."""

    heads = program.head_predicates()
    if "bestRoute" in heads or "bestRouteRank" in heads:
        return POLICY_SCHEMA
    return PATH_VECTOR_SCHEMA


class RuntimeMonitor:
    """Base monitor: checks at settles and at the end, violation healing.

    Subclasses report the current violations of one node from
    :meth:`_violations_at` — over every row, or over the units ``units``
    only — and, to scope their settle checks, name the units a settle's
    records touch (:meth:`_touched`) and the unit each violation belongs
    to (:meth:`_unit_of`).  The base class rescans the whole node at every
    settle.
    """

    name = "monitor"
    #: history cap — campaigns keep the first occurrences, not every recheck
    max_recorded = 200

    def __init__(self) -> None:
        self.violations: list[MonitorViolation] = []
        self.dropped = 0
        self.first_violation: Optional[MonitorViolation] = None
        self.finalized_at: Optional[float] = None
        self._engine: Optional["DistributedEngine"] = None
        #: node → signature → violation currently believed to hold
        self._active: dict[object, dict[tuple, MonitorViolation]] = {}
        #: nodes rescanned whole since attach: their active violations
        #: describe their tables, so a settle may re-check only its units
        self._checked: set = set()
        #: predicates whose change forces a whole-node rescan
        self._rescan_on: frozenset = frozenset()

    # -- hook protocol -----------------------------------------------------
    def attach(self, engine: "DistributedEngine") -> None:
        # weak: the engine holds its monitors, and a strong back-reference
        # would keep every dropped engine's tables alive until a full
        # cyclic collection (the engine calls finalize itself, so it is
        # alive whenever the monitor reads it)
        self._engine = weakref.proxy(engine)
        self._checked = set()
        # FIFO eviction from a size-capped table is not traced
        self._rescan_on = frozenset(
            predicate
            for predicate, decl in engine.program.materialized.items()
            if decl.max_size != float("inf")
        )

    def on_settle(self, time: float, node: object, changes: Optional[list] = None) -> None:
        units = None
        if (
            changes is not None
            and node in self._checked
            and self._rescan_on.isdisjoint([change[2] for change in changes])
        ):
            units = self._touched(changes)
        if units is None:
            self._check_node(time, node)
        elif units:
            self._check_node(time, node, units)

    def finalize(self, time: float) -> None:
        self.finalized_at = time
        for node in self._engine.nodes:
            self._check_node(time, node)

    # -- violation bookkeeping ---------------------------------------------
    def _check_node(self, time: float, node: object, units: Optional[set] = None) -> None:
        """Re-check ``node`` — whole, or only ``units`` — and update its
        active violations (those outside ``units`` stay as they are)."""

        current = dict(self._violations_at(node, time, units))
        if units is None:
            self._checked.add(node)
        if not current and node not in self._active:
            return
        active = self._active.setdefault(node, {})
        for signature, detail in current.items():
            if signature not in active:
                violation = MonitorViolation(self.name, time, node, signature, detail)
                active[signature] = violation
                if self.first_violation is None:
                    self.first_violation = violation
                if len(self.violations) < self.max_recorded:
                    self.violations.append(violation)
                else:
                    self.dropped += 1
        for signature in [
            s
            for s in active
            if s not in current and (units is None or self._unit_of(s) in units)
        ]:
            del active[signature]
        if not active:
            del self._active[node]

    def active_violations(self) -> list[MonitorViolation]:
        """Violations believed to hold right now (end-state after finalize)."""

        out = [v for per_node in self._active.values() for v in per_node.values()]
        out.sort(key=lambda v: (repr(v.node), repr(v.signature)))
        return out

    @property
    def ok(self) -> bool:
        return not self._active

    @property
    def first_violation_time(self) -> Optional[float]:
        return self.first_violation.time if self.first_violation is not None else None

    def report(self) -> dict:
        """A JSON-friendly summary for campaign run records."""

        active = self.active_violations()
        return {
            "monitor": self.name,
            "first_violation_time": self.first_violation_time,
            "violations": len(self.violations) + self.dropped,
            "active_at_end": len(active),
            "examples": [v.detail for v in active[:3]],
        }

    # -- subclass hooks ----------------------------------------------------
    def _rows(self, node: object, predicate: str) -> list[tuple]:
        """The rows of ``predicate`` stored at ``node`` right now."""

        return self._engine.nodes[node].rows(predicate)

    def _touched(self, changes: list) -> Optional[set]:
        """The units ``changes`` (a settle's trace records, none of them to
        a :attr:`_rescan_on` predicate) touch, or None when the settle needs
        a whole-node rescan."""

        return None

    def _unit_of(self, signature: tuple) -> object:
        """The unit a violation signature belongs to."""

        raise NotImplementedError

    def _violations_at(
        self, node: object, time: float, units: Optional[set] = None
    ) -> Iterable[tuple[tuple, str]]:
        return ()


class _GroupMonitor(RuntimeMonitor):
    """A monitor whose every violation belongs to one ``(source,
    destination)`` group at ``schema.group_positions`` and reads only that
    group's rows of :attr:`_grouped` predicates."""

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema

    def _grouped(self) -> tuple[str, ...]:
        raise NotImplementedError

    def _touched(self, changes):
        grouped = self._grouped()
        group = _getter(self.schema.group_positions)
        return {group(change[3]) for change in changes if change[2] in grouped}

    def _unit_of(self, signature):
        kind, subject = signature
        if kind == "missing_best":
            return subject
        return _getter(self.schema.group_positions)(subject)

    def _group_rows(self, node, predicate: str, groups: Optional[set]) -> list[tuple]:
        """The rows of ``predicate`` at ``node`` in ``groups`` (None: all)."""

        if groups is None:
            return self._rows(node, predicate)
        return self._engine.nodes[node].select(predicate, self.schema.group_positions, groups)


class RouteValidityMonitor(_GroupMonitor):
    """Every selected best route is a currently-derived candidate route
    whose first hop is a live local link (``bestPathSound`` + ``pathHasLink``
    from :mod:`repro.fvn.properties`, checked at every settle point)."""

    name = "route_validity"

    def attach(self, engine) -> None:
        super().attach(engine)
        # first-hop liveness reads every local link
        self._rescan_on |= {self.schema.link_predicate}

    def _grouped(self):
        return (self.schema.best_predicate, self.schema.path_predicate)

    def _violations_at(self, node, time, units=None):
        schema = self.schema
        best_rows = self._group_rows(node, schema.best_predicate, units)
        if not best_rows:
            return
        # a best row's support is the candidate row agreeing with it at the
        # projected positions: read by primary key where the candidate
        # table's key lies within them
        project = _getter(tuple(b for b, _ in schema.best_to_path))
        targets = tuple(p for _, p in schema.best_to_path)
        support = set(
            map(
                _getter(targets),
                self._engine.nodes[node].select(
                    schema.path_predicate, targets, {project(row) for row in best_rows}
                ),
            )
        )
        neighbours = {row[1] for row in self._rows(node, schema.link_predicate)}
        for row in best_rows:
            if project(row) not in support:
                yield (
                    ("unsupported", row),
                    f"{schema.best_predicate}{row} at {node} has no supporting "
                    f"{schema.path_predicate} row",
                )
            vector = row[schema.best_vector_position]
            if isinstance(vector, tuple) and len(vector) >= 2:
                first_hop = vector[1]
                if first_hop not in neighbours:
                    yield (
                        ("dead_first_hop", row),
                        f"{schema.best_predicate}{row} at {node} leaves over "
                        f"missing link to {first_hop!r}",
                    )


class BestAgreementMonitor(_GroupMonitor):
    """The selected cost/rank is the minimum over the node's candidates and
    every candidate group has a selection (``bestPathStrong``/``Weak``)."""

    name = "best_agreement"

    def _grouped(self):
        return (self.schema.path_predicate, self.schema.best_cost_predicate)

    def _violations_at(self, node, time, units=None):
        schema = self.schema
        group_of = _getter(schema.group_positions)
        value_at = schema.path_value_position
        #: candidate group → its minimum value
        minima: dict[tuple, object] = {}
        for row in self._group_rows(node, schema.path_predicate, units):
            group = group_of(row)
            value = row[value_at]
            if group not in minima or value < minima[group]:
                minima[group] = value
        selected: set[tuple] = set()
        for row in self._group_rows(node, schema.best_cost_predicate, units):
            group = group_of(row)
            selected.add(group)
            if group not in minima:
                yield (
                    ("no_candidates", row),
                    f"{schema.best_cost_predicate}{row} at {node} selects from an "
                    f"empty {schema.path_predicate} group",
                )
            elif row[schema.best_cost_value_position] != minima[group]:
                yield (
                    ("not_minimal", row),
                    f"{schema.best_cost_predicate}{row} at {node} is not the "
                    f"minimum candidate value {minima[group]!r}",
                )
        for group in minima:
            if group not in selected:
                yield (
                    ("missing_best", group),
                    f"candidate group {group!r} at {node} has no "
                    f"{schema.best_cost_predicate} selection",
                )


class CycleFreedomMonitor(RuntimeMonitor):
    """No stored path vector revisits a node (``pathCycleFree``); a settle
    re-checks the rows it changed."""

    name = "cycle_freedom"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema

    def _touched(self, changes):
        checked = {predicate for predicate, _ in self.schema.vector_positions}
        return {(change[2], change[3]) for change in changes if change[2] in checked}

    def _unit_of(self, signature):
        return signature[1:]

    def _violations_at(self, node, time, units=None):
        at = self._engine.nodes[node]
        for predicate, position in self.schema.vector_positions:
            if units is None:
                rows = at.rows(predicate)
            else:
                rows = [row for p, row in units if p == predicate]
            for row in rows:
                vector = row[position]
                if (
                    isinstance(vector, tuple)
                    and len(set(vector)) != len(vector)
                    and (units is None or at.holds(predicate, row))
                ):
                    yield (
                        ("cycle", predicate, row),
                        f"{predicate}{row} at {node} has a cyclic path vector",
                    )


class SoftStateBoundMonitor(RuntimeMonitor):
    """No soft-state row outlives its lifetime by more than ``slack``.

    Reads deadlines through ``engine.soft_deadlines`` (they are storage
    bookkeeping the tables' rows do not carry; a sharded engine asks the
    worker holding the node).  ``slack`` defaults to 1.5×
    the engine's expiry-scan interval: a row can legitimately linger up to
    one full scan interval past its expiry before the scan retracts it.
    """

    name = "soft_state_bounds"

    def __init__(self, slack: Optional[float] = None) -> None:
        super().__init__()
        self.slack = slack

    def attach(self, engine) -> None:
        super().attach(engine)
        if self.slack is None:
            self.slack = engine.config.expiry_scan_interval * 1.5
        self._soft = any(decl.is_soft_state for decl in engine.program.materialized.values())

    def _violations_at(self, node, time, units=None):
        if not self._soft:
            return
        bound = self.slack or 0.0
        for predicate, row, deadline in self._engine.soft_deadlines(node):
            if time > deadline + bound:
                yield (
                    ("overdue", predicate, row),
                    f"soft-state {predicate}{row} at {node} is "
                    f"{time - deadline:.3f}s past its lifetime",
                )


# ----------------------------------------------------------------------
# Construction and adapters
# ----------------------------------------------------------------------

MONITOR_KINDS = (
    "route_validity",
    "best_agreement",
    "cycle_freedom",
    "soft_state_bounds",
)

_MONITOR_CLASSES = {
    "route_validity": RouteValidityMonitor,
    "best_agreement": BestAgreementMonitor,
    "cycle_freedom": CycleFreedomMonitor,
}

#: property name (from :mod:`repro.fvn.properties`) → monitor kind
PROPERTY_MONITORS = {
    "bestPathSound": "route_validity",
    "pathHasLink": "route_validity",
    "bestPathStrong": "best_agreement",
    "bestPathWeak": "best_agreement",
    "pathCycleFree": "cycle_freedom",
}


def build_monitor(
    kind: str, schema: MonitorSchema = PATH_VECTOR_SCHEMA
) -> RuntimeMonitor:
    """Construct a monitor by kind name (see :data:`MONITOR_KINDS`)."""

    if kind == "soft_state_bounds":
        return SoftStateBoundMonitor()
    try:
        return _MONITOR_CLASSES[kind](schema)
    except KeyError:
        raise ValueError(
            f"unknown monitor kind {kind!r}; expected one of {MONITOR_KINDS}"
        ) from None


def standard_monitors(schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> list[RuntimeMonitor]:
    """One monitor of every kind, bound to ``schema``."""

    return [build_monitor(kind, schema) for kind in MONITOR_KINDS]


def monitor_for_property(
    prop: PropertySpec | str, schema: MonitorSchema = PATH_VECTOR_SCHEMA
) -> RuntimeMonitor:
    """The runtime monitor enforcing a named FVN property.

    Adapts the offline property corpus (arc 1) to runtime checking: the
    property's *name* selects the incremental checker that evaluates the
    same invariant on live execution states.
    """

    name = prop if isinstance(prop, str) else prop.name
    kind = PROPERTY_MONITORS.get(name)
    if kind is None:
        raise ValueError(
            f"no runtime monitor for property {name!r}; "
            f"known properties: {sorted(PROPERTY_MONITORS)}"
        )
    return build_monitor(kind, schema)


def monitors_from_properties(
    properties: Iterable[PropertySpec | str],
    schema: MonitorSchema = PATH_VECTOR_SCHEMA,
) -> list[RuntimeMonitor]:
    """Monitors for a property suite, deduplicated by monitor kind."""

    kinds: list[str] = []
    for prop in properties:
        name = prop if isinstance(prop, str) else prop.name
        kind = PROPERTY_MONITORS.get(name)
        if kind is not None and kind not in kinds:
            kinds.append(kind)
    return [build_monitor(kind, schema) for kind in kinds]


def clean_report(kind: str) -> dict:
    """The report a monitor of ``kind`` produces after a violation-free run.

    Statically-proven monitors are skipped at runtime and recorded with
    exactly this report, so a campaign's ``results.jsonl`` is byte-identical
    whether a clean invariant was checked dynamically or discharged ahead
    of time (monitors are passive observers — detaching one never changes
    the execution itself).
    """

    if kind not in MONITOR_KINDS:
        raise ValueError(
            f"unknown monitor kind {kind!r}; expected one of {MONITOR_KINDS}"
        )
    return {
        "monitor": kind,
        "first_violation_time": None,
        "violations": 0,
        "active_at_end": 0,
        "examples": [],
    }


def posthoc_violations(
    engine: "DistributedEngine",
    kinds: Iterable[str] = MONITOR_KINDS,
    schema: Optional[MonitorSchema] = None,
) -> dict[str, list[MonitorViolation]]:
    """Check the engine's *final* state with fresh monitors.

    Attaches newly-built monitors to the engine and finalizes them — the
    classical post-hoc property check, running the identical invariant code
    over the identical tables the runtime monitors read.  Cross-validating
    a runtime monitor against this is how campaigns establish that
    incremental monitoring observed the same end state the stored tables
    hold.
    """

    if schema is None:
        schema = schema_for_program(engine.original_program)
    at = engine.scheduler.now
    out: dict[str, list[MonitorViolation]] = {}
    for kind in kinds:
        monitor = build_monitor(kind, schema)
        monitor.attach(engine)
        monitor.finalize(at)
        out[kind] = monitor.active_violations()
    return out
