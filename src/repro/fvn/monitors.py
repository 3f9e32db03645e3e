"""Runtime invariant monitors: FVN properties checked *during* execution.

The FVN workflow proves properties of the generated specification offline
(arcs 4–5 of Figure 1) and, in this reproduction, re-checks them post-hoc on
final execution states.  This module closes the remaining gap: the same
safety properties evaluated **incrementally while the protocol runs**, so a
campaign over thousands of seeded executions can report *when* an invariant
first broke instead of only *whether* the final state satisfies it.

Monitors implement the :class:`repro.dn.engine.EngineMonitor` hook protocol:

* ``on_change`` — mirror every recorded tuple insertion/replacement/removal
  (keyed exactly like the node's own tables, via the program's
  ``materialize`` declarations);
* ``on_settle`` — evaluate the invariant for the node that just reached a
  local fixpoint.  Checking only at settle points is what makes runtime
  monitoring sound: mid-drain states are deliberately inconsistent (deletion
  deltas fire against the old database), while every FVN safety property is
  a statement about (locally) quiescent states;
* ``finalize`` — one full-state sweep at the end of the run, which makes the
  monitor's *active* violations agree with a post-hoc property check on the
  final state by construction (:func:`posthoc_violations` runs the identical
  checker over the engine's ground-truth tables for cross-validation).

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

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..ndlog.ast import Program
from .properties import PropertySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dn imports fvn users)
    from ..dn.engine import DistributedEngine


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


def schema_for_program(program: Program) -> MonitorSchema:
    """Pick the monitor schema matching a program's head predicates."""

    heads = program.head_predicates()
    if "bestRoute" in heads or "bestRouteRank" in heads:
        return POLICY_SCHEMA
    return PATH_VECTOR_SCHEMA


_ADD_KINDS = frozenset(("insert", "replace"))


class RuntimeMonitor:
    """Base monitor: keyed state mirror, dirty tracking, violation healing.

    Subclasses declare the predicates they watch, maintain any derived
    indexes via :meth:`_row_added` / :meth:`_row_removed`, and report the
    current violations of one node from :meth:`_violations_at`.
    """

    name = "monitor"
    #: history cap — campaigns keep the first occurrences, not every recheck
    max_recorded = 200

    def __init__(self) -> None:
        self.watched: tuple[str, ...] = ()
        self.violations: list[MonitorViolation] = []
        self.dropped = 0
        self.first_violation: Optional[MonitorViolation] = None
        self.finalized_at: Optional[float] = None
        self._engine: Optional["DistributedEngine"] = None
        #: node → predicate → primary key → row (mirror of monitored tables)
        self._mirror: dict[object, dict[str, dict[tuple, tuple]]] = {}
        self._key_getters: dict[str, object] = {}
        self._dirty: set = set()
        #: node → signature → violation currently believed to hold
        self._active: dict[object, dict[tuple, MonitorViolation]] = {}

    # -- hook protocol -----------------------------------------------------
    def attach(self, engine: "DistributedEngine") -> None:
        from ..ndlog.store import _make_key_getter  # storage's own key logic

        # weak: the engine holds its monitors, and a strong back-reference
        # would keep every dropped engine's tables alive until a full
        # cyclic collection (the engine calls finalize itself, so it is
        # alive whenever the monitor reads it)
        self._engine = weakref.proxy(engine)
        for predicate in self.watched:
            decl = engine.program.materialized.get(predicate)
            keys = tuple(k - 1 for k in decl.keys) if decl is not None else ()
            self._key_getters[predicate] = _make_key_getter(keys)

    def change_predicates(self) -> Optional[frozenset[str]]:
        """The predicates ``on_change`` acts on, so the engine can skip the
        call for every other one — ``None`` (all of them) for a subclass
        that replaces ``on_change``, like :class:`SoftStateBoundMonitor`."""

        if type(self).on_change is not RuntimeMonitor.on_change:
            return None
        return frozenset(self.watched)

    def on_change(
        self, time: float, node: object, predicate: str, values: tuple, kind: str
    ) -> None:
        if predicate not in self._key_getters:
            return
        rows = self._mirror.setdefault(node, {}).setdefault(predicate, {})
        key = self._key_getters[predicate](values)
        if kind in _ADD_KINDS:
            old = rows.get(key)
            rows[key] = values
            self._row_added(node, predicate, values, old)
        else:
            old = rows.pop(key, None)
            if old is None or old != tuple(values):
                # a removal the mirror never saw asserted (or of a row
                # already replaced under its key) changes nothing
                if old is not None:
                    rows[key] = old
                return
            self._row_removed(node, predicate, old)
        self._dirty.add(node)

    def on_settle(self, time: float, node: object) -> None:
        if node in self._dirty:
            self._dirty.discard(node)
            self._check_node(time, node)

    def finalize(self, time: float) -> None:
        nodes: Iterable[object]
        if self._engine is not None:
            nodes = list(self._engine.nodes)
        else:
            nodes = set(self._mirror) | set(self._active)
        for node in nodes:
            self._check_node(time, node)
        self._dirty.clear()
        self.finalized_at = time

    # -- violation bookkeeping ---------------------------------------------
    def _check_node(self, time: float, node: object) -> None:
        current = dict(self._violations_at(node))
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
        for signature in [s for s in active if s not in current]:
            del active[signature]
        if not active:
            self._active.pop(node, None)

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

    def mirror_rows(self, node: object, predicate: str) -> set[tuple]:
        """The mirrored rows of one predicate at one node (for validation)."""

        return set(self._mirror.get(node, {}).get(predicate, {}).values())

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
    def _row_added(
        self, node: object, predicate: str, row: tuple, old: Optional[tuple]
    ) -> None:
        pass

    def _row_removed(self, node: object, predicate: str, row: tuple) -> None:
        pass

    def _violations_at(self, node: object) -> Iterable[tuple[tuple, str]]:
        return ()


class RouteValidityMonitor(RuntimeMonitor):
    """Every selected best route is a currently-derived candidate route
    whose first hop is a live local link (``bestPathSound`` + ``pathHasLink``
    from :mod:`repro.fvn.properties`, checked at every settle point)."""

    name = "route_validity"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema
        self.watched = (
            schema.best_predicate,
            schema.path_predicate,
            schema.link_predicate,
        )
        #: node → projected candidate-row → count
        self._support: dict[object, dict[tuple, int]] = {}
        #: node → neighbour → live-link count
        self._neighbours: dict[object, dict[object, int]] = {}

    def _project(self, row: tuple) -> tuple:
        return tuple(row[p] for _, p in self.schema.best_to_path)

    def _row_added(self, node, predicate, row, old) -> None:
        if predicate == self.schema.path_predicate:
            support = self._support.setdefault(node, {})
            if old is not None:
                self._drop(support, self._project(old))
            projected = self._project(row)
            support[projected] = support.get(projected, 0) + 1
        elif predicate == self.schema.link_predicate:
            neighbours = self._neighbours.setdefault(node, {})
            if old is not None:
                self._drop(neighbours, old[1])
            neighbours[row[1]] = neighbours.get(row[1], 0) + 1

    def _row_removed(self, node, predicate, row) -> None:
        if predicate == self.schema.path_predicate:
            self._drop(self._support.get(node, {}), self._project(row))
        elif predicate == self.schema.link_predicate:
            self._drop(self._neighbours.get(node, {}), row[1])

    @staticmethod
    def _drop(counter: dict, key) -> None:
        remaining = counter.get(key, 0) - 1
        if remaining > 0:
            counter[key] = remaining
        else:
            counter.pop(key, None)

    def _violations_at(self, node):
        schema = self.schema
        best_rows = self._mirror.get(node, {}).get(schema.best_predicate, {})
        if not best_rows:
            return
        support = self._support.get(node, {})
        neighbours = self._neighbours.get(node, {})
        for row in best_rows.values():
            projected = tuple(row[b] for b, _ in schema.best_to_path)
            if support.get(projected, 0) == 0:
                yield (
                    ("unsupported", row),
                    f"{schema.best_predicate}{row} at {node} has no supporting "
                    f"{schema.path_predicate} row",
                )
            vector = row[schema.best_vector_position]
            if isinstance(vector, tuple) and len(vector) >= 2:
                first_hop = vector[1]
                if neighbours.get(first_hop, 0) == 0:
                    yield (
                        ("dead_first_hop", row),
                        f"{schema.best_predicate}{row} at {node} leaves over "
                        f"missing link to {first_hop!r}",
                    )


class BestAgreementMonitor(RuntimeMonitor):
    """The selected cost/rank is the minimum over the node's candidates and
    every candidate group has a selection (``bestPathStrong``/``Weak``)."""

    name = "best_agreement"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema
        self.watched = (schema.best_cost_predicate, schema.path_predicate)
        #: node → group → value → count over candidate rows
        self._candidates: dict[object, dict[tuple, dict[object, int]]] = {}

    def _group(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.schema.group_positions)

    def _row_added(self, node, predicate, row, old) -> None:
        if predicate != self.schema.path_predicate:
            return
        groups = self._candidates.setdefault(node, {})
        if old is not None:
            self._drop(groups, self._group(old), old[self.schema.path_value_position])
        values = groups.setdefault(self._group(row), {})
        value = row[self.schema.path_value_position]
        values[value] = values.get(value, 0) + 1

    def _row_removed(self, node, predicate, row) -> None:
        if predicate != self.schema.path_predicate:
            return
        self._drop(
            self._candidates.get(node, {}),
            self._group(row),
            row[self.schema.path_value_position],
        )

    @staticmethod
    def _drop(groups: dict, group: tuple, value) -> None:
        values = groups.get(group)
        if values is None:
            return
        remaining = values.get(value, 0) - 1
        if remaining > 0:
            values[value] = remaining
        else:
            values.pop(value, None)
        if not values:
            groups.pop(group, None)

    def _violations_at(self, node):
        schema = self.schema
        groups = self._candidates.get(node, {})
        best_rows = self._mirror.get(node, {}).get(schema.best_cost_predicate, {})
        selected: set[tuple] = set()
        for row in best_rows.values():
            group = self._group(row)
            selected.add(group)
            value = row[schema.best_cost_value_position]
            values = groups.get(group)
            if not values:
                yield (
                    ("no_candidates", row),
                    f"{schema.best_cost_predicate}{row} at {node} selects from an "
                    f"empty {schema.path_predicate} group",
                )
            else:
                minimum = min(values)
                if value != minimum:
                    yield (
                        ("not_minimal", row),
                        f"{schema.best_cost_predicate}{row} at {node} is not the "
                        f"minimum candidate value {minimum!r}",
                    )
        for group in groups:
            if group not in selected:
                yield (
                    ("missing_best", group),
                    f"candidate group {group!r} at {node} has no "
                    f"{schema.best_cost_predicate} selection",
                )


class CycleFreedomMonitor(RuntimeMonitor):
    """No stored path vector revisits a node (``pathCycleFree``)."""

    name = "cycle_freedom"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema
        self._positions = dict(schema.vector_positions)
        self.watched = tuple(self._positions)
        #: node → (predicate, key) with a cyclic vector
        self._cyclic: dict[object, dict[tuple, tuple]] = {}

    def _row_added(self, node, predicate, row, old) -> None:
        key = (predicate, self._key_getters[predicate](row))
        vector = row[self._positions[predicate]]
        cyclic = isinstance(vector, tuple) and len(set(vector)) != len(vector)
        per_node = self._cyclic.setdefault(node, {})
        if cyclic:
            per_node[key] = row
        else:
            per_node.pop(key, None)

    def _row_removed(self, node, predicate, row) -> None:
        self._cyclic.get(node, {}).pop(
            (predicate, self._key_getters[predicate](row)), None
        )

    def _violations_at(self, node):
        for (predicate, _key), row in self._cyclic.get(node, {}).items():
            yield (
                ("cycle", predicate, row),
                f"{predicate}{row} at {node} has a cyclic path vector",
            )


class SoftStateBoundMonitor(RuntimeMonitor):
    """No soft-state row outlives its lifetime by more than ``slack``.

    Reads deadlines through ``engine.soft_deadlines`` (they are storage
    bookkeeping the trace does not carry; a sharded engine asks the worker
    holding the node).  ``slack`` defaults to 1.5×
    the engine's expiry-scan interval: a row can legitimately linger up to
    one full scan interval past its expiry before the scan retracts it.
    """

    name = "soft_state_bounds"

    def __init__(self, slack: Optional[float] = None) -> None:
        super().__init__()
        self.slack = slack
        self._clock = 0.0

    def attach(self, engine) -> None:
        super().attach(engine)
        if self.slack is None:
            self.slack = engine.config.expiry_scan_interval * 1.5

    def on_change(self, time, node, predicate, values, kind) -> None:
        self._clock = time
        self._dirty.add(node)

    def _violations_at(self, node):
        if self._engine is None:
            return
        now = self.finalized_at if self.finalized_at is not None else self._clock
        bound = self.slack or 0.0
        for predicate, row, deadline in self._engine.soft_deadlines(node):
            if now > deadline + bound:
                yield (
                    ("overdue", predicate, row),
                    f"soft-state {predicate}{row} at {node} is "
                    f"{now - deadline:.3f}s past its lifetime",
                )

    def finalize(self, time: float) -> None:
        self.finalized_at = time
        nodes = list(self._engine.nodes) if self._engine is not None else []
        for node in nodes:
            self._check_node(time, node)
        self._dirty.clear()


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

    name = prop.name if isinstance(prop, PropertySpec) else prop
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
        name = prop.name if isinstance(prop, PropertySpec) else prop
        kind = PROPERTY_MONITORS.get(name)
        if kind is not None and kind not in kinds:
            kinds.append(kind)
    return [build_monitor(kind, schema) for kind in kinds]


#: Classification labels for campaign monitors (``docs/ANALYSIS.md``).
STATICALLY_PROVEN = "statically_proven"
RUNTIME_MONITORED = "runtime_monitored"


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


def classify_monitors(
    program: Program,
    kinds: Iterable[str],
    *,
    policy: Optional[str] = None,
) -> dict[str, str]:
    """``kind -> "statically_proven" | "runtime_monitored"`` for a campaign.

    Runs the static obligation discharge (:mod:`repro.ndlog.analysis.
    discharge`, imported lazily — it pulls in the prover and metarouting
    layers) and marks a monitor proven only when every property backing it
    proved and the policy's routing algebra discharged all obligations.
    """

    from ..ndlog.analysis.discharge import discharge_program

    report = discharge_program(program, policy=policy)
    proven = set(report.proven_monitors)
    return {
        kind: (STATICALLY_PROVEN if kind in proven else RUNTIME_MONITORED)
        for kind in kinds
    }


def posthoc_violations(
    engine: "DistributedEngine",
    kinds: Iterable[str] = MONITOR_KINDS,
    schema: Optional[MonitorSchema] = None,
) -> dict[str, list[MonitorViolation]]:
    """Check the engine's *final* state with fresh monitors.

    Feeds the ground-truth tables of every node into newly-built monitors
    and finalizes them — the classical post-hoc property check, running the
    identical invariant code the runtime monitors use.  Cross-validating a
    runtime monitor against this is how campaigns establish that incremental
    monitoring observed the same end state the stored tables hold.
    """

    if schema is None:
        schema = schema_for_program(engine.original_program)
    at = engine.scheduler.now
    out: dict[str, list[MonitorViolation]] = {}
    for kind in kinds:
        monitor = build_monitor(kind, schema)
        monitor.attach(engine)
        for node_id in engine.nodes:
            for predicate in monitor.watched:
                for row in engine.rows(predicate, node_id):
                    monitor.on_change(at, node_id, predicate, row, "insert")
        monitor.finalize(at)
        out[kind] = monitor.active_violations()
    return out
