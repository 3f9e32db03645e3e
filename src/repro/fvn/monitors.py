"""Runtime invariant monitors: FVN properties checked *during* execution.

The FVN workflow proves properties of the generated specification offline
(arcs 4–5 of Figure 1) and, in this reproduction, re-checks them post-hoc on
final execution states.  This module closes the remaining gap: the same
safety properties evaluated **incrementally while the protocol runs**, so a
campaign over thousands of seeded executions can report *when* an invariant
first broke instead of only *whether* the final state satisfies it.

Monitors implement the :class:`repro.dn.engine.EngineMonitor` hook protocol
and keep no copy of the state they check: each check reads the node's own
tables (``engine.nodes[node].rows(predicate)``, the same call on a
single-process :class:`~repro.dn.node.Node` and on a sharded coordinator's
row view).

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


class RuntimeMonitor:
    """Base monitor: checks at settles and at the end, violation healing.

    Subclasses report the current violations of one node from
    :meth:`_violations_at`, reading the node's tables through
    :meth:`_rows`.
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

    # -- hook protocol -----------------------------------------------------
    def attach(self, engine: "DistributedEngine") -> None:
        # weak: the engine holds its monitors, and a strong back-reference
        # would keep every dropped engine's tables alive until a full
        # cyclic collection (the engine calls finalize itself, so it is
        # alive whenever the monitor reads it)
        self._engine = weakref.proxy(engine)

    def on_settle(self, time: float, node: object) -> None:
        self._check_node(time, node)

    def finalize(self, time: float) -> None:
        self.finalized_at = time
        for node in self._engine.nodes:
            self._check_node(time, node)

    # -- violation bookkeeping ---------------------------------------------
    def _check_node(self, time: float, node: object) -> None:
        current = dict(self._violations_at(node, time))
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

    def _violations_at(self, node: object, time: float) -> Iterable[tuple[tuple, str]]:
        return ()


class RouteValidityMonitor(RuntimeMonitor):
    """Every selected best route is a currently-derived candidate route
    whose first hop is a live local link (``bestPathSound`` + ``pathHasLink``
    from :mod:`repro.fvn.properties`, checked at every settle point)."""

    name = "route_validity"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema

    def _violations_at(self, node, time):
        schema = self.schema
        best_rows = self._rows(node, schema.best_predicate)
        if not best_rows:
            return
        support = {
            tuple(row[p] for _, p in schema.best_to_path)
            for row in self._rows(node, schema.path_predicate)
        }
        neighbours = {row[1] for row in self._rows(node, schema.link_predicate)}
        for row in best_rows:
            projected = tuple(row[b] for b, _ in schema.best_to_path)
            if projected not in support:
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


class BestAgreementMonitor(RuntimeMonitor):
    """The selected cost/rank is the minimum over the node's candidates and
    every candidate group has a selection (``bestPathStrong``/``Weak``)."""

    name = "best_agreement"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema

    def _violations_at(self, node, time):
        schema = self.schema
        groups = schema.group_positions
        value_at = schema.path_value_position
        #: candidate group → its minimum value
        minima: dict[tuple, object] = {}
        for row in self._rows(node, schema.path_predicate):
            group = tuple(row[p] for p in groups)
            value = row[value_at]
            if group not in minima or value < minima[group]:
                minima[group] = value
        selected: set[tuple] = set()
        for row in self._rows(node, schema.best_cost_predicate):
            group = tuple(row[p] for p in groups)
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
    """No stored path vector revisits a node (``pathCycleFree``)."""

    name = "cycle_freedom"

    def __init__(self, schema: MonitorSchema = PATH_VECTOR_SCHEMA) -> None:
        super().__init__()
        self.schema = schema

    def _violations_at(self, node, time):
        for predicate, position in self.schema.vector_positions:
            for row in self._rows(node, predicate):
                vector = row[position]
                if isinstance(vector, tuple) and len(set(vector)) != len(vector):
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

    def _violations_at(self, node, time):
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
