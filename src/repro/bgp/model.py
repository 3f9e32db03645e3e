"""The component-based BGP model of the paper's Figure 2.

BGP is decomposed into a series of route transformations:

* ``activeAS(U, W, T)`` — at time ``T`` AS ``W`` advertises to neighbour ``U``;
* ``pt(U, W, R0, R3, T)`` — the peer transformation, itself composed of
  ``export`` (W applies its export filter to R0 giving R1), ``pvt`` (the
  path-vector propagation carrying R1 from W to U as R2), and ``import``
  (U applies its import policy turning R2 into R3);
* ``bestRoute(U, T, R3)`` — U selects its best route among advertisements.

The model is built on :mod:`repro.fvn.components`, giving it simultaneously

* a logical specification (inductive definitions, via ``CompositeComponent.theory``),
* an executable form (each component carries a ``transform`` applying the
  supplied :class:`~repro.protocols.policy.PolicyTable`), and
* an NDlog translation (via :func:`repro.fvn.logic_to_ndlog.composite_to_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..fvn.components import Component, ComponentConstraint, CompositeComponent, Port
from ..logic.formulas import conj, eq
from ..protocols.policy import NodeId, PolicyTable, Route, best_route
from ..terms import Var, func


#: Port attribute layout of a route travelling through the pipeline:
#: (receiver U, sender W, destination, as_path, local_pref, cost, time).
ROUTE_ATTRS = ("U", "W", "Dest", "Path", "Pref", "Cost", "T")


def _route_from_port(values: Sequence) -> tuple[NodeId, NodeId, Route, object]:
    u, w, dest, path, pref, cost, t = values
    return u, w, Route(dest, tuple(path), int(pref), float(cost)), t


def _route_to_port(u: NodeId, w: NodeId, route: Route, t: object) -> tuple:
    return (u, w, route.destination, route.as_path, route.local_pref, route.cost, t)


def policy_registry(policies: PolicyTable) -> dict[str, object]:
    """Interpreted functions realizing a policy table for NDlog evaluation.

    The generated component program's constraints call ``f_exportAllow``,
    ``f_exportPref``, ``f_importAllow``, and ``f_importPref``; these wrappers
    give them the same semantics as the Python :class:`PolicyTable`, so the
    generated NDlog program and the component pipeline can be compared
    tuple-for-tuple.
    """

    def f_export_allow(w, u, dest, path):
        route = Route(dest, tuple(path))
        return policies.apply_export(w, u, route) is not None

    def f_export_pref(w, u, dest, pref):
        route = Route(dest, (w,), local_pref=int(pref))
        exported = policies.apply_export(w, u, route)
        return exported.local_pref if exported is not None else int(pref)

    def f_import_allow(u, w, path):
        route = Route(path[-1] if path else u, tuple(path))
        return policies.apply_import(u, w, route) is not None

    def f_import_pref(u, w, dest, pref):
        route = Route(dest, (w,), local_pref=int(pref))
        imported = policies.apply_import(u, w, route)
        return imported.local_pref if imported is not None else int(pref)

    return {
        "f_exportAllow": f_export_allow,
        "f_exportPref": f_export_pref,
        "f_importAllow": f_import_allow,
        "f_importPref": f_import_pref,
    }


def export_component(policies: PolicyTable) -> Component:
    """``export(U,W,R0,R1,T)``: W filters/transforms R0 before advertising to U."""

    def transform(r0: tuple) -> Optional[dict[str, tuple]]:
        u, w, route, t = _route_from_port(r0)
        exported = policies.apply_export(w, u, route)
        if exported is None:
            return None
        return {"r1": _route_to_port(u, w, exported, t)}

    in_vars = tuple(Var(f"R0_{a}") for a in ROUTE_ATTRS)
    out_vars = tuple(Var(f"R1_{a}") for a in ROUTE_ATTRS)
    constraint = ComponentConstraint(
        conj(
            eq(func("f_exportAllow", in_vars[1], in_vars[0], in_vars[2], in_vars[3]), True),
            eq(out_vars[0], in_vars[0]),
            eq(out_vars[1], in_vars[1]),
            eq(out_vars[2], in_vars[2]),
            eq(out_vars[3], in_vars[3]),
            eq(out_vars[4], func("f_exportPref", in_vars[1], in_vars[0], in_vars[2], in_vars[4])),
            eq(out_vars[5], in_vars[5]),
            eq(out_vars[6], in_vars[6]),
        ),
        description="R1 is R0 after W's export policy towards U",
    )
    return Component(
        name="export",
        inputs=(Port("r0", tuple(f"R0_{a}" for a in ROUTE_ATTRS)),),
        outputs=(Port("r1", tuple(f"R1_{a}" for a in ROUTE_ATTRS)),),
        constraints=(constraint,),
        transform=transform,
        doc="Export policy application at the advertising AS.",
    )


def pvt_component() -> Component:
    """``pvt(U,W,R1,R2,T)``: path-vector transport of the exported route from
    W to U.  The advertised path already names W (it is W's installed path),
    so transport leaves the route unchanged; the receiver's own AS is
    prepended by the ``import`` component."""

    def transform(r1: tuple) -> dict[str, tuple]:
        u, w, route, t = _route_from_port(r1)
        return {"r2": _route_to_port(u, w, route, t)}

    in_vars = tuple(Var(f"R1_{a}") for a in ROUTE_ATTRS)
    out_vars = tuple(Var(f"R2_{a}") for a in ROUTE_ATTRS)
    constraint = ComponentConstraint(
        conj(*(eq(out_vars[i], in_vars[i]) for i in range(len(ROUTE_ATTRS)))),
        description="R2 is R1 carried from W to U by the path-vector protocol",
    )
    return Component(
        name="pvt",
        inputs=(Port("r1", tuple(f"R1_{a}" for a in ROUTE_ATTRS)),),
        outputs=(Port("r2", tuple(f"R2_{a}" for a in ROUTE_ATTRS)),),
        constraints=(constraint,),
        transform=transform,
        doc="Path-vector propagation between neighbouring ASes.",
    )


def import_component(policies: PolicyTable) -> Component:
    """``import(U,W,R2,R3,T)``: U applies its import policy to the received
    route, prepends itself to the AS path, and accounts the link cost."""

    def transform(r2: tuple) -> Optional[dict[str, tuple]]:
        u, w, route, t = _route_from_port(r2)
        imported = policies.apply_import(u, w, route)
        if imported is None:
            return None
        return {"r3": _route_to_port(u, w, imported.prepend(u), t)}

    in_vars = tuple(Var(f"R2_{a}") for a in ROUTE_ATTRS)
    out_vars = tuple(Var(f"R3_{a}") for a in ROUTE_ATTRS)
    constraint = ComponentConstraint(
        conj(
            eq(func("f_importAllow", in_vars[0], in_vars[1], in_vars[3]), True),
            eq(out_vars[0], in_vars[0]),
            eq(out_vars[1], in_vars[1]),
            eq(out_vars[2], in_vars[2]),
            eq(out_vars[3], func("f_concatPath", in_vars[0], in_vars[3])),
            eq(out_vars[4], func("f_importPref", in_vars[0], in_vars[1], in_vars[2], in_vars[4])),
            eq(out_vars[5], func("+", in_vars[5], 1)),
            eq(out_vars[6], in_vars[6]),
        ),
        description="R3 is R2 after U's import policy from W",
    )
    return Component(
        name="import_",
        inputs=(Port("r2", tuple(f"R2_{a}" for a in ROUTE_ATTRS)),),
        outputs=(Port("r3", tuple(f"R3_{a}" for a in ROUTE_ATTRS)),),
        constraints=(constraint,),
        transform=transform,
        doc="Import policy application at the receiving AS.",
    )


def best_route_component() -> Component:
    """``bestRoute(U,T,R3)``: U selects its best route among advertisements."""

    def transform(r3: tuple) -> dict[str, tuple]:
        u, w, route, t = _route_from_port(r3)
        return {"best": (u, route.destination, route.as_path, route.local_pref, route.cost, t)}

    in_vars = tuple(Var(f"R3_{a}") for a in ROUTE_ATTRS)
    out_attrs = ("U", "Dest", "Path", "Pref", "Cost", "T")
    out_vars = tuple(Var(f"B_{a}") for a in out_attrs)
    constraint = ComponentConstraint(
        conj(
            eq(out_vars[0], in_vars[0]),
            eq(out_vars[1], in_vars[2]),
            eq(out_vars[2], in_vars[3]),
            eq(out_vars[3], in_vars[4]),
            eq(out_vars[4], in_vars[5]),
            eq(out_vars[5], in_vars[6]),
        ),
        description="the selected route is drawn from the imported advertisements",
    )
    return Component(
        name="bestRoute",
        inputs=(Port("r3", tuple(f"R3_{a}" for a in ROUTE_ATTRS)),),
        outputs=(Port("best", tuple(f"B_{a}" for a in out_attrs)),),
        constraints=(constraint,),
        transform=transform,
        doc="Best-route selection at the receiving AS.",
    )


def peer_transformation(policies: PolicyTable) -> CompositeComponent:
    """The ``pt`` composite: export → pvt → import (paper Figure 2)."""

    pt = CompositeComponent("pt", doc="Peer transformation: export, propagate, import.")
    pt.add(export_component(policies))
    pt.add(pvt_component())
    pt.add(import_component(policies))
    pt.connect("export", "r1", "pvt", "r1")
    pt.connect("pvt", "r2", "import_", "r2")
    return pt


def bgp_model(policies: PolicyTable) -> CompositeComponent:
    """The full BGP decomposition: export → pvt → import → bestRoute."""

    model = CompositeComponent(
        "bgp",
        doc="Component-based BGP model: a route advertisement flows through "
        "export, path-vector propagation, import, and best-route selection.",
    )
    model.add(export_component(policies))
    model.add(pvt_component())
    model.add(import_component(policies))
    model.add(best_route_component())
    model.connect("export", "r1", "pvt", "r1")
    model.connect("pvt", "r2", "import_", "r2")
    model.connect("import_", "r3", "bestRoute", "r3")
    return model


@dataclass
class BGPIterationResult:
    """One synchronous iteration of the component model over a topology."""

    advertisements: int
    selections: dict[NodeId, Route]
    changed: bool


class ComponentBGPSimulator:
    """Runs the Figure 2 component pipeline iteratively over a topology.

    Each iteration, every AS advertises its current best route to every
    neighbour through the export→pvt→import pipeline; receivers then select
    their best route among everything they heard plus their retained route.
    Iteration to a fixpoint reproduces BGP's synchronous dynamics on top of
    the *component* model (as opposed to the SPVP abstraction), and is the
    oracle the generated NDlog program is compared against.
    """

    def __init__(
        self,
        policies: PolicyTable,
        edges: Iterable[tuple[NodeId, NodeId]],
        origin: NodeId,
    ) -> None:
        self.policies = policies
        self.origin = origin
        self.neighbours: dict[NodeId, set[NodeId]] = {}
        for a, b in edges:
            self.neighbours.setdefault(a, set()).add(b)
            self.neighbours.setdefault(b, set()).add(a)
        self.pipeline = bgp_model(policies)
        self.selected: dict[NodeId, Route] = {
            origin: Route(destination=origin, as_path=(origin,), cost=0.0)
        }

    def iterate(self, time_index: int = 0) -> BGPIterationResult:
        """One synchronous advertisement round."""

        received: dict[NodeId, list[Route]] = {}
        advertisements = 0
        for w, route in list(self.selected.items()):
            for u in self.neighbours.get(w, ()):
                r0 = _route_to_port(u, w, route, time_index)
                outputs = self.pipeline.run(r0=r0)
                advertisements += 1
                best_out = outputs.get("bestRoute.best")
                if best_out is None:
                    continue
                dest, path, pref, cost = best_out[1], tuple(best_out[2]), int(best_out[3]), float(best_out[4])
                received.setdefault(u, []).append(Route(dest, path, pref, cost))
        changed = False
        for u in list(self.neighbours):
            if u == self.origin:
                continue
            candidates = received.get(u, [])
            retained = self.selected.get(u)
            # BGP has withdrawal semantics: a node's selection must be backed
            # by an advertisement it heard this round (no stale retention) —
            # this is what lets Disagree oscillate under synchronous rounds.
            chosen = best_route(candidates)
            if chosen != retained:
                if chosen is None:
                    self.selected.pop(u, None)
                else:
                    self.selected[u] = chosen
                changed = True
        return BGPIterationResult(advertisements, dict(self.selected), changed)

    def run_to_fixpoint(self, *, max_rounds: int = 50) -> tuple[int, bool]:
        """Iterate until selections stop changing; returns (rounds, converged)."""

        for round_index in range(1, max_rounds + 1):
            result = self.iterate(round_index)
            if not result.changed:
                return round_index, True
        return max_rounds, False
