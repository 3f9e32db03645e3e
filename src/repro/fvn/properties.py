"""Property (invariant) constructors for FVN verification.

The FVN workflow has the designer write the protocol's desired properties as
logical statements (arc 1 of Figure 1) and prove them against the generated
specification.  This module provides constructors for the properties the
paper and its companion reports exercise, parameterized by predicate names so
they apply to any program using the standard path-vector/distance-vector
schema:

* :func:`route_optimality` — the paper's ``bestPathStrong`` theorem;
* :func:`route_optimality_weak` — the non-strict variant (no strictly better
  path exists);
* :func:`best_path_is_path` — the selected best route is a real route;
* :func:`path_implies_link` — one-hop soundness: every derived path starts
  with a link the source actually has;
* :func:`cycle_freedom` — derived path vectors never repeat their source;
* :func:`reachability_soundness` — a derived path implies graph reachability.

Each :class:`PropertySpec` carries the formula, an interactive proof script
(the PVS-style step list the paper counts — ``bestPathStrong`` takes 7
steps), and hints for the automated strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..logic.formulas import Formula, atom, conj, exists, forall, implies, le, lt, neg, neq
from ..terms import Var, func


@dataclass
class PropertySpec:
    """A named property with its proof script and automation hints."""

    name: str
    statement: Formula
    script: tuple = ()
    auto_expand: Optional[tuple[str, ...]] = None
    doc: str = ""
    #: Does the paper (or its companion reports) expect this property to hold?
    expected_valid: bool = True

    @property
    def interactive_steps(self) -> int:
        return len(self.script)


def route_optimality(
    *,
    best_predicate: str = "bestPath",
    cost_predicate: str = "bestPathCost",
    path_predicate: str = "path",
    name: str = "bestPathStrong",
) -> PropertySpec:
    """The paper's ``bestPathStrong`` theorem (Section 3.1).

    ``bestPath(S,D,P,C)`` implies no path from S to D is strictly cheaper
    than C.  The interactive script mirrors the 7-step PVS proof: introduce
    the skolem constants and flatten, expand the ``bestPath`` definition,
    flatten the conjunction, instantiate the aggregate lower-bound axiom at
    the skolemized group, split the resulting implication, and close the two
    branches with the decision procedures.
    """

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    C2, P2 = Var("C2"), Var("P2")
    statement = forall(
        (S, D, C, P),
        implies(
            atom(best_predicate, S, D, P, C),
            neg(exists((C2, P2), conj(atom(path_predicate, S, D, P2, C2), lt(C2, C)))),
        ),
    )
    # The 7-step interactive proof (mirroring the PVS script the paper counts):
    # skolemize+flatten, expand the bestPath definition, flatten the resulting
    # conjunction, instantiate the min-aggregate lower-bound axiom at the
    # skolem constants, split the instantiated implication, and close the two
    # branches with the decision procedures.
    script = (
        ("skosimp",),
        ("expand", {"name": best_predicate}),
        ("flatten",),
        ("inst", {"terms": (S, D, C, C2, P2)}),
        ("split",),
        ("assert",),
        ("assert",),
    )
    return PropertySpec(
        name=name,
        statement=statement,
        script=script,
        auto_expand=(best_predicate,),
        doc="Route optimality: the selected best path has minimal cost.",
    )


def route_optimality_weak(
    *,
    best_predicate: str = "bestPath",
    path_predicate: str = "path",
    name: str = "bestPathWeak",
) -> PropertySpec:
    """Weak optimality: every other path costs at least as much."""

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    C2, P2 = Var("C2"), Var("P2")
    statement = forall(
        (S, D, C, P, C2, P2),
        implies(
            conj(atom(best_predicate, S, D, P, C), atom(path_predicate, S, D, P2, C2)),
            le(C, C2),
        ),
    )
    return PropertySpec(
        name=name,
        statement=statement,
        script=(
            ("skosimp",),
            ("expand", {"name": best_predicate}),
            ("flatten",),
            ("inst", {"terms": (S, D, C, C2, P2)}),
            ("split",),
            ("assert",),
            ("assert",),
        ),
        auto_expand=(best_predicate,),
        doc="Weak route optimality: no other path is cheaper.",
    )


def best_path_is_path(
    *,
    best_predicate: str = "bestPath",
    path_predicate: str = "path",
    name: str = "bestPathSound",
) -> PropertySpec:
    """The selected best route is one of the derived routes."""

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    statement = forall(
        (S, D, P, C),
        implies(atom(best_predicate, S, D, P, C), atom(path_predicate, S, D, P, C)),
    )
    return PropertySpec(
        name=name,
        statement=statement,
        script=(("skosimp",), ("expand", {"name": best_predicate}), ("skosimp",)),
        auto_expand=(best_predicate,),
        doc="Soundness: every selected best path is a derived path.",
    )


def path_implies_link(
    *,
    path_predicate: str = "path",
    link_predicate: str = "link",
    name: str = "pathHasLink",
) -> PropertySpec:
    """Every derived path leaves its source over an existing link.

    Proven by induction over the derivation of ``path`` (both clauses of the
    inductive definition start with a ``link`` literal at the source).
    """

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    Z, CL = Var("Z"), Var("CL")
    statement = forall(
        (S, D, P, C),
        implies(
            atom(path_predicate, S, D, P, C),
            exists((Z, CL), atom(link_predicate, S, Z, CL)),
        ),
    )
    return PropertySpec(
        name=name,
        statement=statement,
        script=(("induct", {"predicate": path_predicate}),),
        auto_expand=(),
        doc="One-hop soundness: a path exists only if its source has a link.",
    )


def cycle_freedom(
    *,
    path_predicate: str = "path",
    name: str = "pathCycleFree",
) -> PropertySpec:
    """Derived path vectors never revisit their own source.

    Stated via the ``f_inPath`` helper: for every derived ``path(S,D,P,C)``
    the tail of ``P`` (the concatenated sub-path) does not contain ``S``.
    Proven by induction: the base clause builds a two-node path and the
    recursive clause explicitly checks ``f_inPath(P2,S)=false``.
    """

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    statement = forall(
        (S, D, P, C),
        implies(
            atom(path_predicate, S, D, P, C),
            neq(func("f_inPath", func("f_removeFirst", P), S), True),
        ),
    )
    return PropertySpec(
        name=name,
        statement=statement,
        script=(("induct", {"predicate": path_predicate}),),
        auto_expand=(),
        doc="Loop freedom of derived path vectors.",
        expected_valid=True,
    )


def reachability_soundness(
    *,
    path_predicate: str = "path",
    reachable_predicate: str = "reachable",
    name: str = "pathImpliesReachable",
) -> PropertySpec:
    """A derived path implies graph reachability (paths are not invented)."""

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    statement = forall(
        (S, D, P, C),
        implies(atom(path_predicate, S, D, P, C), atom(reachable_predicate, S, D)),
    )
    return PropertySpec(
        name=name,
        statement=statement,
        script=(("induct", {"predicate": path_predicate}),),
        doc="A derived path implies reachability in the link graph.",
    )


def standard_property_suite(
    *,
    best_predicate: str = "bestPath",
    cost_predicate: str = "bestPathCost",
    path_predicate: str = "path",
    link_predicate: str = "link",
) -> list[PropertySpec]:
    """The default property corpus used by E1/E6: optimality (strong and
    weak), soundness of selection, and one-hop soundness."""

    return [
        route_optimality(
            best_predicate=best_predicate,
            cost_predicate=cost_predicate,
            path_predicate=path_predicate,
        ),
        route_optimality_weak(
            best_predicate=best_predicate, path_predicate=path_predicate
        ),
        best_path_is_path(best_predicate=best_predicate, path_predicate=path_predicate),
        path_implies_link(path_predicate=path_predicate, link_predicate=link_predicate),
    ]
