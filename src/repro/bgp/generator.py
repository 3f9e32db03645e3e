"""Generating executable NDlog from the verified BGP specification (§3.2.2).

Two generators are provided:

* :func:`policy_path_vector_source` — the policy-annotated path-vector
  program the paper's reference [23] validates on a cluster: a path-vector
  protocol whose route preference is (local-preference, cost) and whose
  advertisements respect per-pair export-deny policies.  Policies arrive as
  ``importPref(@U, W, Pref)`` and ``exportDeny(@W, U, Dest)`` relations
  produced from a :class:`~repro.bgp.policy.PolicyTable`.
* :func:`bgp_component_program` — the direct component translation of
  Figure 2 via :func:`repro.fvn.logic_to_ndlog.composite_to_program`, used to
  demonstrate arc 3 on the conceptual model itself (experiment F2).

The generated source is plain NDlog text so it can be shown, parsed, stored,
verified (arc 4), and executed (arc 7) exactly like a hand-written program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..ndlog.ast import Program
from ..ndlog.parser import parse_program
from .policy import NodeId, PolicyTable

if TYPE_CHECKING:
    from ..fvn.logic_to_ndlog import SchemaAnnotation


#: The policy path-vector program.  Path preference is lexicographic
#: (local preference of the first hop, then cost): the aggregate selects the
#: minimal encoded preference value Pref*MAX_COST+Cost, mirroring the
#: ``lexProduct[LP, RC]`` composition of Section 3.3.
POLICY_PATH_VECTOR_TEMPLATE = """
/* policy-annotated path-vector protocol generated by FVN (arc 3) */
materialize(link, infinity, infinity, keys(1,2)).
materialize(importPref, infinity, infinity, keys(1,2)).
materialize(exportDeny, infinity, infinity, keys(1,2,3)).
materialize(route, infinity, infinity, keys(1,2,3)).
materialize(bestRouteRank, infinity, infinity, keys(1,2)).
materialize(bestRoute, infinity, infinity, keys(1,2)).

pv1 route(@S,D,P,C,Pref,R) :- link(@S,D,C), importPref(@S,D,Pref),
                              P=f_init(S,D), R=Pref*{max_cost}+C.
pv2 route(@S,D,P,C,Pref,R) :- link(@S,Z,C1), advertise(@S,Z,D,P2,C2),
                              importPref(@S,Z,Pref),
                              C=C1+C2, P=f_concatPath(S,P2),
                              f_inPath(P2,S)=false, R=Pref*{max_cost}+C.
pv3 bestRouteRank(@S,D,min<R>) :- route(@S,D,P,C,Pref,R).
pv4 bestRoute(@S,D,P,C,R) :- bestRouteRank(@S,D,R), route(@S,D,P,C,Pref,R).
pv5 advertise(@N,S,D,P,C) :- bestRoute(@S,D,P,C,R), link(@S,N,C1),
                             f_inPath(P,N)=false,
                             !exportDeny(@S,N,D).
"""


def policy_path_vector_source(*, max_cost: int = 1024) -> str:
    """The NDlog source text of the policy path-vector protocol."""

    return POLICY_PATH_VECTOR_TEMPLATE.format(max_cost=max_cost)


def policy_path_vector_program(*, max_cost: int = 1024) -> Program:
    """The parsed policy path-vector program."""

    return parse_program(policy_path_vector_source(max_cost=max_cost), "policy_pathvector")


def policy_facts(
    policies: PolicyTable, nodes: Iterable[NodeId]
) -> list[tuple[str, tuple]]:
    """The ``importPref`` / ``exportDeny`` facts realizing a policy table.

    Local preferences follow the paper's LP convention (lower rank value is
    more preferred), so the standard BGP "higher local-pref wins" values from
    :class:`PolicyTable` are inverted here.
    """

    node_list = list(nodes)
    facts: list[tuple[str, tuple]] = []
    prefs = policies.import_pref_facts(node_list)
    max_pref = max((p for _, _, p in prefs), default=0)
    for local, neighbour, pref in prefs:
        rank = max_pref - pref  # invert: higher local-pref => lower rank
        facts.append(("importPref", (local, neighbour, rank)))
    for local, neighbour, destination in policies.export_deny_facts(node_list):
        facts.append(("exportDeny", (local, neighbour, destination)))
    return facts


def bgp_component_program(
    policies: Optional[PolicyTable] = None,
    *,
    schema: Optional[SchemaAnnotation] = None,
) -> Program:
    """The NDlog program generated directly from the Figure 2 component model.

    The location annotation places every relation at the receiving AS ``U``
    (attribute ``U`` of each port), matching the paper's remark that schema
    information drives the location-specifier assignment.
    """

    # the component model and the arc-3 translation pull in the logic
    # substrate, which the policy program the engine runs never needs
    from ..fvn.logic_to_ndlog import SchemaAnnotation, composite_to_program
    from .model import bgp_model

    policies = policies or PolicyTable()
    composite = bgp_model(policies)
    if schema is None:
        schema = SchemaAnnotation(default_attribute=None)
    return composite_to_program(composite, schema=schema, program_name="bgp_components")
