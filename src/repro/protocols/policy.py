"""The policy path-vector protocol: BGP route attributes, import/export
policies, and the NDlog program that executes them.

Routes are value objects carrying the attributes the component model and the
generated NDlog programs manipulate: destination, AS path, local preference,
and path cost.  Policies are per-(node, neighbour) rules with match
conditions and actions (deny, set local preference, prepend), applied on
export (before advertising to a neighbour) and on import (after receiving
from a neighbour) — exactly the ``export`` / ``import`` sub-components of the
paper's Figure 2 decomposition (:mod:`repro.bgp.model`).

:func:`policy_path_vector_source` is the policy-annotated path-vector
program the paper's reference [23] validates on a cluster: a path-vector
protocol whose route preference is (local-preference, cost) and whose
advertisements respect per-pair export-deny policies.  Policies arrive as
``importPref(@U, W, Pref)`` and ``exportDeny(@W, U, Dest)`` relations that
:func:`policy_facts` produces from a :class:`PolicyTable`.  The engine,
the campaign harness and the serving daemon run this program; the
verification arc (:mod:`repro.bgp`) models and reasons about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Hashable, Iterable, Optional

if TYPE_CHECKING:  # an annotation only: a scenario's policy facts load no NDlog
    from ..ndlog.ast import Program


NodeId = Hashable

#: Default local preference (BGP convention: higher is better; the paper's
#: LP algebra uses lower-is-better ranks — conversion happens at the algebra
#: boundary, not here).
DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True)
class Route:
    """A BGP route announcement."""

    destination: NodeId
    as_path: tuple[NodeId, ...]
    local_pref: int = DEFAULT_LOCAL_PREF
    cost: float = 0.0

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    @property
    def next_hop(self) -> Optional[NodeId]:
        return self.as_path[0] if self.as_path else None

    def contains(self, node: NodeId) -> bool:
        return node in self.as_path

    def prepend(self, node: NodeId, link_cost: float = 1.0) -> "Route":
        """The route as seen after ``node`` adopts it over a link of the
        given cost."""

        return Route(
            destination=self.destination,
            as_path=(node,) + self.as_path,
            local_pref=self.local_pref,
            cost=self.cost + link_cost,
        )

    def as_tuple(self) -> tuple:
        """Flat representation used by NDlog facts and component ports."""

        return (self.destination, self.as_path, self.local_pref, self.cost)


def prefer_route(a: Route, b: Route) -> Route:
    """BGP decision process (restricted to the attributes we model):
    higher local preference wins, then shorter AS path, then lower cost,
    then lowest next hop as the deterministic tie-break."""

    key_a = (-a.local_pref, a.path_length, a.cost, str(a.next_hop))
    key_b = (-b.local_pref, b.path_length, b.cost, str(b.next_hop))
    return a if key_a <= key_b else b


def best_route(routes: Iterable[Route]) -> Optional[Route]:
    """The best of a set of routes under :func:`prefer_route`."""

    best: Optional[Route] = None
    for route in routes:
        best = route if best is None else prefer_route(best, route)
    return best


@dataclass(frozen=True)
class PolicyRule:
    """One policy rule: an optional match plus an action.

    ``match_destination`` / ``match_transit`` restrict the rule to routes to
    a given destination or passing through a given AS.  The action either
    denies the route or rewrites its local preference (optionally also
    prepending the local AS additional times).
    """

    action: str  # "deny" | "allow" | "set_local_pref"
    match_destination: Optional[NodeId] = None
    match_transit: Optional[NodeId] = None
    local_pref: Optional[int] = None
    prepend_count: int = 0

    def matches(self, route: Route) -> bool:
        if self.match_destination is not None and route.destination != self.match_destination:
            return False
        if self.match_transit is not None and not route.contains(self.match_transit):
            return False
        return True

    def apply(self, route: Route, owner: NodeId) -> Optional[Route]:
        if not self.matches(route):
            return route
        if self.action == "deny":
            return None
        updated = route
        if self.action == "set_local_pref" and self.local_pref is not None:
            updated = replace(updated, local_pref=self.local_pref)
        for _ in range(self.prepend_count):
            updated = replace(updated, as_path=(owner,) + updated.as_path)
        return updated


@dataclass
class PolicyTable:
    """Import and export policies per (local AS, neighbour AS) pair."""

    export_rules: dict[tuple[NodeId, NodeId], tuple[PolicyRule, ...]] = field(default_factory=dict)
    import_rules: dict[tuple[NodeId, NodeId], tuple[PolicyRule, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_export(self, local: NodeId, neighbour: NodeId, *rules: PolicyRule) -> None:
        existing = self.export_rules.get((local, neighbour), ())
        self.export_rules[(local, neighbour)] = existing + tuple(rules)

    def add_import(self, local: NodeId, neighbour: NodeId, *rules: PolicyRule) -> None:
        existing = self.import_rules.get((local, neighbour), ())
        self.import_rules[(local, neighbour)] = existing + tuple(rules)

    # ------------------------------------------------------------------
    # Application (the export / import components of Figure 2)
    # ------------------------------------------------------------------
    def apply_export(self, local: NodeId, neighbour: NodeId, route: Route) -> Optional[Route]:
        """Apply export policy at ``local`` for advertisement to ``neighbour``."""

        if route.contains(neighbour):
            return None  # never advertise a route back through the receiver
        current: Optional[Route] = route
        for rule in self.export_rules.get((local, neighbour), ()):
            if current is None:
                return None
            current = rule.apply(current, local)
        return current

    def apply_import(self, local: NodeId, neighbour: NodeId, route: Route) -> Optional[Route]:
        """Apply import policy at ``local`` for a route received from ``neighbour``."""

        if route.contains(local):
            return None  # loop prevention
        current: Optional[Route] = route
        for rule in self.import_rules.get((local, neighbour), ()):
            if current is None:
                return None
            current = rule.apply(current, local)
        return current

    # ------------------------------------------------------------------
    # NDlog fact export (used by the generated policy path-vector program)
    # ------------------------------------------------------------------
    def import_pref_facts(
        self, nodes: Iterable[NodeId], *, default: int = DEFAULT_LOCAL_PREF
    ) -> list[tuple[NodeId, NodeId, int]]:
        """``importPref(@Local, Neighbour, Pref)`` facts for every node pair,
        reflecting any ``set_local_pref`` import rules (default otherwise)."""

        facts: list[tuple[NodeId, NodeId, int]] = []
        node_list = list(nodes)
        for local in node_list:
            for neighbour in node_list:
                if local == neighbour:
                    continue
                pref = default
                for rule in self.import_rules.get((local, neighbour), ()):
                    if rule.action == "set_local_pref" and rule.local_pref is not None:
                        pref = rule.local_pref
                facts.append((local, neighbour, pref))
        return facts

    def export_deny_facts(self, nodes: Iterable[NodeId]) -> list[tuple[NodeId, NodeId, NodeId]]:
        """``exportDeny(@Local, Neighbour, Destination)`` facts for destination-
        specific deny rules (wildcard denies expand over all nodes)."""

        facts: list[tuple[NodeId, NodeId, NodeId]] = []
        node_list = list(nodes)
        for (local, neighbour), rules in self.export_rules.items():
            for rule in rules:
                if rule.action != "deny":
                    continue
                destinations = (
                    [rule.match_destination]
                    if rule.match_destination is not None
                    else node_list
                )
                for destination in destinations:
                    facts.append((local, neighbour, destination))
        return facts


# ---------------------------------------------------------------------------
# Canonical policy configurations
# ---------------------------------------------------------------------------

def disagree_policies(origin: NodeId = 0, a: NodeId = 1, b: NodeId = 2) -> PolicyTable:
    """Import policies realizing the Disagree gadget: each of ``a`` and ``b``
    prefers the route learned from the other over its own direct route."""

    table = PolicyTable()
    table.add_import(a, b, PolicyRule("set_local_pref", match_destination=origin, local_pref=200))
    table.add_import(b, a, PolicyRule("set_local_pref", match_destination=origin, local_pref=200))
    table.add_import(a, origin, PolicyRule("set_local_pref", match_destination=origin, local_pref=100))
    table.add_import(b, origin, PolicyRule("set_local_pref", match_destination=origin, local_pref=100))
    return table


def shortest_path_policies() -> PolicyTable:
    """The conflict-free baseline: no policy rules, pure shortest path."""

    return PolicyTable()


def gao_rexford_policies(
    customer_provider: Iterable[tuple[NodeId, NodeId]],
    peers: Iterable[tuple[NodeId, NodeId]] = (),
) -> PolicyTable:
    """Gao–Rexford (valley-free) policies over a customer→provider relation.

    * Routes learned from customers get the highest preference, then peers,
      then providers.
    * Routes learned from peers or providers are exported only to customers.

    Gao & Rexford prove these guidelines guarantee convergence, so this
    configuration serves as the large-topology conflict-free policy workload.
    """

    providers_of: dict[NodeId, set[NodeId]] = {}
    customers_of: dict[NodeId, set[NodeId]] = {}
    for customer, provider in customer_provider:
        providers_of.setdefault(customer, set()).add(provider)
        customers_of.setdefault(provider, set()).add(customer)
    peer_pairs = {frozenset(p) for p in peers}

    nodes = set(providers_of) | set(customers_of) | {n for pair in peer_pairs for n in pair}
    # rules are frozen values: one object per distinct rule, shared by
    # every pair it applies to, and each pair's rules gathered in a list
    # (in the order they are added) and frozen once
    from_customer = PolicyRule("set_local_pref", local_pref=300)
    from_peer = PolicyRule("set_local_pref", local_pref=200)
    from_provider = PolicyRule("set_local_pref", local_pref=100)
    imports: dict[tuple[NodeId, NodeId], list[PolicyRule]] = {}
    exports: dict[tuple[NodeId, NodeId], list[PolicyRule]] = {}
    no_customers: set[NodeId] = set()
    for local in nodes:
        customers = customers_of.get(local, no_customers)
        providers = providers_of.get(local, no_customers)
        # peer and provider routes are exported to customers only
        withheld = [other for other in nodes if other != local and other not in customers]
        for neighbour in nodes:
            if local == neighbour:
                continue
            if neighbour in customers:
                imports.setdefault((local, neighbour), []).append(from_customer)
                continue
            if frozenset((local, neighbour)) in peer_pairs:
                imports.setdefault((local, neighbour), []).append(from_peer)
            elif neighbour in providers:
                imports.setdefault((local, neighbour), []).append(from_provider)
            else:
                continue
            deny = PolicyRule("deny", match_transit=neighbour)
            for other in withheld:
                exports.setdefault((local, other), []).append(deny)
    return PolicyTable(
        export_rules={pair: tuple(rules) for pair, rules in exports.items()},
        import_rules={pair: tuple(rules) for pair, rules in imports.items()},
    )


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

    from ..ndlog.parser import parse_program  # loaded by the first parse only

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
    prefs = policies.import_pref_facts(node_list)
    max_pref = max((p for _, _, p in prefs), default=0)
    # invert: higher local-pref => lower rank
    facts = [
        ("importPref", (local, neighbour, max_pref - pref)) for local, neighbour, pref in prefs
    ]
    # exportDeny, as export_deny_facts lists it, built in the same pass
    for (local, neighbour), rules in policies.export_rules.items():
        for rule in rules:
            if rule.action != "deny":
                continue
            if rule.match_destination is not None:
                facts.append(("exportDeny", (local, neighbour, rule.match_destination)))
            else:
                facts += [("exportDeny", (local, neighbour, destination)) for destination in node_list]
    return facts
