"""Change-scoped monitor checks are exact: after every settle a monitor's
active violations at the node equal a whole-node rescan's.

A settle hands :meth:`RuntimeMonitor.on_settle` its trace records, and the
route-validity, best-agreement and cycle-freedom monitors re-check only the
``(source, destination)`` groups or rows those records touch.
:func:`shadowed` checks the contract from inside: behind every settle check
it runs the monitor's own check function over every row of the node and
asserts the two active violation sets identical.

Healthy runs have no violation at a settle point, so every cell also plants
some through the engine — a cyclic candidate route, a best route no
candidate supports, a selection over an empty group — and fails and
restores the planted best route's first-hop link, which only the ``link``
fallback of :class:`RouteValidityMonitor` sees.  Facts go to base
predicates only, so each planted predicate ``p`` is derived from a base
predicate ``plant_p`` by the plant rule ``p(...) :- plant_p(...)``, which
:func:`with_plant_rules` appends to the cell's program: the plants and
their removals are facts of ``plant_p``.

The cells cover the plain and policy path-vector programs on tree,
power_law and waxman topologies with churn and loss 0.2, a size-capped
``path`` table (untraced FIFO eviction), a soft-state ``link`` table, 1 and
2 inline shards, and serving updates.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.dn import EngineConfig, create_engine
from repro.dn.monitors import POLICY_SCHEMA, RuntimeMonitor, schema_for_program, standard_monitors
from repro.ndlog.parser import parse_program
from repro.obs import metrics as obs_metrics
from repro.protocols.pathvector import PATH_VECTOR_SOURCE, path_vector_program
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario
from repro.serving import service as service_mod
from repro.serving.config import ServerConfig
from repro.serving.service import RouteService

SCOPED_KINDS = ("route_validity", "best_agreement", "cycle_freedom")

#: destinations no topology has, so planted groups never meet derived ones
GHOST = 1000


@contextmanager
def shadowed():
    """Every monitor settle check is followed by the whole-node rescan as
    its oracle; yields ``(path, monitor name) → checks`` (finalize's
    included), path being ``"scoped"`` or ``"full"``."""

    calls: Counter = Counter()
    settle, check = RuntimeMonitor.on_settle, RuntimeMonitor._check_node

    def check_node(self, time, node, units=None):
        calls["full" if units is None else "scoped", self.name] += 1
        check(self, time, node, units)

    def on_settle(self, time, node, changes=None):
        settle(self, time, node, changes)
        whole = {signature for signature, _ in self._violations_at(node, time)}
        active = set(self._active.get(node, {}))
        assert active == whole, (
            f"{self.name} at {node!r}, t={time}: active after the settle check "
            f"{sorted(map(repr, active))}, whole rescan {sorted(map(repr, whole))}"
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RuntimeMonitor, "on_settle", on_settle)
        patch.setattr(RuntimeMonitor, "_check_node", check_node)
        yield calls


def plants(program, node, hop) -> list[tuple[str, tuple]]:
    """Base facts planting one violation of each scoped kind at ``node``:
    a cyclic candidate route (whose selection is cyclic too), a best route
    leaving over the link to ``hop`` that no candidate supports, and a
    selection over an empty candidate group.  Each names ``plant_p``, from
    which the plant rule derives the planted predicate ``p``."""

    cyclic = (node, hop, node, GHOST)
    if schema_for_program(program) is POLICY_SCHEMA:
        return [
            ("plant_route", (node, GHOST, cyclic, 5, 0, 5)),
            ("plant_bestRoute", (node, GHOST + 1, (node, hop, GHOST + 1), 3, 3)),
            ("plant_bestRouteRank", (node, GHOST + 2, 1)),
        ]
    return [
        ("plant_path", (node, GHOST, cyclic, 5)),
        ("plant_bestPath", (node, GHOST + 1, (node, hop, GHOST + 1), 3)),
        ("plant_bestPathCost", (node, GHOST + 2, 1)),
    ]


def with_plant_rules(program):
    """``program`` with the plant rule ``p(@A0,...) :- plant_p(@A0,...)``
    appended for each predicate :func:`plants` plants in."""

    rules = []
    for base, row in plants(program, 0, 0):
        args = "@" + ",".join(f"A{i}" for i in range(len(row)))
        rules.append(f"{base} {base.removeprefix('plant_')}({args}) :- {base}({args}).")
    for rule in parse_program("\n".join(rules), "plants").rules:
        program.add_rule(rule)
    return program


def plant_and_remove(engine, program, topology) -> None:
    """Schedule the plants at t=0.5, a failure of the planted first hop's
    link at 1.2 and its restore at 2.7, and the plants' removal at 3.2."""

    link = min(
        ((link.src, link.dst) for link in topology.links() if link.src < link.dst),
        key=repr,
    )
    node, hop = link
    for predicate, row in plants(program, node, hop):
        engine.schedule_fact(predicate, row, 0.5)
        engine.schedule_fact_delete(predicate, row, 3.2)
    engine.schedule_link_failure(node, hop, 1.2)
    engine.schedule_link_restore(node, hop, 2.7)


def run_cell(program, family, size, shards, *, churn=3, loss=0.2, until=float("inf")):
    """One shadowed, planted run with the standard monitors; returns the
    check counts and the monitors."""

    policy = "gao_rexford" if schema_for_program(program) is POLICY_SCHEMA else None
    scenario = generate_scenario(
        family, size=size, seed=2, policy=policy, churn_events=churn, loss=loss
    )
    config = EngineConfig(seed=2, shards=shards, shard_transport="inline", max_events=2_000_000)
    program = with_plant_rules(program)
    with shadowed() as calls:
        engine = create_engine(program, scenario.topology, config=config)
        try:
            monitors = standard_monitors(schema_for_program(program))
            for monitor in monitors:
                engine.attach_monitor(monitor)
            if scenario.churn is not None:
                scenario.churn.apply_to_engine(engine)
            plant_and_remove(engine, program, scenario.topology)
            engine.run(until=until, extra_facts=scenario.policy_fact_list())
        finally:
            engine.close()
    return calls, monitors


def assert_exercised(calls, monitors) -> None:
    """Each scoped monitor ran scoped checks and saw a planted violation."""

    for monitor in monitors:
        if monitor.name in SCOPED_KINDS:
            assert calls["scoped", monitor.name] > 0, monitor.name
            assert monitor.report()["violations"] > 0, monitor.name


PROGRAMS = {
    "pv": path_vector_program,
    "policy": policy_path_vector_program,
}

CELLS = [
    ("pv", "tree", 10),
    ("pv", "power_law", 7),
    ("policy", "tree", 10),
    ("policy", "power_law", 10),
    ("policy", "waxman", 10),
]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("name, family, size", CELLS)
def test_scoped_checks_match_a_whole_rescan(name, family, size, shards):
    calls, monitors = run_cell(PROGRAMS[name](), family, size, shards)
    assert_exercised(calls, monitors)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("family", ["tree", "power_law"])
def test_size_capped_table(family, shards):
    """FIFO eviction from a capped ``path`` table leaves no record: any
    change to it rescans the node."""

    source = PATH_VECTOR_SOURCE.replace(
        "materialize(path, infinity, infinity, keys(1,2,3)).",
        "materialize(path, infinity, 4, keys(1,2,3)).",
    )
    calls, monitors = run_cell(parse_program(source, "pv_capped"), family, 8, shards)
    for monitor in monitors:
        if monitor.name in SCOPED_KINDS:
            # more than each node's first check
            assert calls["full", monitor.name] > 8, monitor.name


@pytest.mark.parametrize("shards", [1, 2])
def test_soft_state_table(shards):
    """Soft-state ``link`` rows expire (traced) while routes churn."""

    source = PATH_VECTOR_SOURCE.replace(
        "materialize(link, infinity, infinity, keys(1,2)).",
        "materialize(link, 2, infinity, keys(1,2)).",
    )
    calls, monitors = run_cell(
        parse_program(source, "pv_soft"), "tree", 6, shards, until=6.0
    )
    assert_exercised(calls, monitors)


def test_serving_updates(tmp_path, monkeypatch):
    """A daemon's settled updates — plants, link failure and restore, cost
    changes, removals — on its default monitors, which end green once the
    plants are gone (no loss, so every retraction arrives)."""

    # an in-process service turns metrics on for the whole process
    monkeypatch.setattr(obs_metrics, "ENABLED", obs_metrics.ENABLED)
    build = service_mod.build_serving_program
    monkeypatch.setattr(
        service_mod, "build_serving_program", lambda config: with_plant_rules(build(config))
    )
    with shadowed() as calls:
        service = RouteService(
            ServerConfig(state_dir=str(tmp_path), family="tree", size=10)
        )
        try:
            topology = service.engine.topology
            node, hop = min(
                ((link.src, link.dst) for link in topology.links() if link.src < link.dst),
                key=repr,
            )
            planted = plants(service.program, node, hop)
            for predicate, row in planted:
                service.apply_update("set_fact", {"predicate": predicate, "values": list(row)})
            service.apply_update("link_fail", {"src": node, "dst": hop})
            service.apply_update("link_restore", {"src": node, "dst": hop})
            for link in topology.links():
                if link.src < link.dst:
                    args = {"src": link.src, "dst": link.dst}
                    service.apply_update("link_fail", args)
                    service.apply_update("cost_change", {**args, "cost": link.cost + 2})
                    service.apply_update("link_restore", args)
            for predicate, row in planted:
                service.apply_update("del_fact", {"predicate": predicate, "values": list(row)})
            monitors = service.engine.monitors
            assert_exercised(calls, monitors)
            assert service.query("status", {})["monitors_ok"]
        finally:
            service.close()
