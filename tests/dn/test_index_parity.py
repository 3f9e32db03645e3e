"""Restored nodes index like live ones.

A capture carries each table's rows and the position sets of its hash
indexes, never buckets: every bucket iterates in row order, so rebuilding
the indexes from the rows reproduces them.  The positions matter on their
own — the executor seeds key-scoped derives through a literal whose index
already exists — so after policy-program churn every table of every
restored node must hold the live node's index positions, in the live
creation order, and bucket for bucket the live rows in the live order.
Checked on each path that rebuilds a node from a capture: ``restore_engine``
on 1 and 2 inline shards, a killed shard worker respawned from its
checkpoint, and a serving daemon recovering from its snapshot.
"""

import pytest

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, ShardedEngine, create_engine
from repro.dn.engine import restore_engine
from repro.dn.faults import Fault, FaultPlan
from repro.obs import metrics as obs_metrics
from repro.scenarios import generate_scenario
from repro.serving import RouteService, ServerConfig


def index_shape(node) -> dict:
    """Predicate → ``[(positions, {bucket key: bucket rows})]``: index
    positions in creation order, each bucket's rows in iteration order."""

    return {
        predicate: [
            (positions, {key: list(bucket.values()) for key, bucket in index.items()})
            for positions, index in table._indexes.items()
        ]
        for predicate, table in node.db._tables.items()
    }


def node_shapes(engine) -> dict:
    """Node id → :func:`index_shape`, read from the workers of a sharded
    engine (inline transport only: a process worker's tables are remote)."""

    if isinstance(engine, ShardedEngine):
        nodes = {
            node_id: node
            for client in engine.host._clients
            for node_id, node in client.worker.nodes.items()
        }
    else:
        nodes = engine.nodes
    return {node_id: index_shape(nodes[node_id]) for node_id in sorted(nodes)}


def churned(shards: int = 1, family: str = "power_law", size: int = 16, cycles: int = 12):
    """A policy engine under link fail / restore / re-cost churn: ``(engine,
    policy facts)``, before its first run."""

    scenario = generate_scenario(family, size=size, seed=3, policy="gao_rexford", loss=0.01)
    config = EngineConfig(
        seed=3, shards=shards, shard_transport="inline", max_events=10_000_000
    )
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
    links = sorted(
        (link.src, link.dst, link.cost)
        for link in scenario.topology.up_links()
        if link.src < link.dst
    )
    for cycle in range(cycles):
        src, dst, cost = links[cycle % len(links)]
        engine.schedule_link_failure(src, dst, at=cycle + 1.0)
        engine.schedule_link_restore(src, dst, at=cycle + 1.25)
        engine.schedule_cost_change(src, dst, cost + 2, at=cycle + 1.5)
        engine.schedule_cost_change(src, dst, cost, at=cycle + 1.75)
    return engine, scenario.policy_fact_list()


@pytest.mark.parametrize("restore_shards", [1, 2])
def test_restore_engine_rebuilds_live_indexes(restore_shards):
    live, facts = churned()
    assert live.run(until=100.0, extra_facts=facts).quiescent
    expected = node_shapes(live)
    assert any(shape for node in expected.values() for shape in node.values())
    restored = restore_engine(
        policy_path_vector_program(),
        live.capture(),
        config=EngineConfig(
            seed=3, shards=restore_shards, shard_transport="inline", max_events=10_000_000
        ),
    )
    try:
        assert node_shapes(restored) == expected
    finally:
        restored.close()


def test_respawned_worker_rebuilds_live_indexes():
    """Kill each worker once both have checkpointed, mid-churn: the
    respawns load a checkpoint and re-execute their logs, and end holding
    the fault-free workers' indexes."""

    def segmented(faults):
        engine, facts = churned(shards=2, family="tree", size=8, cycles=40)
        revived = []
        revive = engine.host._revive

        def record_revive(shard, exc):
            revived.append(engine.host._checkpoints[shard] is not None)
            revive(shard, exc)

        engine.host._revive = record_revive
        for index in range(1, 17):
            if faults is not None and engine.fault_injector is None:
                if all(engine.shard_checkpoints):
                    engine.inject_faults(faults)
            engine.run(until=float(index), extra_facts=facts)
        return engine, revived

    control, _ = segmented(None)
    faulted, revived = segmented(
        FaultPlan(
            (
                Fault(kind="kill_worker", scope=0, at=3),
                Fault(kind="kill_worker", scope=1, at=6),
            )
        )
    )
    try:
        assert revived == [True, True]
        assert node_shapes(faulted) == node_shapes(control)
    finally:
        control.close()
        faulted.close()


def test_snapshot_recovery_rebuilds_live_indexes(tmp_path, monkeypatch):
    # a RouteService turns metrics on for the whole process
    monkeypatch.setattr(obs_metrics, "ENABLED", obs_metrics.ENABLED)
    config = ServerConfig(
        family="power_law",
        size=12,
        state_dir=str(tmp_path / "state"),
        snapshot_every=3,
    )
    live = RouteService(config)
    try:
        links = sorted(
            (link.src, link.dst)
            for link in live.engine.topology.up_links()
            if link.src < link.dst
        )[:4]
        for src, dst in links:
            live.apply_update("link_fail", {"src": src, "dst": dst})
            live.apply_update("cost_change", {"src": dst, "dst": src, "cost": 9.0})
            live.apply_update("link_restore", {"src": src, "dst": dst})
        expected = node_shapes(live.engine)
    finally:
        live.close()
    recovered = RouteService(config)
    try:
        assert recovered.recovered_from == "snapshot+replay"
        assert node_shapes(recovered.engine) == expected
    finally:
        recovered.close()
