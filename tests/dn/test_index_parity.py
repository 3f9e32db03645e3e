"""Restored nodes continue like live ones.

A capture carries each table's rows, support counts and deadlines, never
its indexes: no access path of a settle depends on which indexes exist (the
settle plan fixes every seed from the program text), and a restored table
builds each index on its first probe, from the rows, so every bucket
iterates in the live order.  Checked on each path that rebuilds a node from
a capture — ``restore_engine`` on 1 and 2 inline shards, a killed shard
worker respawned from its checkpoint, and a serving daemon recovering from
its snapshot — by continuing the restored run under policy-program churn:
its ``Trace.fingerprint()``, tables and monitor reports must equal the
uninterrupted run's, and every index both runs built must hold the same
buckets, bucket for bucket the same rows in the same order.
"""

import pickle

import pytest

from repro.dn import EngineConfig, ShardedEngine, create_engine
from repro.dn.engine import restore_engine
from repro.dn.faults import Fault, FaultPlan
from repro.dn.monitors import schema_for_program, standard_monitors
from repro.obs import metrics as obs_metrics
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario
from repro.serving import RouteService, ServerConfig


def nodes_of(engine) -> dict:
    """Node id → the :class:`~repro.dn.node.Node` holding its tables, read
    from the workers of a sharded engine (inline transport only: a process
    worker's tables are remote)."""

    if isinstance(engine, ShardedEngine):
        return {
            node_id: node
            for client in engine.host._clients
            for node_id, node in client.worker.nodes.items()
        }
    return dict(engine.nodes)


def index_count(engine) -> int:
    return sum(
        table.index_count
        for node in nodes_of(engine).values()
        for table in node.db._tables.values()
    )


def assert_shared_indexes_agree(engine, other) -> None:
    """Every index both engines hold on a table has the same buckets, each
    with the same rows in the same order."""

    theirs = nodes_of(other)
    shared = 0
    for node_id, node in nodes_of(engine).items():
        for predicate, table in node.db._tables.items():
            twin = theirs[node_id].db.get_table(predicate)
            for positions, index in table._indexes.items():
                if twin is None or positions not in twin._indexes:
                    continue
                shared += 1
                buckets = {key: list(bucket.values()) for key, bucket in index.items()}
                expected = twin._indexes[positions]
                assert buckets == {
                    key: list(bucket.values()) for key, bucket in expected.items()
                }, (node_id, predicate, positions)
    assert shared


def monitors():
    return standard_monitors(schema_for_program(policy_path_vector_program()))


def churned(shards: int = 1, family: str = "power_law", size: int = 16, cycles: int = 12):
    """A monitored policy engine under link fail / restore / re-cost churn:
    ``(engine, policy facts)``, before its first run."""

    scenario = generate_scenario(family, size=size, seed=3, policy="gao_rexford", loss=0.01)
    config = EngineConfig(
        seed=3, shards=shards, shard_transport="inline", max_events=10_000_000
    )
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
    for monitor in monitors():
        engine.attach_monitor(monitor)
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


def outcome(engine) -> tuple:
    """Fingerprint, tables and finalized monitor reports of an engine."""

    engine.finalize_monitors()
    return (
        engine.trace.fingerprint(),
        engine.global_snapshot(),
        [monitor.report() for monitor in engine.monitors],
    )


@pytest.mark.parametrize("restore_shards", [1, 2])
def test_restored_engine_continues_like_the_live_one(restore_shards):
    live, facts = churned()
    assert live.run(until=100.0, extra_facts=facts).quiescent
    expected = outcome(live)

    cut, facts = churned()
    cut.run(until=6.5, extra_facts=facts)  # mid-churn
    assert index_count(cut)
    restored = restore_engine(
        policy_path_vector_program(),
        pickle.loads(pickle.dumps(cut.capture())),
        config=EngineConfig(
            seed=3, shards=restore_shards, shard_transport="inline", max_events=10_000_000
        ),
        monitors=monitors(),
    )
    try:
        assert index_count(restored) == 0  # until a probe builds one
        assert restored.run(until=100.0).quiescent
        assert outcome(restored) == expected
        assert_shared_indexes_agree(restored, live)
    finally:
        restored.close()


def test_respawned_worker_continues_like_the_live_one():
    """Kill each worker once both have checkpointed, mid-churn: the
    respawns load a checkpoint and re-execute their logs, and the run ends
    as the fault-free one does."""

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
        assert outcome(faulted) == outcome(control)
        assert_shared_indexes_agree(faulted, control)
    finally:
        control.close()
        faulted.close()


def test_snapshot_recovery_continues_like_the_live_daemon(tmp_path, monkeypatch):
    # a RouteService turns metrics on for the whole process
    monkeypatch.setattr(obs_metrics, "ENABLED", obs_metrics.ENABLED)

    def config(name: str) -> ServerConfig:
        return ServerConfig(
            family="power_law",
            size=12,
            state_dir=str(tmp_path / name),
            snapshot_every=3,
        )

    def churn(service, links) -> None:
        for src, dst in links:
            service.apply_update("link_fail", {"src": src, "dst": dst})
            service.apply_update("cost_change", {"src": dst, "dst": src, "cost": 9.0})
            service.apply_update("link_restore", {"src": src, "dst": dst})

    uninterrupted = RouteService(config("uninterrupted"))
    try:
        links = sorted(
            (link.src, link.dst)
            for link in uninterrupted.engine.topology.up_links()
            if link.src < link.dst
        )[:6]
        churn(uninterrupted, links)
        live = uninterrupted.engine  # its tables stay readable after close
        expected = outcome(live)
    finally:
        uninterrupted.close()

    first = RouteService(config("recovered"))
    try:
        churn(first, links[:4])
    finally:
        first.close()
    recovered = RouteService(config("recovered"))
    try:
        assert recovered.recovered_from == "snapshot+replay"
        churn(recovered, links[4:])
        assert outcome(recovered.engine) == expected
        assert_shared_indexes_agree(recovered.engine, live)
    finally:
        recovered.close()
