"""Supervised shard workers: crash-kill/respawn/resync with byte-identical
fingerprints, hang detection, restart budgets, and close() robustness.

The acceptance property: a :class:`~repro.dn.shard.ShardedEngine` run in
which any single worker is killed at any request index completes with a
``Trace.fingerprint()`` byte-identical to the undisturbed run — the
coordinator respawns the dead worker and resyncs its partition from the
replica tables, so the fault leaves no observable residue.
"""

import pytest

from repro.bgp.generator import policy_path_vector_program
from repro.dn import (
    EngineConfig,
    Fault,
    FaultPlan,
    ShardedEngine,
    create_engine,
)
from repro.dn.faults import ANY_SCOPE
from repro.dn.shard import ProcessShardClient, ShardCrash
from repro.fvn.monitors import schema_for_program, standard_monitors
from repro.ndlog.ast import MaterializeDecl, NDlogError
from repro.scenarios import generate_scenario


def soften_links(program, lifetime: float = 3.0):
    decl = program.materialized["link"]
    program.materialized["link"] = MaterializeDecl(
        "link", lifetime, decl.max_size, decl.keys
    )
    return program


def execute(
    *,
    shards=3,
    faults=None,
    seed=0,
    soft=False,
    transport="inline",
    shard_restarts=2,
    shard_timeout=None,
    until=12.0,
):
    """One sharded run (optionally under a fault plan) → observables."""

    scenario = generate_scenario(
        "tree",
        size=12,
        seed=seed,
        policy="gao_rexford",
        churn_events=2,
        churn_restore_delay=1.0,
        loss=0.01,
    )
    program = policy_path_vector_program()
    if soft:
        program = soften_links(program)
    config = EngineConfig(
        seed=seed,
        shards=shards,
        shard_transport=transport,
        shard_restarts=shard_restarts,
        shard_timeout=shard_timeout,
        refresh_interval=1.5 if soft else None,
    )
    engine = create_engine(program, scenario.topology, config=config)
    assert isinstance(engine, ShardedEngine)
    if faults is not None:
        engine.inject_faults(faults)
    monitors = standard_monitors(schema_for_program(program))
    for monitor in monitors:
        engine.attach_monitor(monitor)
    if scenario.churn is not None:
        scenario.churn.apply_to_engine(engine)
    try:
        trace = engine.run(until=until, extra_facts=scenario.policy_fact_list())
        engine.finalize_monitors()
        engine.validate_shards()
        return {
            "fingerprint": trace.fingerprint(),
            "quiescent": trace.quiescent,
            "monitors_ok": all(monitor.ok for monitor in monitors),
            "restarts": list(engine.shard_restarts),
            "injected": engine.fault_injector.fired() if faults is not None else [],
        }
    finally:
        engine.close()


class TestKillResyncIdentity:
    """Worker kills leave no fingerprint residue."""

    def test_kill_mid_fixpoint_matches_fault_free(self, rule_tier):
        # the resync re-fires aggregate rules to rebuild view memos, so the
        # respawned worker must match under either rule evaluator
        control = execute()
        faulted = execute(
            faults=FaultPlan((Fault(kind="kill_worker", scope=ANY_SCOPE, at=5),)),
        )
        assert faulted["injected"], "the fault never fired"
        assert sum(faulted["restarts"]) >= 1
        assert faulted["fingerprint"] == control["fingerprint"]
        assert faulted["monitors_ok"]

    @pytest.mark.parametrize("at", [1, 2, 9, 25])
    def test_kill_at_many_request_indexes(self, at):
        control = execute()
        faulted = execute(
            faults=FaultPlan((Fault(kind="kill_worker", scope=ANY_SCOPE, at=at),))
        )
        assert faulted["injected"]
        assert faulted["fingerprint"] == control["fingerprint"]

    @pytest.mark.parametrize("scope", [0, 1, 2])
    def test_kill_each_worker(self, scope):
        control = execute()
        faulted = execute(
            faults=FaultPlan((Fault(kind="kill_worker", scope=scope, at=3),))
        )
        assert faulted["injected"]
        assert faulted["restarts"][scope] >= 1
        assert faulted["fingerprint"] == control["fingerprint"]

    def test_multiple_kills_and_soft_state(self):
        control = execute(soft=True)
        faulted = execute(
            soft=True,
            faults=FaultPlan(
                (
                    Fault(kind="kill_worker", scope=ANY_SCOPE, at=4),
                    Fault(kind="kill_worker", scope=ANY_SCOPE, at=18),
                )
            ),
        )
        assert len(faulted["injected"]) == 2
        assert faulted["fingerprint"] == control["fingerprint"]


class TestProcessTransportSupervision:
    """Real worker processes: SIGKILL, severed pipes, hang detection."""

    def test_process_kill_and_sever_match_fault_free(self):
        control = execute(transport="process")
        faulted = execute(
            transport="process",
            faults=FaultPlan(
                (
                    Fault(kind="kill_worker", scope=ANY_SCOPE, at=3),
                    Fault(kind="sever_pipe", scope=ANY_SCOPE, at=11),
                )
            ),
        )
        assert len(faulted["injected"]) == 2
        assert faulted["fingerprint"] == control["fingerprint"]

    def test_delayed_worker_hits_timeout_and_respawns(self):
        control = execute(transport="process")
        faulted = execute(
            transport="process",
            shard_timeout=0.5,
            faults=FaultPlan(
                (Fault(kind="delay_pipe", scope=ANY_SCOPE, at=4, arg=30.0),)
            ),
        )
        assert faulted["injected"]
        assert sum(faulted["restarts"]) >= 1
        assert faulted["fingerprint"] == control["fingerprint"]


class TestRestartBudget:
    def test_budget_exhaustion_degrades_to_ndlog_error(self):
        faults = FaultPlan(
            tuple(
                Fault(kind="kill_worker", scope=0, at=at) for at in range(1, 6)
            )
        )
        with pytest.raises(NDlogError, match="crashed .* times"):
            execute(shard_restarts=0, faults=faults)

    def test_budget_covers_repeated_kills(self):
        control = execute()
        faulted = execute(
            shard_restarts=3,
            faults=FaultPlan(
                tuple(
                    Fault(kind="kill_worker", scope=0, at=at) for at in (2, 4, 6)
                )
            ),
        )
        assert len(faulted["injected"]) == 3
        assert faulted["fingerprint"] == control["fingerprint"]


class TestClientClose:
    def test_close_with_outstanding_request_does_not_hang(self):
        program = policy_path_vector_program()
        scenario = generate_scenario("tree", size=8, seed=0, policy="gao_rexford")
        config = EngineConfig(seed=0, shards=2, shard_transport="process")
        engine = create_engine(program, scenario.topology, config=config)
        try:
            client = engine._clients[0]
            assert isinstance(client, ProcessShardClient)
            client.submit("ping", ())
            # close() while the response is still outstanding must drain
            # (or abandon) it instead of deadlocking on the shutdown
            # handshake
            client.close()
            assert not client._pending
        finally:
            engine.close()

    def test_close_with_dead_worker_does_not_hang(self):
        program = policy_path_vector_program()
        scenario = generate_scenario("tree", size=8, seed=0, policy="gao_rexford")
        config = EngineConfig(seed=0, shards=2, shard_transport="process")
        engine = create_engine(program, scenario.topology, config=config)
        try:
            client = engine._clients[0]
            client.submit("ping", ())
            client.kill()
            client.close()
        finally:
            engine.close()

    def test_killed_client_raises_shard_crash(self):
        program = policy_path_vector_program()
        scenario = generate_scenario("tree", size=8, seed=0, policy="gao_rexford")
        config = EngineConfig(seed=0, shards=2, shard_transport="process")
        engine = create_engine(program, scenario.topology, config=config)
        try:
            client = engine._clients[1]
            client.kill()
            with pytest.raises(ShardCrash):
                client.call("ping", ())
        finally:
            engine.close()
