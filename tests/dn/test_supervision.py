"""Supervised shard workers: crash-kill/respawn/resync with byte-identical
fingerprints, hang detection, restart budgets, and close() robustness.

The acceptance property: a :class:`~repro.dn.shard.ShardedEngine` run in
which any single worker is killed at any request index completes with a
``Trace.fingerprint()`` byte-identical to the undisturbed run — the
coordinator respawns the dead worker, which loads its shard's last
checkpoint and re-executes the requests logged since, so the fault leaves
no observable residue.  Long-lived engines checkpoint at run-segment
starts; their recovery log stays bounded by live state plus one segment.
The sweeps run on both transports: a process worker, first or respawned,
forks with its worker built by the coordinator, which keeps none of it.
"""

import gc
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import repro
from repro.dn import (
    EngineConfig,
    Fault,
    FaultPlan,
    ShardedEngine,
    create_engine,
)
from repro.dn.faults import ANY_SCOPE
from repro.dn.monitors import schema_for_program, standard_monitors
from repro.dn.host import ShardWorker
from repro.dn.shard import ProcessShardClient, ShardCrash
from repro.ndlog.ast import MaterializeDecl, NDlogError
from repro.protocols.policy import policy_path_vector_program
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

    @pytest.mark.parametrize("transport", ["inline", "process"])
    @pytest.mark.parametrize("at", [1, 2, 9, 25])
    def test_kill_at_many_request_indexes(self, at, transport):
        control = execute()
        faulted = execute(
            transport=transport,
            faults=FaultPlan((Fault(kind="kill_worker", scope=ANY_SCOPE, at=at),)),
        )
        assert faulted["injected"]
        assert faulted["fingerprint"] == control["fingerprint"]

    @pytest.mark.parametrize("transport", ["inline", "process"])
    @pytest.mark.parametrize("scope", [0, 1, 2])
    def test_kill_each_worker(self, scope, transport):
        control = execute()
        faulted = execute(
            transport=transport,
            faults=FaultPlan((Fault(kind="kill_worker", scope=scope, at=3),)),
        )
        assert faulted["injected"]
        assert faulted["restarts"][scope] >= 1
        assert faulted["fingerprint"] == control["fingerprint"]

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_multiple_kills_and_soft_state(self, transport):
        control = execute(soft=True)
        faulted = execute(
            soft=True,
            transport=transport,
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

    @pytest.mark.parametrize("at", [1, 6, 14])
    def test_sever_at_many_request_indexes(self, at):
        control = execute()
        faulted = execute(
            transport="process",
            faults=FaultPlan((Fault(kind="sever_pipe", scope=ANY_SCOPE, at=at),)),
        )
        assert faulted["injected"]
        assert sum(faulted["restarts"]) >= 1
        assert faulted["fingerprint"] == control["fingerprint"]

    @pytest.mark.parametrize("at", [1, 4])
    def test_delayed_worker_hits_timeout_and_respawns(self, at):
        control = execute(transport="process")
        faulted = execute(
            transport="process",
            shard_timeout=0.5,
            faults=FaultPlan(
                (Fault(kind="delay_pipe", scope=ANY_SCOPE, at=at, arg=30.0),)
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
            client = engine.host._clients[0]
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
            client = engine.host._clients[0]
            client.submit("ping", ())
            client.kill()
            client.close()
        finally:
            engine.close()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
    def test_workers_exit_when_the_coordinator_is_killed(self, tmp_path):
        """A worker holds no copy of its coordinator's pipe end, so a
        coordinator that dies without closing the engine (a SIGKILLed
        serving daemon) takes its workers with it — a respawned one too."""

        script = (
            "import os, sys\n"
            "from repro.protocols.policy import policy_path_vector_program\n"
            "from repro.dn import EngineConfig, create_engine\n"
            "from repro.scenarios import generate_scenario\n"
            "sc = generate_scenario('tree', size=8, seed=0, policy='gao_rexford')\n"
            "engine = create_engine(policy_path_vector_program(), sc.topology,\n"
            "    config=EngineConfig(seed=0, shards=3, shard_transport='process'))\n"
            "engine.host._clients[0].kill()\n"
            "engine.host._call(0, 'ping')\n"
            "with open(sys.argv[1], 'w') as out:\n"
            "    print(*(client._process.pid for client in engine.host._clients), file=out)\n"
            "os._exit(0)\n"
        )
        pid_file = tmp_path / "pids"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        # no pipes to the child: orphaned workers would hold them open
        subprocess.run(
            [sys.executable, "-c", script, str(pid_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60,
        )
        pids = [int(pid) for pid in pid_file.read_text().split()]
        assert len(pids) == 3

        def alive(pid: int) -> bool:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                return False
            return "\nState:\tZ" not in status

        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if alive(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert not orphans

    def test_killed_client_raises_shard_crash(self):
        program = policy_path_vector_program()
        scenario = generate_scenario("tree", size=8, seed=0, policy="gao_rexford")
        config = EngineConfig(seed=0, shards=2, shard_transport="process")
        engine = create_engine(program, scenario.topology, config=config)
        try:
            client = engine.host._clients[1]
            client.kill()
            with pytest.raises(ShardCrash):
                client.call("ping", ())
        finally:
            engine.close()


class TestForkReady:
    """The coordinator builds each worker, forks it ready, and drops it."""

    @staticmethod
    def track_workers(monkeypatch) -> list[list[weakref.ref]]:
        """Weak references to the nodes of every worker built in this
        process, one list per worker, in build order."""

        built = []
        build = ShardWorker.__init__

        def tracked(worker, node_ids, executor):
            build(worker, node_ids, executor)
            built.append([weakref.ref(node) for node in worker.nodes.values()])

        monkeypatch.setattr(ShardWorker, "__init__", tracked)
        return built

    def test_the_coordinator_holds_no_pre_fork_node(self, monkeypatch):
        built = self.track_workers(monkeypatch)
        scenario = generate_scenario("tree", size=8, seed=0, policy="gao_rexford")
        config = EngineConfig(seed=0, shards=2, shard_transport="process")
        engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
        try:
            gc.collect()
            assert [len(nodes) for nodes in built] == [4, 4]
            assert all(node() is None for nodes in built for node in nodes)
            # the children hold them: every worker answers and settles
            trace = engine.run(extra_facts=scenario.policy_fact_list())
            assert trace.quiescent
            engine.validate_shards()
        finally:
            engine.close()

    def test_a_respawn_forks_a_fresh_worker(self, monkeypatch):
        """Each respawn builds a new pre-fork worker, which restores the
        shard's checkpoint and replays its log to the fault-free state."""

        control = segmented(shards=1)
        built = self.track_workers(monkeypatch)
        faulted = segmented(
            transport="process",
            faults=FaultPlan(
                (
                    Fault(kind="kill_worker", scope=0, at=3),
                    Fault(kind="sever_pipe", scope=1, at=5),
                )
            ),
        )
        assert faulted["restarts"] == [1, 1]
        assert len(built) == 2 + 2
        assert all(checkpoint and logged for checkpoint, logged in faulted["revives"])
        assert faulted["fingerprint"] == control["fingerprint"]
        assert faulted["tables"] == control["tables"]


def long_lived(shards=2, transport="inline", cycles=40):
    """An engine under link churn, before its first run: one link fails at
    every whole second and comes back half a second later."""

    scenario = generate_scenario("tree", size=8, seed=0, policy="gao_rexford", loss=0.01)
    config = EngineConfig(seed=0, shards=shards, shard_transport=transport)
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
    links = sorted(
        (link.src, link.dst) for link in scenario.topology.up_links() if link.src < link.dst
    )
    for cycle in range(cycles):
        src, dst = links[cycle % len(links)]
        engine.schedule_link_failure(src, dst, at=cycle + 1.0)
        engine.schedule_link_restore(src, dst, at=cycle + 1.5)
    return engine, scenario.policy_fact_list()


def segmented(*, shards=2, transport="inline", faults=None, segments=16):
    """A long-lived engine run one simulated second per run() call;
    ``faults`` is armed once every worker has taken a checkpoint."""

    engine, facts = long_lived(shards, transport)
    revives = []
    if faults is not None:
        revive = engine.host._revive

        def record_revive(shard, exc):
            # the state a respawn resyncs from: a checkpoint, and the log
            revives.append((engine.host._checkpoints[shard] is not None, len(engine.host._logs[shard])))
            revive(shard, exc)

        engine.host._revive = record_revive
    try:
        for index in range(1, segments + 1):
            if faults is not None and engine.fault_injector is None:
                if all(engine.shard_checkpoints):
                    engine.inject_faults(faults)
            trace = engine.run(until=float(index), extra_facts=facts)
        if shards > 1:
            engine.validate_shards()
        return {
            "fingerprint": trace.fingerprint(),
            "tables": engine.global_snapshot(),
            "checkpoints": list(engine.shard_checkpoints) if shards > 1 else [],
            "restarts": list(engine.shard_restarts) if shards > 1 else [],
            "revives": revives,
        }
    finally:
        engine.close()


class TestCheckpointResync:
    """Respawns of long-lived engines resync from a checkpoint plus the
    requests logged since."""

    @pytest.mark.parametrize("transport", ["inline", "process"])
    def test_kill_after_checkpoint_mid_log_matches_fault_free(self, transport):
        control = segmented(shards=1)
        faulted = segmented(
            transport=transport,
            faults=FaultPlan(
                (
                    Fault(kind="kill_worker", scope=0, at=3),
                    Fault(kind="kill_worker", scope=1, at=6),
                )
            ),
        )
        assert all(faulted["checkpoints"])
        assert faulted["restarts"] == [1, 1]
        # every respawn loaded a checkpoint and re-executed a non-empty log
        assert len(faulted["revives"]) == 2
        assert all(checkpoint and logged for checkpoint, logged in faulted["revives"])
        assert faulted["fingerprint"] == control["fingerprint"]
        assert faulted["tables"] == control["tables"]

    def test_log_stays_bounded_by_live_rows_and_one_segment(self):
        engine, facts = long_lived()
        segment_ops = [0, 0]
        logged = engine.host._logged

        def count(shard, method, args, ops):
            segment_ops[shard] += ops
            logged(shard, method, args, ops)

        engine.host._logged = count
        total = 0
        try:
            for index in range(1, 41):
                live = [engine.host._live_rows(shard) for shard in (0, 1)]
                segment_ops[:] = [0, 0]
                engine.run(until=float(index), extra_facts=facts)
                for shard in (0, 1):
                    # what a segment carries over from earlier ones is at
                    # most the live rows at its start: a longer log gave
                    # way to a checkpoint
                    assert engine.host._log_ops[shard] <= live[shard] + segment_ops[shard]
                total += sum(segment_ops)
            assert sum(engine.shard_checkpoints) >= 2
            assert sum(engine.host._log_ops) < total
        finally:
            engine.close()
