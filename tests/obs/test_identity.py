"""The observability contract: obs-enabled runs are byte-identical.

Metrics and tracing read clocks and bump counters but never touch the
scheduler, channel RNG, or replay streams — so ``Trace.fingerprint()``
and every deterministic observable must match exactly between a run with
the whole subsystem on and the same run with it off, on the single-process
engine under either rule evaluator, a 4-way sharded coordinator, and serving
crash recovery."""

import gc
import json

import pytest

from repro.dn import EngineConfig, create_engine
from repro.obs import metrics, tracing
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario
from repro.serving import RouteService, ServerConfig

#: every fingerprint compared here is also checked against the original (v1)
#: definition (tests/conftest.py): equal under v1 iff equal under fp3
pytestmark = pytest.mark.usefixtures("fp_agreement")


@pytest.fixture(autouse=True)
def restore_obs_state():
    metrics_on, tracing_on = metrics.ENABLED, tracing.ENABLED
    yield
    metrics.registry().reset()
    tracing.tracer().reset()
    (metrics.enable if metrics_on else metrics.disable)()
    (tracing.enable if tracing_on else tracing.disable)()


def set_obs(on: bool) -> None:
    if on:
        metrics.enable()
        metrics.registry().reset()
        tracing.enable()
        tracing.tracer().reset()
    else:
        metrics.disable()
        tracing.disable()


def run_once(*, obs: bool, shards=1, family="tree", policy="gao_rexford") -> dict:
    """One churn+loss run → every deterministic observable."""

    set_obs(obs)
    scenario = generate_scenario(
        family,
        size=12,
        seed=0,
        policy=policy,
        churn_events=2,
        churn_restore_delay=1.0,
        loss=0.01,
    )
    config = EngineConfig(seed=0, shards=shards, shard_transport="inline")
    engine = create_engine(
        policy_path_vector_program(), scenario.topology, config=config
    )
    if scenario.churn is not None:
        scenario.churn.apply_to_engine(engine)
    try:
        trace = engine.run(until=15.0, extra_facts=scenario.policy_fact_list())
        return {
            "fingerprint": trace.fingerprint(),
            "tables": {
                pred: rows
                for pred, rows in engine.global_snapshot().items()
                if rows
            },
            "events": trace.events_processed,
            "seeds": dict(trace.seeds),
            "quiescent": trace.quiescent,
        }
    finally:
        engine.close()


class TestEngineIdentity:
    def test_obs_on_matches_obs_off(self, rule_tier):
        plain = run_once(obs=False)
        observed = run_once(obs=True)
        # the instrumented run must actually have recorded something...
        recorded = metrics.registry().export()
        assert recorded["counters"].get("engine.events", 0) > 0
        # the churn removed rows: settle-end consistency checks came due,
        # and a clean network never needs the full sweep
        assert recorded["counters"].get("engine.sweep_checks", 0) > 0
        assert recorded["counters"].get("engine.sweep_repairs", 0) == 0
        # a tree has one path per destination: no settle explores and
        # withdraws one, so nothing nets away
        assert recorded["counters"].get("engine.sends_netted", 0) == 0
        assert tracing.tracer().export()["spans"]
        # ...while changing nothing observable
        assert observed == plain

    def test_aggregate_counters_are_observational(self):
        """``engine.aggregate_full`` counts whole re-fires, which the policy
        program needs only for a node's first recompute (it builds the memo):
        after the first settle every recompute is scoped, counted in
        ``engine.aggregate_groups`` — and counting changes nothing."""

        outcomes = []
        for on in (False, True):
            set_obs(on)
            scenario = generate_scenario("power_law", size=12, seed=0, policy="gao_rexford")
            engine = create_engine(
                policy_path_vector_program(), scenario.topology, config=EngineConfig(seed=0)
            )
            assert engine.run(extra_facts=scenario.policy_fact_list()).quiescent
            first = metrics.registry().export()["counters"]
            metrics.registry().reset()
            links = sorted(
                (link.src, link.dst)
                for link in scenario.topology.up_links()
                if link.src < link.dst
            )[:3]
            for src, dst in links:
                at = engine.scheduler.now
                engine.schedule_link_failure(src, dst, at + 1.0)
                engine.schedule_link_restore(src, dst, at + 2.0)
                assert engine.run().quiescent
            churn = metrics.registry().export()["counters"]
            outcomes.append(engine.trace.fingerprint())
            engine.close()
        assert outcomes[0] == outcomes[1]
        assert 0 < first["engine.aggregate_full"] <= len(scenario.topology.nodes)
        assert first["engine.aggregate_groups"] > 0
        assert churn.get("engine.aggregate_full", 0) == 0
        assert churn["engine.aggregate_groups"] > 0

    def test_collector_counters_are_observational(self):
        """While metrics are on, one ``gc.callbacks`` hook counts the cyclic
        collector's passes and seconds per generation; ``disable()`` takes
        it out again, and counting changes nothing observable."""

        plain = run_once(obs=False)
        assert metrics._on_collection not in gc.callbacks
        observed = run_once(obs=True)
        metrics.enable()
        assert gc.callbacks.count(metrics._on_collection) == 1
        for generation in (0, 1, 2):
            gc.collect(generation)
        exported = metrics.registry().export()
        counters = exported["counters"]
        for generation in (0, 1, 2):
            assert counters[f"engine.gc_passes_gen{generation}"] >= 1
            assert counters[f"engine.gc_time_gen{generation}"] > 0
        assert not any(name.startswith("engine.gc_") for name in exported["values"])
        metrics.disable()
        assert metrics._on_collection not in gc.callbacks
        gc.collect()
        assert metrics.registry().export()["counters"] == counters
        assert observed == plain

    def test_sharded_obs_on_matches_obs_off(self):
        plain = run_once(obs=False, shards=4)
        observed = run_once(obs=True, shards=4)
        recorded = metrics.registry().export()
        assert recorded["counters"].get("shard.flush_waves", 0) > 0
        # worker-side counters reach the coordinator's registry
        assert recorded["counters"].get("engine.sweep_checks", 0) > 0
        assert observed == plain

    def test_netted_sends_are_counted_and_reach_the_coordinator(self):
        # power_law explores and withdraws paths within a settle
        single = run_once(obs=True, family="power_law", policy="shortest_path")
        netted = metrics.registry().export()["counters"].get("engine.sends_netted", 0)
        plain = run_once(obs=False, shards=4, family="power_law", policy="shortest_path")
        observed = run_once(obs=True, shards=4, family="power_law", policy="shortest_path")
        # the workers run the single-process settles: the same count
        assert netted > 0
        assert metrics.registry().export()["counters"].get("engine.sends_netted") == netted
        assert observed == plain == single


class TestServingIdentity:
    def test_recovery_with_tracing_matches_untraced_run(self, tmp_path):
        state_dir = tmp_path / "state"
        config = ServerConfig(
            family="tree", size=12, state_dir=str(state_dir), snapshot_every=0
        )
        set_obs(False)
        service = RouteService(config)
        try:
            service.apply_update("link_fail", {"src": 0, "dst": 1})
            service.apply_update("cost_change", {"src": 0, "dst": 2, "cost": 9.0})
            live_fp = service.engine.trace.fingerprint()
            live_seq = service.seq
        finally:
            service.close()

        trace_path = tmp_path / "daemon-trace.json"
        recovered = RouteService(
            ServerConfig(
                family="tree",
                size=12,
                state_dir=str(state_dir),
                snapshot_every=0,
                trace_out=str(trace_path),
            )
        )
        try:
            assert recovered.recovered_from != "boot"
            assert recovered.seq == live_seq
            assert recovered.engine.trace.fingerprint() == live_fp
        finally:
            recovered.close()
        # the traced daemon wrote its spans on close
        assert trace_path.exists()
        assert any(
            span["name"] == "serving.recovery"
            for span in json.loads(trace_path.read_text())["traceEvents"]
            if span.get("ph") == "X"
        )

    def test_span_drops_are_reported_and_observational(self, monkeypatch):
        """``status`` reports the spans the bounded tracer dropped; a traced
        daemon that drops spans answers every other field — fingerprint
        included — exactly as an untraced one."""

        def served(obs: bool) -> tuple[dict, str]:
            set_obs(obs)
            tracing.tracer().reset()
            service = RouteService(ServerConfig(family="tree", size=12, snapshot_every=0))
            try:
                service.apply_update("link_fail", {"src": 0, "dst": 1})
                service.apply_update("cost_change", {"src": 0, "dst": 2, "cost": 9.0})
                return service.query("status", {}), service.engine.trace.fingerprint()
            finally:
                service.close()

        plain, plain_fp = served(False)
        monkeypatch.setattr(tracing.tracer(), "max_spans", 3)
        traced, traced_fp = served(True)
        assert plain["spans_dropped"] == 0 < traced["spans_dropped"]
        assert traced_fp == plain_fp
        assert {k: v for k, v in traced.items() if k != "spans_dropped"} == {
            k: v for k, v in plain.items() if k != "spans_dropped"
        }
