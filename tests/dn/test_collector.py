"""The cyclic collector stays off the runtime's hot paths.

:meth:`DistributedEngine.run` processes its events with CPython's cyclic
collector paused, shard workers pause it per request, and forked workers
(shard workers, campaign pool workers) freeze the heap they inherited
(:mod:`repro.dn.collector`).  The pause is sound only while runs build no
reference cycles: these tests pin that premise — with the collector off,
``gc.collect()`` finds nothing after a monitored cold run, churn steps and
an inline-sharded run — and that the pause puts the collector back as it
found it, also when an event handler raises.
"""

import gc
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

import pytest

import repro.harness.runner as runner
from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.dn.shard import ShardWorker
from repro.fvn.monitors import schema_for_program, standard_monitors
from repro.harness import CampaignSpec, run_campaign
from repro.scenarios import generate_scenario


def cyclic_garbage(work: Callable[[], None]) -> int:
    """Objects the cycle collector finds after ``work`` ran with it off
    (garbage made before ``work`` — scenario graphs — is collected first)."""

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def collector_on():
    """Every test starts with the collector on and leaves it on."""

    gc.enable()
    yield
    gc.enable()


def policy_inputs(family: str = "power_law", size: int = 14, **churn) -> tuple:
    scenario = generate_scenario(family, size=size, seed=3, policy="gao_rexford", **churn)
    return policy_path_vector_program(), scenario


class TestNoCyclicGarbage:
    def test_cold_policy_run_with_every_monitor(self):
        program, scenario = policy_inputs()
        schema = schema_for_program(program)

        def work() -> None:
            engine = create_engine(program, scenario.topology, config=EngineConfig(seed=3))
            monitors = standard_monitors(schema)
            for monitor in monitors:
                engine.attach_monitor(monitor)
            trace = engine.run(extra_facts=scenario.policy_fact_list())
            engine.finalize_monitors()
            trace.fingerprint()
            engine.close()
            assert trace.quiescent and all(monitor.ok for monitor in monitors)

        assert cyclic_garbage(work) == 0

    def test_churn_steps(self):
        program, scenario = policy_inputs()
        engine = create_engine(program, scenario.topology, config=EngineConfig(seed=3))
        assert engine.run(extra_facts=scenario.policy_fact_list()).quiescent
        links = sorted(
            (link.src, link.dst) for link in scenario.topology.up_links() if link.src < link.dst
        )[:3]

        def work() -> None:
            for src, dst in links:
                now = engine.scheduler.now
                engine.schedule_link_failure(src, dst, now + 1.0)
                engine.schedule_link_restore(src, dst, now + 2.0)
                engine.schedule_cost_change(src, dst, 7.0, now + 3.0)
                assert engine.run().quiescent

        assert cyclic_garbage(work) == 0
        engine.close()

    def test_two_inline_shards(self):
        program, scenario = policy_inputs(churn_events=2, churn_restore_delay=1.0, loss=0.01)

        def work() -> None:
            config = EngineConfig(seed=3, shards=2, shard_transport="inline")
            engine = create_engine(program, scenario.topology, config=config)
            scenario.churn.apply_to_engine(engine)
            engine.run(until=25.0, extra_facts=scenario.policy_fact_list())
            engine.validate_shards()
            engine.close()

        assert cyclic_garbage(work) == 0


def probed_engine(probe: Callable[[], None]):
    """A converging tree engine whose message deliveries call ``probe``."""

    program, scenario = policy_inputs("tree", 8)
    engine = create_engine(program, scenario.topology, config=EngineConfig(seed=3))
    deliver = engine._deliver

    def delivering(*args):
        probe()
        return deliver(*args)

    engine._deliver = delivering
    return engine, scenario.policy_fact_list()


@pytest.mark.usefixtures("collector_on")
class TestRunPausesTheCollector:
    def test_paused_while_events_run_then_on_again(self):
        seen = []
        engine, facts = probed_engine(lambda: seen.append(gc.isenabled()))
        assert engine.run(extra_facts=facts).quiescent
        assert seen and not any(seen)
        assert gc.isenabled()
        # what the run built skipped the young generation, into the oldest
        # (nothing is frozen in this process)
        assert gc.get_count()[0] < gc.get_threshold()[0]
        assert gc.get_freeze_count() == 0

    def test_a_disabled_collector_stays_disabled(self):
        engine, facts = probed_engine(lambda: None)
        gc.disable()
        assert engine.run(extra_facts=facts).quiescent
        assert not gc.isenabled()

    def test_restored_when_a_handler_raises(self):
        def boom() -> None:
            raise RuntimeError("handler failed")

        engine, facts = probed_engine(boom)
        with pytest.raises(RuntimeError, match="handler failed"):
            engine.run(extra_facts=facts)
        assert gc.isenabled()


def collector_state(worker=None) -> tuple[int, bool]:
    return gc.get_freeze_count(), gc.isenabled()


@pytest.mark.usefixtures("collector_on")
def test_process_shard_worker_freezes_and_pauses(monkeypatch):
    # forked workers inherit the patched class: a request reads their state
    monkeypatch.setattr(ShardWorker, "collector_state", collector_state, raising=False)
    program, scenario = policy_inputs("tree", 8)
    engine = create_engine(
        program, scenario.topology, config=EngineConfig(seed=3, shards=2)
    )
    try:
        frozen, enabled = engine.host._call(0, "collector_state")
    finally:
        engine.close()
    assert frozen > 0
    assert not enabled  # paused around the request


#: where the pool workers' probe writes (set before the pool forks them)
PROBE_DIR: Optional[Path] = None
REAL_EXECUTE_RUN = runner.execute_run


def probing_execute_run(descriptor_data: dict, *args) -> dict:
    """``execute_run`` that first records its process's collector state."""

    frozen, enabled = collector_state()
    probe = {"pid": os.getpid(), "frozen": frozen, "enabled": enabled}
    (PROBE_DIR / f"{descriptor_data['index']:03d}.json").write_text(json.dumps(probe))
    return REAL_EXECUTE_RUN(descriptor_data, *args)


@pytest.mark.usefixtures("collector_on")
def test_campaign_pool_workers_freeze_their_heap(tmp_path, monkeypatch):
    """A pool worker freezes what it inherited, and what its runs leave
    behind joins the frozen heap without growing it run by run: nothing a
    run builds outlives it as cyclic garbage."""

    monkeypatch.setattr(sys.modules[__name__], "PROBE_DIR", tmp_path / "probes")
    monkeypatch.setattr(runner, "execute_run", probing_execute_run)
    (tmp_path / "probes").mkdir()
    spec = CampaignSpec(
        name="gc", families=("tree",), sizes=(6,), policies=("gao_rexford",),
        seeds=tuple(range(8)), churn_events=(2,), churn_restore_delay=1.0,
        record_stale_routes=False,
    )
    result = run_campaign(spec, tmp_path / "out", workers=2, resume=False)
    assert all(record.status == "ok" for record in result.records)
    probes = [json.loads(path.read_text()) for path in sorted((tmp_path / "probes").iterdir())]
    assert len(probes) == 8
    # the collector runs between engine runs
    assert all(probe["frozen"] > 0 and probe["enabled"] for probe in probes)
    by_worker: dict[int, list[int]] = {}
    for probe in probes:
        by_worker.setdefault(probe["pid"], []).append(probe["frozen"])
    # a worker's first run fills its caches (codegen, parsed programs); a
    # run left as cyclic garbage would add hundreds of objects per run
    assert any(len(counts) > 2 for counts in by_worker.values())
    for counts in by_worker.values():
        assert max(counts[1:]) - min(counts[1:]) <= 8, counts
