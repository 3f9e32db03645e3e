"""Safe-point guards: engine-external updates must land between events.

Mid-fixpoint the database is deliberately inconsistent (deletion deltas
fire against the old tables, aggregate memos lag the rows), so
``inject_fact`` / ``delete_fact`` / ``refresh_soft_state`` raise
``NDlogError`` while a node fixpoint is executing — whichever rule
evaluator fires the rules — and a rejected injection leaves the trace
byte-identical to an undisturbed run.  The only caller-supplied code that
runs mid-drain is a registry function a rule calls, on the single-process
engine; a sharded engine calls it in its workers, which hold no engine.
The scheduler itself refuses re-entrant ``run`` calls.
"""

import pytest

from repro.dn.engine import DistributedEngine, EngineConfig, create_engine
from repro.dn.network import Topology
from repro.ndlog.ast import NDlogError
from repro.ndlog.functions import builtin_registry, f_concat_path
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE

ENGINES = [
    pytest.param(dict(), id="single"),
    pytest.param(dict(shards=2, shard_transport="inline"), id="sharded"),
]
#: applied outermost, so the evaluator stays the last test-id component
TIERS = pytest.mark.parametrize("rule_tier", ["codegen", "reference"], indirect=True)


def square() -> Topology:
    return Topology.from_edges(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 5)]
    )


def build_engine(registry=None, **config) -> DistributedEngine:
    program = parse_program(PATH_VECTOR_SOURCE, "pv")
    return create_engine(
        program, square(), config=EngineConfig(seed=0, **config), registry=registry
    )


class Saboteur:
    """``f_concatPath`` that first tries an external update on its engine —
    exactly the mid-fixpoint entry the safe-point guard must refuse, from
    inside a rule body the drain is evaluating."""

    def __init__(self, operation: str) -> None:
        self.operation = operation
        self.attempts = 0
        self.refusals = 0
        self.engine = None

    def __call__(self, node, path) -> tuple:
        engine = self.engine
        if engine is not None and engine.in_fixpoint:
            self.attempts += 1
            try:
                if self.operation == "inject":
                    engine.inject_fact("link", ("a", "c", 9.0))
                elif self.operation == "delete":
                    engine.delete_fact("link", ("a", "b", 1.0))
                else:
                    engine.refresh_soft_state()
            except NDlogError:
                self.refusals += 1
        return f_concat_path(node, path)


class TestMidFixpointRefusal:
    @TIERS
    @pytest.mark.parametrize("operation", ["inject", "delete", "refresh"])
    def test_mid_drain_update_is_refused_and_trace_is_undisturbed(
        self, operation, rule_tier
    ):
        clean = build_engine()
        clean.run()
        clean_fingerprint = clean.trace.fingerprint()

        saboteur = Saboteur(operation)
        engine = build_engine(builtin_registry({"f_concatPath": saboteur}))
        saboteur.engine = engine
        # churn exercises the deletion/retraction paths mid-run as well
        engine.schedule_link_failure("a", "b", 1.0)
        engine.schedule_link_restore("a", "b", 2.0)
        engine.run()

        assert saboteur.attempts > 0, "saboteur was never called mid-drain"
        assert saboteur.refusals == saboteur.attempts

        # ... and the refused updates changed nothing: same trace as a
        # saboteur-free run with the same churn
        control = build_engine()
        control.schedule_link_failure("a", "b", 1.0)
        control.schedule_link_restore("a", "b", 2.0)
        control.run()
        sabotaged = engine.trace.fingerprint()
        assert sabotaged == control.trace.fingerprint()
        assert sabotaged != clean_fingerprint  # the churn itself did land

    @TIERS
    @pytest.mark.parametrize("config", ENGINES)
    def test_safe_point_updates_work_between_runs(self, config, rule_tier):
        engine = build_engine(**config)
        engine.run()
        assert not engine.in_fixpoint
        engine.inject_fact("link", ("a", "c", 1.0))
        engine.run()
        assert ("a", "c", 1.0) in engine.rows("link", "a")
        engine.delete_fact("link", ("a", "c", 1.0))
        engine.run()
        assert ("a", "c", 1.0) not in engine.rows("link", "a")
        engine.close()

    @TIERS
    @pytest.mark.parametrize("config", ENGINES)
    def test_schedule_fact_delete_lands_at_its_time(self, config, rule_tier):
        engine = build_engine(**config)
        engine.schedule_fact_delete("link", ("a", "d", 5.0), at=1.0)
        engine.run()
        assert ("a", "d", 5.0) not in engine.rows("link", "a")
        engine.close()


class TestReentrantRun:
    def test_event_callback_driving_scheduler_is_refused(self):
        engine = build_engine()
        engine._refresh_round = lambda: engine.run()  # a one-shot event's handler
        engine.schedule_refresh(0.5)
        with pytest.raises(RuntimeError, match="re-entrant"):
            engine.run()
        engine.close()

    def test_running_flag_resets_after_refusal(self):
        engine = build_engine()
        engine._refresh_round = lambda: engine.scheduler.run({})
        engine.schedule_refresh(0.5)
        with pytest.raises(RuntimeError, match="re-entrant"):
            engine.run()
        assert engine.scheduler.running is False
        engine.run()  # usable again after the failed call
        assert engine.trace.quiescent
        engine.close()
