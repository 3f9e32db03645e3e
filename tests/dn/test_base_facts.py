"""Facts go to base predicates.

Every fact entry point of the engine (program facts, ``extra_facts``,
``inject_fact``, ``delete_fact``, ``schedule_fact``,
``schedule_fact_delete``) and of :class:`IncrementalEvaluator` (``load``,
``insert``, ``delete``, ``apply``) refuses, at the call and before
anything changes, a fact of a predicate some rule derives, and the engine
one located at a node its topology lacks: one :class:`NDlogError` from
:meth:`~repro.ndlog.ast.Program.check_base_fact`.  A row handed to a
derived predicate would be state the program never derives.
"""

import pytest

from repro.dn import EngineConfig, create_engine
from repro.dn.network import Topology
from repro.ndlog.ast import NDlogError
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import IncrementalEvaluator, evaluate
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import generate_scenario

#: node-local recursion: ``reach`` at node 0 over hops a→b, b→a, b→c
REACH = """
reach(@X,A,B) :- hop(@X,A,B).
reach(@X,A,C) :- hop(@X,A,B), reach(@X,B,C).
"""
HOPS = [("hop", (0, "a", "b")), ("hop", (0, "b", "a")), ("hop", (0, "b", "c"))]
#: a row of the derived predicate no hop supports
GHOST = (0, "z", "z")
DERIVED = r"fact of 'reach' refused: rule r\d derives it"


def reach_engine(shards, source=REACH):
    topology = Topology.from_edges([(0, 1)])
    config = EngineConfig(seed=0, shards=shards, shard_transport="inline")
    return create_engine(parse_program(source, "reach"), topology, config=config)


def settled_reach_engine(shards):
    engine = reach_engine(shards)
    engine.run(extra_facts=HOPS)
    return engine


def scratch_reach():
    return set(evaluate(parse_program(REACH, "scratch"), HOPS).rows("reach"))


@pytest.mark.parametrize("shards", [1, 2])
class TestEngineRefusesDerivedFacts:
    def test_extra_fact(self, shards):
        engine = reach_engine(shards)
        try:
            with pytest.raises(NDlogError, match=DERIVED):
                engine.run(extra_facts=HOPS + [("reach", GHOST)])
            assert engine.scheduler.pending == 0
        finally:
            engine.close()

    def test_program_fact(self, shards):
        engine = reach_engine(shards, REACH + "reach(@0,z,z).")
        try:
            with pytest.raises(NDlogError, match=DERIVED):
                engine.run(extra_facts=HOPS)
        finally:
            engine.close()

    def test_topology_links_of_a_derived_link_predicate(self, shards):
        # the topology's link facts go to the configured link predicate
        engine = reach_engine(shards, REACH + "link(@X,Y,C) :- hop(@X,Y,C).")
        try:
            with pytest.raises(NDlogError, match=r"fact of 'link' refused: rule r3 derives it"):
                engine.run(extra_facts=HOPS)
        finally:
            engine.close()

    @pytest.mark.parametrize(
        "call",
        [
            lambda engine: engine.inject_fact("reach", GHOST),
            lambda engine: engine.delete_fact("reach", (0, "a", "c")),
            lambda engine: engine.schedule_fact("reach", GHOST, 1.0),
            lambda engine: engine.schedule_fact_delete("reach", (0, "a", "c"), 1.0),
        ],
        ids=["inject_fact", "delete_fact", "schedule_fact", "schedule_fact_delete"],
    )
    def test_update(self, shards, call):
        engine = settled_reach_engine(shards)
        try:
            assert set(engine.rows("reach")) == scratch_reach()
            pending = engine.scheduler.pending
            with pytest.raises(NDlogError, match=DERIVED):
                call(engine)
            assert engine.scheduler.pending == pending
            engine.run()
            assert set(engine.rows("reach")) == scratch_reach()
        finally:
            engine.close()


class TestIncrementalEvaluatorRefusesDerivedFacts:
    @pytest.mark.parametrize(
        "call",
        [
            lambda inc: inc.load([("reach", GHOST)]),
            lambda inc: inc.insert("reach", GHOST),
            lambda inc: inc.delete("reach", (0, "a", "c")),
            lambda inc: inc.apply(inserts=[("hop", (0, "c", "d")), ("reach", GHOST)]),
            lambda inc: inc.apply(deletes=[("reach", (0, "a", "c"))]),
        ],
        ids=["load", "insert", "delete", "apply-inserts", "apply-deletes"],
    )
    def test_update(self, call):
        inc = IncrementalEvaluator(parse_program(REACH, "reach"))
        inc.load(HOPS)
        before = inc.db.snapshot()
        with pytest.raises(NDlogError, match=DERIVED):
            call(inc)
        assert inc.db.snapshot() == before
        assert set(inc.db.rows("reach")) == scratch_reach()

    def test_program_fact(self):
        inc = IncrementalEvaluator(parse_program(REACH + "reach(@0,z,z).", "reach"))
        with pytest.raises(NDlogError, match=DERIVED):
            inc.load(HOPS)

    def test_the_oracle_still_takes_them(self):
        # evaluate is the tests' oracle and keeps its semantics: a fact of a
        # derived predicate is one more row of it
        rows = evaluate(parse_program(REACH, "scratch"), HOPS + [("reach", GHOST)]).rows("reach")
        assert set(rows) == scratch_reach() | {GHOST}


@pytest.mark.parametrize("shards", [1, 2])
class TestEngineRefusesUnknownNodes:
    """A fact located at a node the topology lacks fails at the call, not
    with a ``KeyError`` from inside a later ``run()``."""

    @pytest.fixture()
    def engine(self, shards):
        topology = generate_scenario("tree", size=4, seed=0).topology
        config = EngineConfig(seed=0, shards=shards, shard_transport="inline")
        engine = create_engine(path_vector_program(), topology, config=config)
        yield engine
        engine.close()

    @pytest.mark.parametrize(
        "call",
        [
            lambda engine: engine.run(extra_facts=[("link", (99, 0, 1))]),
            lambda engine: engine.inject_fact("link", (99, 0, 1)),
            lambda engine: engine.delete_fact("link", (99, 0, 1)),
            lambda engine: engine.schedule_fact("link", (99, 0, 1), 0.5),
            lambda engine: engine.schedule_fact_delete("link", (99, 0, 1), 0.5),
        ],
        ids=["extra_facts", "inject_fact", "delete_fact", "schedule_fact", "schedule_fact_delete"],
    )
    def test_update(self, engine, call):
        with pytest.raises(NDlogError, match="located at node 99, which the topology lacks"):
            call(engine)
        engine.run()
        assert engine.trace.quiescent
