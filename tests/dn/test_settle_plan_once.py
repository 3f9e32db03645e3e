"""One settle plan per program.

A settle's plan and its generated code are functions of the program's
content (name, rules, storage declarations) and name rules by position,
never by identity.  So every engine over an equal program — each localizes
a copy of its own — and every shard worker of a sharded engine look up one
plan and one generated settle namespace: ``settle_plan`` runs once for all
of them, and they still run alike.
"""

from repro.dn import EngineConfig, ShardedEngine, create_engine
from repro.ndlog import codegen
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario


def executors(engine) -> list:
    if isinstance(engine, ShardedEngine):
        return [client.worker.executor for client in engine.host._clients]
    return [engine.host.executor]


def test_engines_over_one_program_share_one_plan(monkeypatch):
    monkeypatch.setattr(codegen, "_SETTLE_CACHE", {})
    planned = []
    settle_plan = codegen.settle_plan

    def counted(program):
        planned.append(program.name)
        return settle_plan(program)

    monkeypatch.setattr(codegen, "settle_plan", counted)
    scenarios = [
        generate_scenario("tree", size=8, seed=1, policy="gao_rexford", churn_events=2)
        for _ in range(3)
    ]
    engines = [
        create_engine(
            policy_path_vector_program(),
            scenario.topology,
            config=EngineConfig(seed=1, shards=shards, shard_transport="inline"),
        )
        for scenario, shards in zip(scenarios, (1, 1, 2))
    ]
    try:
        assert engines[0].program is not engines[1].program
        assert len(planned) == 1
        (namespace,) = (namespace for _, namespace in codegen._SETTLE_CACHE.values())
        built = [executor for engine in engines for executor in executors(engine)]
        assert len(built) == 4
        for executor in built:
            assert executor.plan is built[0].plan
            assert executor._code.route is namespace["ROUTE"]
        fingerprints = set()
        for scenario, engine in zip(scenarios, engines):
            scenario.churn.apply_to_engine(engine)
            trace = engine.run(until=20.0, extra_facts=scenario.policy_fact_list())
            fingerprints.add(trace.fingerprint())
        assert len(fingerprints) == 1
        assert len(planned) == 1
    finally:
        for engine in engines:
            engine.close()
