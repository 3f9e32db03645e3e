"""Monitors are observational: attaching the standard monitors changes
nothing about an execution.

With and without them, a churned, lossy run ends on the same
``Trace.fingerprint()``, the same tables, and the same captured state of
every node — rows, support counts, stats, and the position sets of every
table's hash indexes.  The index positions are the sharp edge: the executor
seeds a key-scoped derive with a literal whose index already exists
(``Table.has_lookup``), so a monitor that built an index while reading
would steer later derives, and the execution would depend on what is
attached to it.
"""

import pytest

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.fvn.monitors import schema_for_program, standard_monitors
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import generate_scenario

CELLS = [
    (path_vector_program, None, "tree", 12),
    (policy_path_vector_program, "gao_rexford", "waxman", 12),
    (policy_path_vector_program, "gao_rexford", "power_law", 12),
]


def outcome(build, policy, family, size, shards, monitored):
    """Fingerprint, tables and node captures of one churned run."""

    program = build()
    scenario = generate_scenario(
        family, size=size, seed=4, policy=policy, churn_events=4, loss=0.1
    )
    engine = create_engine(
        program,
        scenario.topology,
        config=EngineConfig(seed=4, shards=shards, shard_transport="inline"),
    )
    try:
        if monitored:
            for monitor in standard_monitors(schema_for_program(program)):
                engine.attach_monitor(monitor)
        scenario.churn.apply_to_engine(engine)
        trace = engine.run(extra_facts=scenario.policy_fact_list())
        if monitored:
            engine.finalize_monitors()
            assert engine.monitors and all(m.finalized_at is not None for m in engine.monitors)
        return trace.fingerprint(), engine.global_snapshot(), engine.capture()["nodes"]
    finally:
        engine.close()


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("build, policy, family, size", CELLS)
def test_standard_monitors_change_nothing(build, policy, family, size, shards):
    bare = outcome(build, policy, family, size, shards, monitored=False)
    watched = outcome(build, policy, family, size, shards, monitored=True)
    assert watched[0] == bare[0]
    assert watched[1] == bare[1]
    assert watched[2] == bare[2]
