"""The engine fingerprint does not depend on ``PYTHONHASHSEED``.

Emission order comes from row order, index order from row order, and
aggregate changes from group-key order, so no set or dict keyed by a string
hash steers a trace.  Each subprocess runs the policy program under link
fail / restore / re-cost churn on 1 and 2 inline shards and prints both
fingerprints; two hash seeds must print the same pair, and the pair must
agree with itself.
"""

import os
import subprocess
import sys

SCRIPT = """
from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.scenarios import generate_scenario

for shards in (1, 2):
    scenario = generate_scenario(
        "power_law", size=16, seed=5, policy="gao_rexford", loss=0.02
    )
    config = EngineConfig(seed=5, shards=shards, shard_transport="inline")
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
    links = sorted(
        (link.src, link.dst, link.cost)
        for link in scenario.topology.up_links()
        if link.src < link.dst
    )[:6]
    for cycle, (src, dst, cost) in enumerate(links):
        engine.schedule_link_failure(src, dst, at=cycle + 1.0)
        engine.schedule_link_restore(src, dst, at=cycle + 1.25)
        engine.schedule_cost_change(src, dst, cost + 3, at=cycle + 1.5)
    trace = engine.run(extra_facts=scenario.policy_fact_list())
    assert trace.quiescent
    engine.close()
    print(shards, trace.fingerprint())
"""


def test_fingerprint_is_independent_of_the_hash_seed():
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    outputs = []
    for seed in ("7", "424242"):
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    fingerprints = [line.split()[1] for line in outputs[0].splitlines()]
    assert len(fingerprints) == 2 and fingerprints[0] == fingerprints[1]
