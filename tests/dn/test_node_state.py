"""``Node.export_state`` / ``Node.load_state``: the settle-point round trip
shared by snapshot restore and shard-worker resync.

View memos are not exported.  ``load_state`` rebuilds each one by re-firing
its aggregate rule against the restored rows, and the rebuilt memo must hold
the live memo's groups and rows.  Its iteration order is free: the executor
emits a memo's changes in group-key order, so permuting a memo leaves the
trace alone.  The round trip must hold under either rule evaluator and
leave the node's stats alone.  Indexes are not exported either: a loaded
table builds each on its first probe (``test_index_parity.py`` continues
restored runs and compares the rebuilt buckets with live ones).
"""

import pytest

from repro.dn import EngineConfig, create_engine
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario

pytestmark = pytest.mark.usefixtures("fp_agreement")


def churned_engine(family: str = "power_law", size: int = 16, seed: int = 2):
    """A gao_rexford engine with churn scheduled: ``(engine, policy facts)``."""

    scenario = generate_scenario(
        family,
        size=size,
        seed=seed,
        policy="gao_rexford",
        churn_events=3,
        churn_restore_delay=1.0,
    )
    engine = create_engine(
        policy_path_vector_program(),
        scenario.topology,
        config=EngineConfig(seed=seed, max_events=10_000_000),
    )
    scenario.churn.apply_to_engine(engine)
    return engine, scenario.policy_fact_list()


def memo_contents(node) -> dict:
    return {rule: dict(groups) for rule, groups in node.view_memo.items()}


def test_export_leaves_view_memos_out():
    engine, facts = churned_engine("tree", size=8)
    engine.run(until=30.0, extra_facts=facts)
    for node in engine.nodes.values():
        assert node.view_memo
        assert set(node.export_state()) == {"stats", "displaced", "unswept", "tables"}


@pytest.mark.parametrize("family", ["tree", "power_law"])
def test_rebuilt_memos_iterate_in_live_order(family, rule_tier):
    """Rebuilt memos hold the live content; their order is not compared
    (the name predates group-key emission, when it had to match)."""

    engine, facts = churned_engine(family)
    assert engine.run(until=30.0, extra_facts=facts).quiescent
    for node_id, node in engine.nodes.items():
        live = memo_contents(node)
        stats = node.stats.as_dict()
        node.load_state(node.export_state())
        assert memo_contents(node) == live, node_id
        assert node.stats.as_dict() == stats, node_id


@pytest.mark.parametrize("family, seed, cut", [("power_law", 1, 1.0), ("waxman", 2, 1.5)])
def test_permuted_memos_leave_the_trace_unchanged(family, seed, cut, rule_tier):
    """Reversing every memo's iteration order between two ``run`` calls —
    with churn still to come — must not move the final fingerprint: memo
    changes are emitted in group-key order, not memo order.  (Both cases
    moved it while changes were emitted in memo-set order.)"""

    uninterrupted, facts = churned_engine(family, seed=seed)
    expected = uninterrupted.run(until=30.0, extra_facts=facts)
    assert expected.quiescent

    engine, facts = churned_engine(family, seed=seed)
    engine.run(until=cut, extra_facts=facts)
    assert not engine.in_fixpoint
    for node in engine.nodes.values():
        node.view_memo = {
            rule: dict(reversed(groups.items()))
            for rule, groups in node.view_memo.items()
        }
    assert engine.run(until=30.0).fingerprint() == expected.fingerprint()


def test_round_trip_restores_rows_verbatim():
    engine, facts = churned_engine()
    engine.run(until=30.0, extra_facts=facts)
    for node_id, node in engine.nodes.items():
        state = node.export_state()
        node.load_state(state)
        assert node.export_state() == state, node_id


def test_round_trip_between_runs_leaves_the_trace_unchanged(rule_tier):
    """Round-tripping every node between two ``run`` calls — with churn
    still to come — must not move the final fingerprint."""

    uninterrupted, facts = churned_engine()
    expected = uninterrupted.run(until=30.0, extra_facts=facts)
    assert expected.quiescent

    engine, facts = churned_engine()
    engine.run(until=1.5, extra_facts=facts)
    assert not engine.in_fixpoint
    for node in engine.nodes.values():
        node.load_state(node.export_state())
    assert engine.run(until=30.0).fingerprint() == expected.fingerprint()
