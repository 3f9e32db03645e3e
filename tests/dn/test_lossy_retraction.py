"""Lossy channels × retraction: soft-state expiry bounds stale state.

The retraction subsystem ships ``retract`` messages to withdraw remotely
stored derivations; on a lossy channel those messages can be dropped, and a
node whose retract never arrives keeps the stale derivation forever — unless
the state is *soft*, the paper's own remedy (§4.2): un-refreshed rows expire
within their lifetime, so dropped retractions bound staleness instead of
leaking it.

These tests pin that contract, on generated code and on the reference
rule interpreter:

* ``loss=0`` on a loss-configured channel is exactly the reliable-channel
  fixpoint;
* with an adversarial channel dropping **every** retract message, hard state
  goes permanently stale while soft state is clean again within
  ``lifetime + scan interval`` of the failure;
* randomized seeds/topologies (hypothesis) keep the soft-state bound across
  probabilistic loss, where both asserts and retracts are dropped.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dn.engine import DistributedEngine, EngineConfig
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.scenarios import generate_scenario


LIFETIME = 2.0
SCAN = 0.5

SOFT_PV_SOURCE = PATH_VECTOR_SOURCE.replace(
    "materialize(link, infinity, infinity, keys(1,2)).",
    f"materialize(link, {LIFETIME:g}, infinity, keys(1,2)).",
).replace(
    "materialize(path, infinity, infinity, keys(1,2,3)).",
    f"materialize(path, {LIFETIME:g}, infinity, keys(1,2,3)).",
)


def pv_program(soft: bool):
    return parse_program(SOFT_PV_SOURCE if soft else PATH_VECTOR_SOURCE, "pv")


def dead_edge_rows(engine, src, dst) -> list[tuple]:
    """Path tuples whose vector still traverses the failed edge."""

    stale = []
    for row in engine.rows("path") + engine.rows("bestPath"):
        vector = row[2]
        hops = list(zip(vector, vector[1:]))
        if (src, dst) in hops or (dst, src) in hops:
            stale.append(row)
    return stale


REFRESH = 2.5  # > LIFETIME: base facts expire and re-announce, so derived
#              soft state oscillates through expiry/re-derivation cycles and
#              live routes keep coming back while dead ones cannot


def run_with_failure(engine_cls, *, soft, seed=0, size=8, until=11.0):
    scenario = generate_scenario("tree", size=size, seed=seed)
    link = scenario.topology.up_links()[0]
    config = EngineConfig(
        seed=seed,
        expiry_scan_interval=SCAN,
        # re-announcement keeps live soft state coming back; stale rows
        # whose sources died are never re-announced and must expire
        refresh_interval=REFRESH if soft else None,
    )
    engine = engine_cls(pv_program(soft), scenario.topology, config=config)
    engine.seed_facts()
    engine.run(until=1.0)
    engine.schedule_link_failure(link.src, link.dst, at=1.0)
    engine.run(until=until)
    return engine, link


class TestLossZeroMatchesReliable:
    def test_loss_zero_equals_reliable_fixpoint(self, rule_tier):
        reliable = generate_scenario("tree", size=10, seed=5)
        lossy_configured = generate_scenario("tree", size=10, seed=5, loss=0.0)
        config = EngineConfig(seed=5)
        a = DistributedEngine(pv_program(False), reliable.topology, config=config)
        a.run()
        b = DistributedEngine(
            pv_program(False), lossy_configured.topology, config=config
        )
        b.run()
        assert a.trace.quiescent and b.trace.quiescent
        assert a.global_snapshot() == b.global_snapshot()
        assert b.channel.dropped == 0


class TestDroppedRetractions:
    def test_hard_state_goes_permanently_stale(self, retract_dropping_engine, rule_tier):
        engine, link = run_with_failure(retract_dropping_engine, soft=False)
        assert engine.channel.dropped > 0
        assert dead_edge_rows(engine, link.src, link.dst)

    def test_soft_state_expiry_bounds_the_staleness(self, retract_dropping_engine, rule_tier):
        engine, link = run_with_failure(retract_dropping_engine, soft=True)
        assert engine.channel.dropped > 0  # retractions were genuinely lost
        # by failure + lifetime + scan the stale rows must have expired
        assert engine.scheduler.now >= 1.0 + LIFETIME + SCAN
        assert dead_edge_rows(engine, link.src, link.dst) == []
        # non-vacuous: live routes were re-announced and are present
        assert engine.rows("path")
        # every record of the failure run (where expiry happens) is still
        # held; the earlier run's were folded away, bar a sub-block tail
        changes = engine.trace.state_changes
        assert any(
            c.predicate == "path" and c.kind == "expire"
            for c in changes[changes.dropped :]
        )

    def test_staleness_clears_within_the_expiry_bound(self, retract_dropping_engine):
        # sample the stale set over time: present right after the failure,
        # gone once lifetime + one scan interval have elapsed
        engine, link = run_with_failure(
            retract_dropping_engine, soft=True, until=1.25
        )
        assert dead_edge_rows(engine, link.src, link.dst)
        engine.run(until=1.0 + LIFETIME + 2 * SCAN)
        assert dead_edge_rows(engine, link.src, link.dst) == []


class TestLossySoftStateProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_probabilistic_loss_respects_expiry_bound(self, seed):
        """Under real probabilistic loss (asserts and retracts both dropped)
        the soft-state engine never holds a dead-edge row at the end."""

        scenario = generate_scenario("tree", size=8, seed=seed, loss=0.3)
        link = scenario.topology.up_links()[0]
        engine = DistributedEngine(
            pv_program(True),
            scenario.topology,
            config=EngineConfig(
                seed=seed, expiry_scan_interval=SCAN, refresh_interval=REFRESH
            ),
        )
        engine.seed_facts()
        engine.run(until=1.0)
        engine.schedule_link_failure(link.src, link.dst, at=1.0)
        engine.run(until=6.0)
        assert dead_edge_rows(engine, link.src, link.dst) == []
