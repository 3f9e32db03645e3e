"""Messages travel in waves — and nothing else moved.

``DistributedEngine._send`` used to schedule one ``message`` event per
shipped tuple; it now posts each into a wave
(:meth:`~repro.dn.events.EventScheduler.post`): the messages a settle sends
for one delivery time share a single weighted queue entry and are handed to
their nodes in sending order.  Everything observable must be what the
per-message path produced: ``events_processed``, where a ``max_events``
cut-off lands inside a wave, what a resumed ``run()`` does, and every
fingerprint — on 1 shard, 2 inline shards and the reference rule
interpreter, and against a per-message engine under randomized budgets,
link delays and loss.

Every literal in :data:`PINS` was computed at the parent commit (one event
per message) *before* the change, by running this module's own builders.
The fingerprint literals were re-pinned when the fold moved from ``fp2``
to ``fp3``; each names the same trace as before
(``tests/dn/test_trace.py::TestV2Agreement`` replays two under ``fp2``).
They were re-pinned once more when settles began to net their sends: the
counts, the final fingerprints and the cuts past the first retraction moved
(the early cuts did not), and the last cut moved to one event before the
new end; with the netting taken out, every earlier literal reproduces.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.generator import policy_path_vector_program
from repro.dn import DistributedEngine, EngineConfig, ShardedEngine, Topology, create_engine
from repro.dn.events import Event
from repro.fvn.monitors import MONITOR_KINDS, POLICY_SCHEMA, build_monitor
from repro.obs import metrics as obs_metrics
from repro.scenarios import generate_scenario

BIG = 10_000_000

PINS = {
    # power_law-12 / shortest_path / seed 5 / churn 2 / loss 0.02
    "events": 1298,
    "messages": 977,
    "fingerprint": "5e7027c57127828f00bdb55f9878bacaba635ecb6c105f580ff8d5a0a08d1604",
    # budget → (events_processed, quiescent, fingerprint at the cut); every
    # cut lands past the 172-fact seeding burst, among the message waves,
    # and resuming each one ends on "fingerprint"
    "cuts": {
        180: (180, False, "042aaf9f5824a435122f7f23e13d64f0f220414d0851cb303797fbb698aac0ff"),
        181: (181, False, "3846bde28ebafc9e8bdc7d2d31d2f312bdb919b6b56c137c8ab8b2b0431fe9e1"),
        250: (250, False, "552325ba082bdb9c77610717b6a77696e88cea73feb8492db905c0f34a333512"),
        500: (500, False, "a9ada6e4d1bcb2a3ca1a7dc4bbf9ff2c87abf4f4221843d86f601eb57c7ef891"),
        777: (777, False, "c655ea5df8c23c682e6c3b47a7f3c073f324654166948e3e5700983a6d5d2d8f"),
        1000: (1000, False, "668480e4ca570dc939aa05bd6fcf10d3502a2ed915403284ff641ad7c4bb3f17"),
        1297: (1297, False, "cd19508ef82a78f0c5cba1d68643f4f2e9957cdfc22ed62a3c9b63f1d5193af0"),
    },
    # the first message wave: 184 units (seeding burst and first flushes)
    # before it, 107 messages in it; cuts 1, k-1, k and k+1 units in
    "first_wave": (184, 107),
    "wave_cuts": {
        "1": (185, False, "1395019ada70ff4404d18c2564a8d2a527f99a32531780d98d2e3b1302b2af75"),
        "k-1": (290, False, "9be73e741f6c69abbd2563dd50670f6381dc06cc0f00aadbe8f8959a2c455141"),
        "k": (291, False, "37d77c4243f00d413fd61026916d88ee3bf56de64473149d30a4fb96febabb5d"),
        "k+1": (292, False, "d5021a5f66d5361bfef928e93fab7ee6e3506464ad78577e055cd934f4116e11"),
    },
    # mixed_delay_engine: at t=0.02 a 6-message wave (units 30-35), the
    # injection (36), the link failure (37), a 9-message wave (38-46)
    "mixed": (158, "bb3ad5927967a52fdbcc9aa8f6e92996ce3a4e9fde783e610dd23775d95eefae"),
    "mixed_cuts": {
        32: "55c2b21df8def684a2622111c63c00581ffa838ce0c14eb57cb91b7f753dbae4",
        36: "fe69e5436cd470bb127b6a67d98be00042870fd028393c658b026db520cb0c04",
        37: "0277dd6d896412898dd0c6d3b832c6ad7ec0152f756ad8bec4329e6602364801",
        41: "c63c49315482b92ff8587fb38cef76d79321ad0735da7f7ddc2c87d21c0290ac",
        46: "347a647bd97f4909663ca97b31d717015e53e354726bd9eb4275cc2d676855f1",
    },
    # serving_acks(60): boot and three updates, each settle cut at 60 events
    "serving": (
        [(False, 60), (False, 120), (False, 180), (False, 240)],
        "a5f21403d6a014f3b5d3b21ae98d7afe5b1cb05193705c9258e41ebc79f06954",
    ),
}


def scenario():
    return generate_scenario(
        "power_law",
        size=12,
        seed=5,
        policy="shortest_path",
        churn_events=2,
        churn_restore_delay=1.0,
        loss=0.02,
    )


def pinned_engine(shards: int = 1, **config):
    """The pinned scenario's engine (churn applied, not yet seeded) and its
    policy facts."""

    sc = scenario()
    engine = create_engine(
        policy_path_vector_program(),
        sc.topology,
        config=EngineConfig(
            seed=5, shards=shards, shard_transport="inline", **{"max_events": BIG, **config}
        ),
    )
    sc.churn.apply_to_engine(engine)
    return engine, sc.policy_fact_list()


def run_cut(budget: int, shards: int = 1) -> tuple[int, bool, str, str]:
    """Run the pinned scenario with ``budget`` events, then resume it to the
    end: ``(events at the cut, quiescent at the cut, fingerprint at the cut,
    final fingerprint)``."""

    engine, facts = pinned_engine(shards, max_events=budget)
    try:
        trace = engine.run(until=30.0, extra_facts=facts)
        at_cut = (trace.events_processed, trace.quiescent, trace.fingerprint())
        engine.config.max_events = BIG
        trace = engine.run(until=30.0)
        assert trace.quiescent
        if isinstance(engine, ShardedEngine):
            engine.validate_shards()
        return (*at_cut, trace.fingerprint())
    finally:
        engine.close()


# ----------------------------------------------------------------------
# (a) the pins: same fingerprints, same budget boundaries
# ----------------------------------------------------------------------
def test_convergence_matches_the_per_message_pin(rule_tier):
    engine, facts = pinned_engine()
    trace = engine.run(until=30.0, extra_facts=facts)
    assert trace.quiescent
    assert (trace.events_processed, trace.message_count, trace.fingerprint()) == (
        PINS["events"],
        PINS["messages"],
        PINS["fingerprint"],
    )


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("budget", sorted(PINS["cuts"]))
def test_budget_cut_inside_a_wave_matches_the_per_message_pin(budget, shards):
    *at_cut, final = run_cut(budget, shards)
    assert tuple(at_cut) == PINS["cuts"][budget]
    assert final == PINS["fingerprint"]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("label", ["1", "k-1", "k", "k+1"])
def test_budget_cut_inside_the_first_wave(label, shards):
    assert first_wave() == PINS["first_wave"]
    *at_cut, final = run_cut(wave_budgets()[label], shards)
    assert tuple(at_cut) == PINS["wave_cuts"][label]
    assert final == PINS["fingerprint"]


def test_an_event_scheduled_at_a_due_time_splits_its_wave():
    """Sends from t=0 and t=0.01 share the due time 0.02, but the timer
    scheduled an injection and a link failure there in between: two waves,
    with those events between them, as the per-message queue ran them."""

    engine = mixed_delay_engine()
    scheduler = engine.scheduler
    execute = scheduler._execute
    at_due = []

    def record(entry):
        before = scheduler.processed
        execute(entry)
        if entry[0] == 0.02 and entry[2].kind != "flush":
            at_due.append((entry[2].kind, scheduler.processed - before))

    scheduler._execute = record
    trace = engine.run(until=5.0)
    assert at_due == [("message", 6), ("inject", 1), ("link_failure", 1), ("message", 9)]
    assert (trace.events_processed, trace.fingerprint()) == PINS["mixed"]


@pytest.mark.parametrize("budget", sorted(PINS["mixed_cuts"]))
def test_mixed_delay_cuts_match_the_per_message_pin(budget):
    events, fingerprint = PINS["mixed"]
    assert mixed_delay_run(budget=budget) == (
        budget, False, PINS["mixed_cuts"][budget], fingerprint
    )


def test_mixed_delay_cuts_match_one_event_per_message():
    # every budget from before the first 0.02 wave to past the second
    for budget in range(25, 50):
        assert mixed_delay_run(budget=budget) == mixed_delay_run(PerMessageEngine, budget)


def test_serving_settle_cut_inside_a_wave(monkeypatch):
    from repro.serving import RouteService, ServerConfig

    # a service turns metrics on process-wide: restore the flag afterwards
    monkeypatch.setattr(obs_metrics, "ENABLED", obs_metrics.ENABLED)
    service = RouteService(
        ServerConfig(family="tree", size=10, snapshot_every=0, settle_max_events=60)
    )
    try:
        # the boot settle stopped part way through a wave
        assert any(
            event.kind == "message" and event.callback.done and event.units
            for _, _, event in service.engine.scheduler._queue
        )
    finally:
        service.close()
    assert serving_acks(60) == PINS["serving"]


def test_pending_holds_one_message_entry_per_due_time():
    """Nothing in the pinned run is scheduled at a due time after its wave
    opened, so the queue never holds two message entries for one time."""

    engine, facts = pinned_engine()
    scheduler = engine.scheduler
    execute = scheduler._execute

    def checked(entry):
        execute(entry)
        due = [at for at, _, event in scheduler._queue if event.kind == "message"]
        assert len(due) == len(set(due))

    scheduler._execute = checked
    assert engine.run(until=30.0, extra_facts=facts).message_count == PINS["messages"]


def test_a_wave_is_one_queue_entry():
    """The pinned run ships 977 messages; the scheduler makes a queue
    entry per wave, flush and seeding event, not per message."""

    engine, facts = pinned_engine()
    trace = engine.run(until=30.0, extra_facts=facts)
    entries = next(engine.scheduler._counter)
    assert trace.message_count == 977
    assert entries < trace.message_count // 2


def first_wave() -> tuple[int, int]:
    """``(units before it, its messages)`` for the pinned run's first
    message wave."""

    engine, facts = pinned_engine()
    deliver = engine._deliver
    seen = []

    def record(messages):
        if not seen:
            seen.append((engine.scheduler.processed - len(messages), len(messages)))
        deliver(messages)

    engine._deliver = record
    engine.run(until=30.0, extra_facts=facts)
    return seen[0]


def wave_budgets() -> dict[str, int]:
    start, size = PINS["first_wave"]
    return {"1": start + 1, "k-1": start + size - 1, "k": start + size, "k+1": start + size + 1}


#: (a, b, propagation delay) of the mixed-delay topology
MIXED_LINKS = [(0, 1, 0.01), (1, 2, 0.01), (0, 2, 0.02), (2, 3, 0.02), (3, 4, 0.01), (1, 4, 0.02)]


def mixed_delay_engine(engine_class=DistributedEngine, max_events: int = BIG):
    """Five nodes on links of 0.01 s and 0.02 s: what t=0 sends over a slow
    link and what t=0.01 sends over a fast one are both due at 0.02.  A
    timer at 0.01 — after the first of those sends, before the second —
    schedules a fact injection and a link failure for exactly 0.02."""

    from repro.protocols.pathvector import path_vector_program

    topology = Topology()
    for a, b, delay in MIXED_LINKS:
        topology.add_link(a, b, cost=1 + (a + b) % 3, delay=delay)
    engine = engine_class(
        path_vector_program(), topology, config=EngineConfig(seed=2, max_events=max_events)
    )

    def timer() -> None:
        engine.schedule_fact("link", (4, 0, 5), at=0.02)
        engine.schedule_link_failure(2, 3, at=0.02)

    engine.scheduler.schedule_at(0.01, Event("timer", timer))
    return engine


def mixed_delay_run(engine_class=DistributedEngine, budget: int = BIG) -> tuple:
    """``(events, quiescent, fingerprint)`` at ``budget``, and the final
    fingerprint after resuming."""

    engine = mixed_delay_engine(engine_class, budget)
    trace = engine.run(until=5.0)
    at_cut = (trace.events_processed, trace.quiescent, trace.fingerprint())
    engine.config.max_events = BIG
    trace = engine.run(until=5.0)
    assert trace.quiescent
    return (*at_cut, trace.fingerprint())


def serving_acks(settle_max_events: int) -> tuple[list, str]:
    """A tree-10 daemon whose settle budget runs out mid-run: the
    ``(settled, events)`` of its boot and of three updates, and its final
    fingerprint."""

    from repro.serving import RouteService, ServerConfig

    service = RouteService(
        ServerConfig(
            family="tree", size=10, snapshot_every=0, settle_max_events=settle_max_events
        )
    )
    try:
        engine = service.engine
        acks = [(service.settled, engine.scheduler.processed)]
        for verb, args in [
            ("link_fail", {"src": 0, "dst": 1}),
            ("cost_change", {"src": 1, "dst": 3, "cost": 4}),
            ("link_restore", {"src": 0, "dst": 1}),
        ]:
            ack = service.apply_update(verb, args)
            acks.append((ack["settled"], engine.scheduler.processed))
        return acks, service.query("fingerprint", {})["fingerprint"]
    finally:
        service.close()


# ----------------------------------------------------------------------
# (b) the oracle: a per-message engine, under randomized inputs
# ----------------------------------------------------------------------
class PerMessageEngine(DistributedEngine):
    """The engine before waves: every shipped tuple is its own one-unit
    ``message`` event."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        scheduler = self.scheduler

        def post(delay, kind, deliver, item):
            return scheduler.schedule(delay, Event(kind, lambda: deliver([item])))

        scheduler.post = post


@st.composite
def networks(draw):
    """A connected topology of 4-6 nodes whose links carry one of three
    propagation delays (so one settle's messages split into several waves),
    a loss rate, and a link to fail and restore."""

    n = draw(st.integers(4, 6))
    delays = st.sampled_from([0.005, 0.01, 0.02])
    topology = Topology()
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges += [(a, b) for a, b in extra if a != b and (a, b) not in edges and (b, a) not in edges]
    loss = draw(st.sampled_from([0.0, 0.05]))
    for a, b in edges:
        topology.add_link(
            a, b, cost=draw(st.integers(1, 4)), delay=draw(delays), loss=loss
        )
    return topology, draw(st.sampled_from(edges))


def oracle_run(engine_class, topology, flap, budget) -> tuple[str, str]:
    from repro.protocols.pathvector import path_vector_program

    engine = engine_class(
        path_vector_program(),
        topology,
        config=EngineConfig(seed=11, max_events=budget),
    )
    engine.schedule_link_failure(*flap, at=0.05)
    engine.schedule_link_restore(*flap, at=0.1)
    at_cut = engine.run(until=5.0).fingerprint()
    engine.config.max_events = BIG
    trace = engine.run(until=5.0)
    assert trace.quiescent
    return at_cut, trace.fingerprint()


@settings(max_examples=25, deadline=None)
@given(network=networks(), budget=st.integers(1, 400))
def test_waves_match_one_event_per_message(network, budget):
    topology, flap = network
    # the two engines mutate the topology they run on (the flap): one copy each
    waves = oracle_run(DistributedEngine, _copy(topology), flap, budget)
    singles = oracle_run(PerMessageEngine, _copy(topology), flap, budget)
    assert waves == singles


def _copy(topology: Topology) -> Topology:
    copy = Topology()
    for node in topology.nodes:
        copy.add_node(node)
    for link in topology.links():
        copy.add_link(
            link.src, link.dst, cost=link.cost, delay=link.delay, loss=link.loss,
            symmetric=False,
        )
    return copy


# ----------------------------------------------------------------------
# (c) a dropped engine is freed at once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("monitored", [False, True])
def test_dropped_engine_is_freed_without_the_cycle_collector(monitored):
    """The executor takes the engine's effect callbacks per settle instead
    of keeping them, and monitors hold their engine weakly, so an engine
    is no reference cycle: dropping the last reference frees its tables at
    once, not at the next full collection."""

    engine, facts = pinned_engine()
    monitors = [build_monitor(kind, POLICY_SCHEMA) for kind in MONITOR_KINDS]
    if monitored:
        for monitor in monitors:
            engine.attach_monitor(monitor)
    gc.disable()
    try:
        engine.run(until=30.0, extra_facts=facts)
        engine.finalize_monitors()
        alive = weakref.ref(engine)
        del engine
        assert alive() is None
    finally:
        gc.enable()
    assert all(monitor.ok for monitor in monitors)
