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
They moved again when aggregate changes began to be emitted in group-key
order (not memo-set order): every fingerprint and the counts; the cut
budgets were kept, so the last one is no longer one event before the end.
The pinned scenario is lossy, and the channel draws loss per message in
send order, so a reordered send drops other messages.  With its loss set
to 0 the same runs end, before and after that change, on equal tables and
per-settle change multisets at every cut and at the end, except the cut at
500 events: it lands on another intermediate state, and its resumed run
picks other ``bestRoute`` tie winners (equal ``bestRouteRank`` rows).  The
mixed-delay runs are lossless, and their tables and multisets are equal
throughout.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dn import DistributedEngine, EngineConfig, ShardedEngine, Topology, create_engine
from repro.dn.events import Event
from repro.dn.monitors import MONITOR_KINDS, POLICY_SCHEMA, build_monitor
from repro.obs import metrics as obs_metrics
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario

BIG = 10_000_000

PINS = {
    # power_law-12 / shortest_path / seed 5 / churn 2 / loss 0.02
    "events": 1315,
    "messages": 985,
    "fingerprint": "c37265e30060ac25f62961ac8edc5c9582a16bf3f653bf3443a846af01e7e103",
    # budget → (events_processed, quiescent, fingerprint at the cut); every
    # cut lands past the 172-fact seeding burst, among the message waves,
    # and resuming each one ends on "fingerprint"
    "cuts": {
        180: (180, False, "b12c483e363f7830fef88c0d842e50626fe228ec4244bf72245c7f9d86968f9c"),
        181: (181, False, "9834638973c065c94c8ed37f81d18126e621bcc394149e9a0bd2984d367d4254"),
        250: (250, False, "db519c82592fac571f337cc2965418b0b923105e45bb73febd6db9e58222abb4"),
        500: (500, False, "001641d64b6fc9e7407426f81804a7587a3b621a84042126d853eacc35b1bb2c"),
        777: (777, False, "4c4cf270af446476560af411e4fea730edd49a88109ae217460750eeaa3ebdd8"),
        1000: (1000, False, "7f2f7866289ff68fc9a69d3ec33b02e27b8a614fd62541288a2c9e07cbd4ec99"),
        1297: (1297, False, "09b05c07add69d0d393a0297f5b61a06161cf9a7bed15726741a22877627f3d9"),
    },
    # the first message wave: 184 units (seeding burst and first flushes)
    # before it, 107 messages in it; cuts 1, k-1, k and k+1 units in
    "first_wave": (184, 107),
    "wave_cuts": {
        "1": (185, False, "b7af136345c4805fd805c972a16008ec52ab7091ce9b889f573c901ba52a9a67"),
        "k-1": (290, False, "6943471ef2f04f6d5189d7b14129f8c3a9629f18b44c0d318cac350a84d12655"),
        "k": (291, False, "a15edb36cf24c1a8df75e3d12cbbee04ec1685d059828211719cafc456ca2c38"),
        "k+1": (292, False, "dbe1d362fd65432d96c0183d56d3b89282d7a9698a064206ffe0de129ac1ec96"),
    },
    # mixed_delay_engine: at t=0.02 a 6-message wave (units 30-35), the
    # injection (36), the link failure (37), a 9-message wave (38-46)
    "mixed": (158, "cff7e202a2c2cfee0155ba83d12661291274541a91d204590e955256abb72fc7"),
    "mixed_cuts": {
        32: "61a85fda98281f86425dbd0dd2e49c5829999ba09356a159e69421f6e34b1b07",
        36: "ab373207e0f512433f530f211ab7da35e86a2c509e5cf550ec44a6b180f574e8",
        37: "637e3a094cea73e58e2dc4e9cbe9db27d7ed38f358ef33b9154c7654a75536bb",
        41: "17cab825cf71002af6800ee015e52e23ec282b308721ebc5faa1f4388767e8c7",
        46: "0aa65233b7a1340986a57a6cace5479a69e0da19250c9cd4f354adbea7278d44",
    },
    # serving_acks(60): boot and three updates, each settle cut at 60 events
    "serving": (
        [(False, 60), (False, 120), (False, 180), (False, 240)],
        "5ee6fe4498b330e99493c4c15df4bb7e61fd14f579671db2a6c63de8532ded83",
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
            event.kind == "message" and event.done and event.units
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
    """The pinned run ships 985 messages; the scheduler makes a queue
    entry per wave, flush and seeding event, not per message."""

    engine, facts = pinned_engine()
    trace = engine.run(until=30.0, extra_facts=facts)
    entries = next(engine.scheduler._counter)
    assert trace.message_count == PINS["messages"]
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

    engine._refresh_round = timer  # the handler of a one-shot event at 0.01
    engine.schedule_refresh(0.01)
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

        def post(delay, kind, item):
            return scheduler.schedule(delay, Event(kind, [item], units=1))

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
