"""Events are data: an engine is captured between any two events.

Every scheduled event is ``Event(kind, args, units)`` with picklable
arguments, and the scheduler dispatches on ``kind``, so
:meth:`~repro.dn.engine.DistributedEngine.capture` takes the whole queue —
the seeding burst and message waves part-way through included — with each
node's pending ops and flush marks.  A churned, lossy policy run is cut at
every event boundary (one unit of ``max_events`` at a time) on 1 and 2
inline shards; each cut is pickled, restored on both shard counts and run
to the end, and must reproduce the uninterrupted run's fingerprint and
tables.  A few cuts run on 2 process shards: one inside the seeding burst,
one inside a message wave.
"""

import pickle
from functools import lru_cache

import pytest

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.dn.engine import restore_engine
from repro.scenarios import generate_scenario

BIG = 10_000_000
#: (family, size) of the churned runs: small, so every cut is affordable
NETWORKS = [("tree", 5), ("power_law", 6)]


def config(shards: int, transport: str = "inline", max_events: int = BIG) -> EngineConfig:
    return EngineConfig(seed=1, shards=shards, shard_transport=transport, max_events=max_events)


def build(family: str, size: int, cfg: EngineConfig):
    """A seeded policy engine with one link failed, restored and re-costed
    while routes are still spreading, before its first run."""

    scenario = generate_scenario(family, size=size, seed=1, policy="gao_rexford", loss=0.05)
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=cfg)
    src, dst, cost = min(
        (link.src, link.dst, link.cost) for link in scenario.topology.links() if link.src < link.dst
    )
    engine.schedule_link_failure(src, dst, at=0.02)
    engine.schedule_link_restore(src, dst, at=0.05)
    engine.schedule_cost_change(src, dst, cost + 2, at=0.08)
    engine.seed_facts(scenario.policy_fact_list())
    return engine


def outcome(engine) -> tuple:
    """``(fingerprint, events, {node: {predicate: rows}})`` of a finished
    run (whole snapshots: a node and a sharded row view list the same
    predicates)."""

    trace = engine.trace
    assert trace.quiescent
    tables = {node_id: engine.nodes[node_id].snapshot() for node_id in sorted(engine.nodes)}
    return trace.fingerprint(), trace.events_processed, tables


@lru_cache(maxsize=None)
def reference(family: str, size: int) -> tuple:
    engine = build(family, size, config(1))
    try:
        engine.run()
        return outcome(engine)
    finally:
        engine.close()


def resume(blob: bytes, cfg: EngineConfig) -> tuple:
    """Restore a pickled capture on ``cfg``, check it stands where the
    capture was taken (queue, open waves, pending ops, flush marks), and
    run it to the end."""

    state = pickle.loads(blob)
    engine = restore_engine(policy_path_vector_program(), state, config=cfg)
    try:
        again = engine.capture()
        for part in ("scheduler", "pending", "flush_marks"):
            assert again[part] == state[part], part
        engine.run()
        return outcome(engine)
    finally:
        engine.close()


def cuts(family: str, size: int, shards: int):
    """Step an engine on ``shards`` inline shards one event unit at a time,
    yielding ``(k, pickled capture)`` at every boundary, from before the
    first event to quiescence; the stepped run must end on the reference."""

    engine = build(family, size, config(shards, max_events=1))
    try:
        k = 0
        while True:
            assert engine.scheduler.processed == k
            yield k, pickle.dumps(engine.capture(), pickle.HIGHEST_PROTOCOL)
            if engine.scheduler.is_empty:
                break
            engine.run()
            k += 1
        assert outcome(engine) == reference(family, size)
    finally:
        engine.close()


def split_units(blob: bytes) -> set[str]:
    """Kinds of the weighted events a capture holds part-way through."""

    events = pickle.loads(blob)["scheduler"]["events"]
    return {kind for _, _, kind, _, units, done in events if units and done}


def pending_kinds(blob: bytes) -> set[str]:
    return {event[2] for event in pickle.loads(blob)["scheduler"]["events"]}


#: where the process-shard cuts land: inside the seeding burst, inside a
#: message wave, and between the link failure and its restore
PROCESS_CUTS = {
    "seed": lambda blob: "seed" in split_units(blob),
    "message": lambda blob: "message" in split_units(blob),
    "churn": lambda blob: {"link_failure", "link_restore"} & pending_kinds(blob)
    == {"link_restore"},
}


@lru_cache(maxsize=None)
def first_cut(family: str, size: int, where: str) -> int:
    """The first boundary whose capture matches ``PROCESS_CUTS[where]``."""

    return next(k for k, blob in cuts(family, size, 1) if PROCESS_CUTS[where](blob))


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("family, size", NETWORKS)
def test_every_cut_resumes_to_the_uninterrupted_run(family, size, shards):
    expected = reference(family, size)
    split = set()
    for k, blob in cuts(family, size, shards):
        split |= split_units(blob)
        for restore_shards in (1, 2):
            assert resume(blob, config(restore_shards)) == expected, (k, restore_shards)
    # the sweep cut inside the seeding burst and inside message waves
    assert split == {"seed", "message"}
    assert k == expected[1]


@pytest.mark.parametrize("where", sorted(PROCESS_CUTS))
def test_process_shards_resume_a_cut(where):
    family, size = NETWORKS[1]
    engine = build(family, size, config(2, "process", max_events=first_cut(family, size, where)))
    try:
        engine.run()
        blob = pickle.dumps(engine.capture())
    finally:
        engine.close()
    assert PROCESS_CUTS[where](blob)
    expected = reference(family, size)
    assert resume(blob, config(2, "process")) == expected
    assert resume(blob, config(1)) == expected


def test_capture_inside_an_event_is_refused():
    family, size = NETWORKS[0]
    engine = build(family, size, config(1))
    refusals = []

    def flush(node_id):
        try:
            engine.capture()
        except Exception as exc:  # noqa: BLE001 - the refusal is the point
            refusals.append(str(exc))
        flush_node(node_id)

    flush_node = engine._flush
    engine._flush = flush
    engine.run()
    assert refusals and all("capture" in message for message in refusals)
    engine.close()
