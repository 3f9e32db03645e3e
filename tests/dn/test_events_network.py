"""Unit tests for the event scheduler and network topology."""

import random

import pytest

from repro.dn.events import Event, EventScheduler
from repro.dn.network import Channel, Topology


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        fired = []
        handlers = {"fire": fired.append}
        scheduler = EventScheduler()
        scheduler.schedule(0.5, Event("fire", ("b",)))
        scheduler.schedule(0.1, Event("fire", ("a",)))
        scheduler.schedule(0.9, Event("fire", ("c",)))
        scheduler.run(handlers)
        assert fired == ["a", "b", "c"]
        assert scheduler.now == pytest.approx(0.9)

    def test_fifo_tie_breaking(self):
        fired = []
        handlers = {"fire": fired.append}
        scheduler = EventScheduler()
        for name in "abc":
            scheduler.schedule(1.0, Event("fire", (name,)))
        scheduler.run(handlers)
        assert fired == ["a", "b", "c"]

    def test_run_until(self):
        fired = []
        handlers = {"fire": fired.append}
        scheduler = EventScheduler()
        scheduler.schedule(1.0, Event("fire", ("a",)))
        scheduler.schedule(5.0, Event("fire", ("b",)))
        scheduler.run(handlers, until=2.0)
        assert fired == ["a"]
        assert scheduler.pending == 1

    def test_cannot_schedule_in_past(self):
        handlers = {"a": lambda: None}
        scheduler = EventScheduler()
        scheduler.schedule(1.0, Event("a"))
        scheduler.run(handlers)
        with pytest.raises(ValueError):
            scheduler.schedule_at(0.5, Event("a"))

    def test_events_scheduled_during_run_are_processed(self):
        fired = []

        def chain():
            fired.append("first")
            scheduler.schedule(0.1, Event("fire", ("second",)))

        handlers = {"fire": fired.append, "first": chain}
        scheduler = EventScheduler()
        scheduler.schedule(0.0, Event("first"))
        scheduler.run(handlers)
        assert fired == ["first", "second"]

    def test_max_events_budget(self):
        def reschedule():
            scheduler.schedule(0.01, Event("loop"))

        handlers = {"loop": reschedule}
        scheduler = EventScheduler()
        scheduler.schedule(0.0, Event("loop"))
        processed = scheduler.run(handlers, max_events=25)
        assert processed == 25

    def test_weighted_event_is_charged_by_units_and_keeps_its_place(self):
        """An event standing for 5 units behaves like 5 one-unit events
        scheduled back to back: a budget cut inside it stops mid-way, and
        the remainder still runs before everything scheduled after it."""

        fired = []

        def burst(units):
            for unit in units:
                fired.append(f"u{unit}")
                if unit == 0:
                    # scheduled from inside the burst, at the same time
                    scheduler.schedule(0.0, Event("inner", ("inner",)))

        handlers = {"before": fired.append, "burst": burst, "after": fired.append, "inner": fired.append}
        scheduler = EventScheduler()
        scheduler.schedule(0.0, Event("before", ("before",)))
        scheduler.schedule(0.0, Event("burst", list(range(5)), units=5))
        scheduler.schedule(0.0, Event("after", ("after",)))
        assert scheduler.pending == 3
        assert scheduler.run(handlers, max_events=3) == 3
        assert fired == ["before", "u0", "u1"]
        assert scheduler.processed == 3 and scheduler.pending_kinds() == {
            "burst", "after", "inner",
        }
        # nobody but the run loop may take a weighted event off the queue
        assert scheduler.pop_if(lambda at, event: True) is None
        assert scheduler.run(handlers, max_events=2) == 2
        assert fired[3:] == ["u2", "u3"]
        assert scheduler.run(handlers) == 3
        assert fired[5:] == ["u4", "after", "inner"]
        assert scheduler.processed == 8 and scheduler.is_empty

    def test_posts_share_a_wave_until_something_else_is_scheduled_there(self):
        """Items posted for one time ride one queue entry; an event
        scheduled at that time in between closes the wave, so every item
        still runs where it would have as its own event."""

        log = []
        handlers = {"m": log.append, "other": log.append, "x": log.append}
        scheduler = EventScheduler()
        scheduler.post(1.0, "m", "a")
        scheduler.post(1.0, "m", "b")
        scheduler.post(2.0, "m", "d")
        scheduler.schedule(1.0, Event("x", ("x",)))
        scheduler.schedule_at(2.0, Event("x", ("y",)))
        scheduler.post(1.0, "m", "c")
        scheduler.post(2.0, "m", "f")
        scheduler.post(1.0, "other", "e")  # another kind: a new wave
        assert scheduler.pending == 7
        assert scheduler.run(handlers) == 8
        assert log == [["a", "b"], "x", ["c"], ["e"], ["d"], "y", ["f"]]

    def test_a_budget_cut_splits_a_wave_in_place(self):
        log = []
        handlers = {"m": log.append, "after": log.append}
        scheduler = EventScheduler()
        for item in "abc":
            scheduler.post(0.0, "m", item)
        scheduler.schedule(0.0, Event("after", ("after",)))
        assert scheduler.run(handlers, max_events=2) == 2
        assert log == [["a", "b"]]
        assert scheduler.run(handlers) == 2
        assert log == [["a", "b"], ["c"], "after"]

    def test_pending_units_count_what_a_budget_would(self):
        """One unit per ordinary event and per wave item not yet run, over
        the kinds not excluded."""

        scheduler = EventScheduler()
        for item in "abc":
            scheduler.post(0.0, "m", item)
        scheduler.schedule(0.0, Event("after", ("after",)))
        assert scheduler.pending_units() == 4
        assert scheduler.pending_units(exclude=frozenset({"after"})) == 3
        scheduler.run({"m": list, "after": str}, max_events=2)
        assert scheduler.pending_units() == 2
        assert scheduler.pending_units(exclude=frozenset({"m"})) == 1

    def test_a_wave_that_ran_takes_no_more_posts(self):
        log = []
        handlers = {"m": log.append}
        scheduler = EventScheduler()
        scheduler.post(0.0, "m", "a")
        scheduler.run(handlers)
        scheduler.post(0.0, "m", "b")  # same time, after the run
        assert scheduler.run(handlers) == 1
        assert log == [["a"], ["b"]]


class TestTopology:
    def test_symmetric_links_and_facts(self):
        topo = Topology.from_edges([("a", "b", 3)])
        assert topo.link("a", "b").cost == 3
        assert topo.link("b", "a").cost == 3
        assert set(topo.link_facts()) == {("a", "b", 3), ("b", "a", 3)}

    def test_neighbors_and_counts(self):
        topo = Topology.from_edges([(1, 2), (2, 3)])
        assert set(topo.neighbors(2)) == {1, 3}
        assert topo.node_count == 3

    def test_fail_and_restore_link(self):
        topo = Topology.from_edges([(1, 2), (2, 3)])
        affected = topo.fail_link(1, 2)
        assert len(affected) == 2
        assert set(topo.neighbors(1)) == set()
        assert len(topo.link_facts()) == 2
        topo.restore_link(1, 2)
        assert set(topo.neighbors(1)) == {2}

    def test_set_cost(self):
        topo = Topology.from_edges([(1, 2, 1)])
        topo.set_cost(1, 2, 9)
        assert topo.link(2, 1).cost == 9

    def test_networkx_round_trip(self):
        topo = Topology.from_edges([(1, 2, 4), (2, 3, 5)])
        graph = topo.to_networkx()
        assert graph.number_of_edges() == 4  # directed both ways
        back = Topology.from_networkx(graph.to_undirected())
        assert back.link(1, 2).cost == 4

    def test_diameter(self):
        topo = Topology.from_edges([(1, 2), (2, 3), (3, 4)])
        assert topo.diameter() == 3


class TestChannel:
    def test_delay_comes_from_link(self):
        topo = Topology.from_edges([(1, 2)])
        topo.link(1, 2).delay = 0.25
        channel = Channel(topo)
        assert channel.transit(1, 2) == 0.25
        assert channel.transit(5, 6) == topo.default_delay

    def test_lossless_by_default(self):
        topo = Topology.from_edges([(1, 2)])
        channel = Channel(topo, seed=1)
        state = channel._random.getstate()
        assert all(channel.transit(1, 2) is not None for _ in range(100))
        assert channel._random.getstate() == state  # a lossless link draws nothing

    def test_lossy_channel_drops_some(self):
        topo = Topology(default_delay=0.01)
        topo.add_link(1, 2, delay=0.3, loss=0.5)
        channel = Channel(topo, seed=42)
        outcomes = [channel.transit(1, 2) for _ in range(200)]
        drops = outcomes.count(None)
        assert 0 < drops < 200
        assert channel.dropped == drops
        assert set(outcomes) == {None, 0.3}
        # one draw per message, the same stream the loss decision always used
        draws = random.Random(42)
        assert [draws.random() < 0.5 for _ in range(200)] == [o is None for o in outcomes]
