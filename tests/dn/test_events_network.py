"""Unit tests for the event scheduler and network topology."""

import pytest

from repro.dn.events import Event, EventScheduler
from repro.dn.network import Channel, Topology


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(0.5, Event("b", lambda: fired.append("b")))
        scheduler.schedule(0.1, Event("a", lambda: fired.append("a")))
        scheduler.schedule(0.9, Event("c", lambda: fired.append("c")))
        scheduler.run()
        assert fired == ["a", "b", "c"]
        assert scheduler.now == pytest.approx(0.9)

    def test_fifo_tie_breaking(self):
        scheduler = EventScheduler()
        fired = []
        for name in "abc":
            scheduler.schedule(1.0, Event(name, lambda n=name: fired.append(n)))
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_run_until(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, Event("a", lambda: fired.append("a")))
        scheduler.schedule(5.0, Event("b", lambda: fired.append("b")))
        scheduler.run(until=2.0)
        assert fired == ["a"]
        assert scheduler.pending == 1

    def test_cannot_schedule_in_past(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, Event("a", lambda: None))
        scheduler.run()
        with pytest.raises(ValueError):
            scheduler.schedule_at(0.5, Event("late", lambda: None))

    def test_events_scheduled_during_run_are_processed(self):
        scheduler = EventScheduler()
        fired = []

        def chain():
            fired.append("first")
            scheduler.schedule(0.1, Event("second", lambda: fired.append("second")))

        scheduler.schedule(0.0, Event("first", chain))
        scheduler.run()
        assert fired == ["first", "second"]

    def test_max_events_budget(self):
        scheduler = EventScheduler()

        def reschedule():
            scheduler.schedule(0.01, Event("loop", reschedule))

        scheduler.schedule(0.0, Event("loop", reschedule))
        processed = scheduler.run(max_events=25)
        assert processed == 25

    def test_weighted_event_is_charged_by_units_and_keeps_its_place(self):
        """An event standing for 5 units behaves like 5 one-unit events
        scheduled back to back: a budget cut inside it stops mid-way, and
        the remainder still runs before everything scheduled after it."""

        scheduler = EventScheduler()
        fired = []

        units = iter(range(5))

        def burst(allowance):
            for _ in range(allowance):
                unit = next(units)
                fired.append(f"u{unit}")
                if unit == 0:
                    # scheduled from inside the burst, at the same time
                    scheduler.schedule(0.0, Event("inner", lambda: fired.append("inner")))

        scheduler.schedule(0.0, Event("before", lambda: fired.append("before")))
        scheduler.schedule(0.0, Event("burst", burst, units=5))
        scheduler.schedule(0.0, Event("after", lambda: fired.append("after")))
        assert scheduler.pending == 3
        assert scheduler.run(max_events=3) == 3
        assert fired == ["before", "u0", "u1"]
        assert scheduler.processed == 3 and scheduler.pending_kinds() == {
            "burst", "after", "inner",
        }
        # nobody but the run loop may take a weighted event off the queue
        assert scheduler.pop_if(lambda at, event: True) is None
        assert scheduler.run(max_events=2) == 2
        assert fired[3:] == ["u2", "u3"]
        assert scheduler.run() == 3
        assert fired[5:] == ["u4", "after", "inner"]
        assert scheduler.processed == 8 and scheduler.is_empty


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
        assert channel.delay(1, 2) == 0.25
        assert channel.delay(5, 6) == topo.default_delay

    def test_lossless_by_default(self):
        topo = Topology.from_edges([(1, 2)])
        channel = Channel(topo, seed=1)
        assert not any(channel.should_drop(1, 2) for _ in range(100))

    def test_lossy_channel_drops_some(self):
        topo = Topology(default_delay=0.01)
        topo.add_link(1, 2, loss=0.5)
        channel = Channel(topo, seed=42)
        drops = sum(channel.should_drop(1, 2) for _ in range(200))
        assert 0 < drops < 200
        assert channel.dropped == drops
