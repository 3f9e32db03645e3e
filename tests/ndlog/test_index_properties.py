"""Property tests for the hash-index layer of the tuple store.

A table probe has to agree with a full-scan filter after any mutation
sequence — insertions, deletions, keyed replacement, FIFO eviction,
soft-state expiry — and rows holding unhashable values must stay out of the
index without being lost to the scan path.  (That indexed joins reach the
scan-join fixpoint is checked in ``test_codegen_conformance.py``, against
the reference interpreter.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ndlog.store import Table

nodes = st.integers(min_value=0, max_value=5)


# ---------------------------------------------------------------------------
# Table probe == scan filter under mutation
# ---------------------------------------------------------------------------

row_values = st.tuples(nodes, nodes, st.integers(min_value=1, max_value=3))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), row_values),
        st.tuples(st.just("delete"), row_values),
    ),
    max_size=40,
)


class TestProbeMatchesScan:
    @settings(max_examples=50, deadline=None)
    @given(ops=operations, positions=st.sets(st.integers(0, 2), min_size=1, max_size=3))
    def test_probe_after_mutations(self, ops, positions):
        table = Table("p", keys=(0, 1))
        positions = tuple(sorted(positions))
        # probe early so the index must be *maintained*, not rebuilt
        table.probe(positions, (0,) * len(positions))
        for op, row in ops:
            if op == "insert":
                table.insert(row)
            else:
                table.delete(row)
        for row in table.rows():
            probe_values = tuple(row[p] for p in positions)
            expected = [
                r for r in table.rows() if tuple(r[p] for p in positions) == probe_values
            ]
            assert sorted(table.probe(positions, probe_values)) == sorted(expected)
        assert table.probe(positions, (99,) * len(positions)) == []

    @settings(max_examples=30, deadline=None)
    @given(ops=operations)
    def test_probe_after_expiry(self, ops):
        table = Table("soft", keys=(0, 1), lifetime=5.0)
        now = 0.0
        for op, row in ops:
            now += 0.5
            if op == "insert":
                table.insert(row, now)
            else:
                table.delete(row)
            table.expire(now - 4.0)
        table.expire(now)
        for row in table.rows():
            assert row in table.probe((0,), (row[0],))
        live = set(table.rows())
        for bucket_rows in [table.probe((0,), (v,)) for v in range(6)]:
            for row in bucket_rows:
                assert tuple(row) in live

    def test_index_survives_keyed_replacement(self):
        table = Table("route", keys=(0, 1))
        table.insert((1, 2, "old"))
        assert table.probe((2,), ("old",)) == [(1, 2, "old")]
        table.insert((1, 2, "new"))
        assert table.probe((2,), ("old",)) == []
        assert table.probe((2,), ("new",)) == [(1, 2, "new")]

    def test_index_respects_fifo_eviction(self):
        table = Table("small", max_size=2)
        table.insert((1,))
        assert table.probe((0,), (1,)) == [(1,)]
        table.insert((2,))
        table.insert((3,))  # evicts (1,)
        assert table.probe((0,), (1,)) == []
        assert table.probe((0,), (3,)) == [(3,)]

    def test_unhashable_probe_value_raises_typeerror(self):
        table = Table("p")
        table.insert((1, 2))
        with pytest.raises(TypeError):
            table.probe((0,), ([1, 2],))


class TestUnhashableRows:
    def test_insert_with_existing_index_tolerates_unhashable_values(self):
        # regression: building an index and then inserting a row whose value
        # at the indexed position is unhashable used to raise TypeError
        table = Table("p", keys=(0,))
        table.insert((1, "a"))
        assert table.probe((1,), ("a",)) == [(1, "a")]
        table.insert((2, ["unhashable"]))
        assert (2, ["unhashable"]) in table
        # hashable probes still work; the unhashable row can never match one
        assert table.probe((1,), ("a",)) == [(1, "a")]
        # probing with the unhashable value raises, and the scan path finds it
        with pytest.raises(TypeError):
            table.probe((1,), (["unhashable"],))
        assert (2, ["unhashable"]) in table.rows()

    def test_delete_unhashable_row_with_existing_index(self):
        table = Table("p", keys=(0,))
        table.probe((1,), ("x",))  # force index creation
        table.insert((1, ["v"]))
        assert table.delete((1, ["v"]))
        assert table.rows() == []

    def test_insert_delete_probe_round_trip_with_unhashable_rows(self):
        # insert → delete → probe cycles must keep the index and the
        # scan-fallback bookkeeping consistent: unhashable rows never enter
        # the index, hashable rows must stay probe-able throughout
        table = Table("p", keys=(0,))
        table.probe((1,), ("seed",))  # index exists before any mutation
        table.insert((1, "a"))
        table.insert((2, ["u1"]))
        table.insert((3, "a"))
        table.insert((4, ["u2"]))
        assert sorted(table.probe((1,), ("a",))) == [(1, "a"), (3, "a")]
        assert table.delete((2, ["u1"]))
        assert sorted(table.probe((1,), ("a",))) == [(1, "a"), (3, "a")]
        assert (2, ["u1"]) not in table.rows()
        # scan fallback (unhashable probe) sees exactly the surviving rows
        with pytest.raises(TypeError):
            table.probe((1,), (["u2"],))
        assert (4, ["u2"]) in table.rows()
        assert table.delete((4, ["u2"]))
        assert (4, ["u2"]) not in table.rows()
        # re-insert after delete round-trips cleanly
        table.insert((2, ["u1"]))
        assert (2, ["u1"]) in table
        assert table.delete((2, ["u1"]))
        assert sorted(table.rows()) == [(1, "a"), (3, "a")]

    def test_keyed_replacement_between_hashable_and_unhashable(self):
        table = Table("p", keys=(0,))
        table.probe((1,), ("x",))
        table.insert((1, "x"))
        table.insert((1, ["now-unhashable"]))  # replaces the indexed row
        assert table.probe((1,), ("x",)) == []
        assert (1, ["now-unhashable"]) in table
        table.insert((1, "y"))  # back to an indexable row
        assert table.probe((1,), ("y",)) == [(1, "y")]
        assert table.delete((1, "y"))
        assert table.rows() == []
        assert table.probe((1,), ("y",)) == []

    def test_release_and_counts_with_unhashable_values(self):
        table = Table("p", keys=(0,))
        table.insert((1, ["v"]))
        table.insert((1, ["v"]))  # second support for the same row
        assert table.count_of((1, ["v"])) == 2
        assert not table.release((1, ["v"]))
        assert table.release((1, ["v"]))
        assert table.delete((1, ["v"]))
        assert table.rows() == []

    def test_expiry_of_unhashable_rows_with_index(self):
        table = Table("soft", keys=(0,), lifetime=1.0)
        table.probe((1,), ("x",))
        table.insert((1, ["v"]), now=0.0)
        table.insert((2, "x"), now=0.5)
        assert table.expire(1.2) == [(1, ["v"])]
        assert table.probe((1,), ("x",)) == [(2, "x")]
