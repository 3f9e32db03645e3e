"""Property tests for the hash-index layer of the tuple store.

A table probe has to agree with a full-scan filter after any mutation
sequence — insertions, deletions, keyed replacement, FIFO eviction,
soft-state expiry — and rows holding unhashable values must stay out of the
index without being lost to the scan path.  Every bucket iterates in row
order, which is why a capture carries index positions but no buckets.  (That indexed joins reach the
scan-join fixpoint is checked in ``test_codegen_conformance.py``, against
the reference interpreter.)
"""

import pytest
from hypothesis import example, given, settings
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


# ---------------------------------------------------------------------------
# Every bucket iterates in row order; a capture reproduces the table
# ---------------------------------------------------------------------------

#: few values, so keys collide (rebinds) and buckets fill; short rows miss
#: the (1, 2) index and a list at position 2 is unhashable there
few = st.integers(min_value=0, max_value=2)
order_rows = st.one_of(
    st.tuples(few, few),
    st.tuples(few, few, few),
    st.tuples(few, few, st.builds(lambda v: [v], few)),
)

index_positions = st.sampled_from([(), (1,), (2,), (1, 2)])

order_ops = st.lists(
    st.one_of(
        *(
            st.tuples(st.just(op), order_rows)
            for op in ("upsert", "unless", "release", "delete", "refresh")
        ),
        st.tuples(st.just("many"), st.lists(order_rows, max_size=4)),
        st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=3.0)),
        st.tuples(st.just("index"), index_positions),
    ),
    max_size=40,
)


def assert_buckets_in_row_order(table: Table) -> None:
    rows = table.rows()
    for positions, index in table._indexes.items():
        expected: dict[tuple, list[tuple]] = {}
        for row in rows:
            if len(row) <= max(positions, default=-1):
                continue
            try:
                expected.setdefault(tuple(row[p] for p in positions), []).append(row)
            except TypeError:
                continue  # unhashable at an indexed position: stays out
        assert bucket_lists(index) == expected


def bucket_lists(index: dict) -> dict:
    return {bucket_key: list(bucket.values()) for bucket_key, bucket in index.items()}


class TestBucketsFollowRows:
    @settings(max_examples=200, deadline=None)
    @given(
        built=st.lists(index_positions, max_size=2),
        ops=order_ops,
        keys=st.sampled_from([(0,), (0, 1)]),
        lifetime=st.sampled_from([float("inf"), 2.0]),
        max_size=st.sampled_from([float("inf"), 4]),
    )
    @example(  # a rebind of the older of two rows sharing a bucket
        built=[(1,)],
        ops=[("upsert", (0, 1)), ("upsert", (1, 1)), ("upsert", (0, 1, 2))],
        keys=(0,),
        lifetime=float("inf"),
        max_size=float("inf"),
    )
    def test_buckets_iterate_in_row_order_and_captures_reproduce(
        self, built, ops, keys, lifetime, max_size
    ):
        table = Table("p", keys=keys, lifetime=lifetime, max_size=max_size)
        for positions in built:  # maintained from the start; "index" ops build late
            table.index_on(positions)
        now = 0.0
        for op, arg in ops:
            now += 0.5
            if op == "upsert":
                table.upsert(arg, now)
            elif op == "unless":
                table.upsert_unless_displacing(arg, now)
            elif op == "many":
                table.insert_many(arg, now)
            elif op == "release":
                table.release(arg)
            elif op == "delete":
                table.delete(arg)
            elif op == "refresh":
                table.refresh(arg, now)
            elif op == "expire":
                table.expire(now - arg)
            else:
                table.index_on(arg)
            assert len(table) <= max_size
            assert_buckets_in_row_order(table)

        state = table.export_state()
        restored = Table("p", keys=keys, lifetime=lifetime, max_size=max_size)
        restored.load_state(state)
        rows = table.rows()
        assert restored.rows() == rows
        assert [restored.count_of(r) for r in rows] == [table.count_of(r) for r in rows]
        assert restored.deadlines() == table.deadlines()
        assert not restored._indexes  # each is built on its first probe
        for positions, index in table._indexes.items():
            assert bucket_lists(restored.index_on(positions)) == bucket_lists(index)
        assert list(restored._indexes) == list(table._indexes)
        assert restored.export_state() == state
