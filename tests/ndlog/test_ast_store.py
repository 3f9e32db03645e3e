"""Unit tests for the NDlog AST helpers and tuple stores."""

import pytest

from repro.logic.terms import Const, Var
from repro.ndlog.ast import Aggregate, HeadLiteral, Literal, MaterializeDecl, NDlogError, Program
from repro.ndlog.parser import parse_program, parse_rule
from repro.ndlog.store import Database, Table
from repro.dn.executor import FixpointExecutor
from repro.dn.node import Node


class TestAst:
    def test_literal_location_term(self):
        lit = Literal("link", (Var("S"), Var("D")), location=0)
        assert lit.location_term == Var("S")
        assert Literal("x", (Const(1),)).location_term is None

    def test_literal_location_out_of_range(self):
        with pytest.raises(NDlogError):
            Literal("link", (Var("S"),), location=3)

    def test_head_aggregate_introspection(self):
        head = HeadLiteral("best", (Var("S"), Aggregate("min", Var("C"))), location=0)
        assert head.has_aggregate
        assert head.group_by_indices == [0]
        assert head.plain_args()[1] == Var("C")

    def test_rule_is_local(self):
        local = parse_rule("r p(@S,D) :- q(@S,D), s(@S).")
        remote = parse_rule("r p(@S,D) :- q(@S,Z), t(@Z,D).")
        assert local.is_local
        assert not remote.is_local

    def test_program_predicate_classification(self):
        program = parse_program("p(@X,Y) :- e(@X,Y).\nq(@X,Y) :- p(@X,Y).")
        assert program.base_predicates() == {"e"}
        assert program.derived_predicates() == {"p", "q"}

    def test_program_arity_consistency_check(self):
        program = Program("bad")
        program.add_rule(parse_rule("r1 p(@X,Y) :- e(@X,Y)."))
        program.rules.append(parse_rule("r2 p(@X) :- e(@X,Y)."))
        with pytest.raises(NDlogError):
            program.check()

    def test_lifetime_lookup(self):
        program = parse_program("materialize(hb, 5, infinity, keys(1)).\np(@X) :- hb(@X).")
        assert program.lifetime_of("hb") == 5
        assert program.lifetime_of("p") == float("inf")


class TestTable:
    def test_insert_and_contains(self):
        table = Table("link")
        assert table.insert(("a", "b", 1))
        assert not table.insert(("a", "b", 1))  # duplicate
        assert ("a", "b", 1) in table
        assert len(table) == 1

    def test_key_replacement(self):
        table = Table("route", keys=(0, 1))
        table.insert(("a", "b", 5))
        changed = table.insert(("a", "b", 3))
        assert changed
        assert table.rows() == [("a", "b", 3)]
        assert len(table) == 1

    def test_upsert_unless_displacing_tells_three_cases_apart(self):
        table = Table("route", keys=(0, 1))
        table.index_on((0,))
        assert table.upsert_unless_displacing(("a", "b", 5)) == (True, None)
        assert table.upsert_unless_displacing(("a", "b", 5)) == (False, None)
        assert table.count_of(("a", "b", 5)) == 2  # the duplicate was counted
        # an occupied key is reported, not re-bound: rows, count, index intact
        assert table.upsert_unless_displacing(("a", "b", 3)) == (False, ("a", "b", 5))
        assert table.rows() == [("a", "b", 5)] and table.count_of(("a", "b", 3)) == 2
        assert table.probe((0,), ("a",)) == [("a", "b", 5)]
        # where upsert itself re-binds and reports what it displaced
        assert table.upsert(("a", "b", 3)) == (True, ("a", "b", 5))

    def test_soft_state_expiry(self):
        table = Table("hb", lifetime=2.0)
        table.insert(("a",), now=0.0)
        assert table.expire(now=1.0) == []
        assert table.expire(now=2.5) == [("a",)]
        assert len(table) == 0

    def test_refresh_extends_lifetime_without_change(self):
        table = Table("hb", lifetime=2.0)
        table.insert(("a",), now=0.0)
        assert not table.insert(("a",), now=1.5)  # refresh, not a change
        assert table.expire(now=3.0) == []  # extended to 3.5
        assert table.expire(now=4.0) == [("a",)]

    def test_max_size_eviction(self):
        table = Table("cache", max_size=2)
        table.insert((1,))
        table.insert((2,))
        table.insert((3,))
        assert len(table) == 2
        assert (1,) not in table

    def test_delete(self):
        table = Table("t", keys=(0,))
        table.insert(("a", 1))
        assert table.delete(("a", 1))
        assert not table.delete(("a", 1))


    def test_release_reports_stale_remaining_and_last_support(self):
        table = Table("route", keys=(0,))
        assert table.release(("a", 1)) is None  # absent
        table.insert(("a", 1))
        table.insert(("a", 1))
        assert table.release(("a", 2)) is None  # another row under the key
        assert table.release(("a", 1)) is False  # one support left
        assert table.release(("a", 1)) is True  # the last one
        assert Database().release("nowhere", (1,)) is None

    def test_deadlines_are_kept_for_soft_state_only(self):
        hard = Table("t", keys=(0,))
        hard.insert(("a", 1), now=3.0)
        assert not hard.is_soft_state and hard.deadlines() == []
        assert hard.export_state()[1] is None
        soft = Table("hb", keys=(0,), lifetime=2.0)
        soft.insert(("a", 1), now=0.0)
        soft.insert(("b", 1), now=1.0)
        soft.insert(("a", 2), now=1.5)  # rebind restarts the lifetime, last
        assert soft.deadlines() == [(("b", 1), 3.0), (("a", 2), 3.5)]

    def test_export_state_is_rows_counts_deadlines_and_positions(self):
        table = Table("hb", keys=(0,), lifetime=2.0)
        table.index_on((1,))
        table.insert(("a", "x"), now=0.0)
        table.insert(("a", "x"), now=1.0)
        rows, deadlines, positions = table.export_state()
        assert rows == [(("a",), ("a", "x"), 2)]
        assert deadlines == [3.0]
        assert positions == [(1,)]  # buckets are rebuilt from the rows
        table.index_on((0, 1))  # the capture shares nothing live
        assert positions == [(1,)]

    def test_index_upkeep_over_zero_one_and_several_positions(self):
        table = Table("t", keys=(0,))
        for positions in ((), (1,), (1, 2)):
            table.index_on(positions)
        table.insert(("a", "x", 1))
        table.insert(("b", "x", 2))
        table.insert(("c", ["u"], 3))  # unhashable at 1: stays out
        table.insert(("d",))  # too short for (1,) and (1, 2)
        assert table.probe((), ()) == table.rows()
        assert table.probe((1,), ("x",)) == [("a", "x", 1), ("b", "x", 2)]
        assert table.probe((1, 2), ("x", 2)) == [("b", "x", 2)]
        table.insert(("a", "y", 1))  # rebind moves a between buckets
        assert table.probe((1,), ("x",)) == [("b", "x", 2)]
        assert table.probe((1,), ("y",)) == [("a", "y", 1)]
        table.delete(("b", "x", 2))
        assert table.index_on((1,)).get(("x",)) is None  # emptied bucket dropped


class TestDatabase:
    def test_declare_from_materialize(self):
        db = Database()
        decl = MaterializeDecl("route", 10.0, float("inf"), (1, 2))
        table = db.declare_from(decl)
        assert table.keys == (0, 1)
        assert table.is_soft_state

    def test_snapshot_is_independent(self):
        db = Database()
        db.insert("p", (1,))
        snapshot = db.snapshot()
        db.insert("p", (2,))
        assert snapshot == {"p": {(1,)}}
        assert db.snapshot() == {"p": {(1,), (2,)}}

    def test_expire_across_tables(self):
        db = Database()
        db.declare("hb", lifetime=1.0)
        db.insert("hb", ("x",), now=0.0)
        db.insert("hard", ("y",), now=0.0)
        removed = db.expire(now=5.0)
        assert removed == {"hb": [("x",)]}
        assert db.rows("hard") == [("y",)]

    def test_fact_count(self):
        db = Database()
        db.insert("p", (1,))
        db.insert("q", (1, 2))
        assert db.fact_count() == 2


class TestStoreParity:
    """Row order, support counts, deadlines and bucket order under the
    mutations that can reorder them (keyed rebind, refresh, delete plus
    re-insert, eviction, expiry).  A keyed rebind is a removal plus an
    append, so it moves the key to the back of the rows and its buckets."""

    def test_fifo_eviction_order_after_rebind_refresh_and_reinsert(self):
        table = Table("cache", keys=(0,), max_size=3)
        for row in (("a", 1), ("b", 1), ("c", 1)):
            table.insert(row)
        table.insert(("a", 2))  # keyed rebind moves a to the back
        table.insert(("b", 1))  # another support keeps b's slot
        table.delete(("c", 1))
        table.insert(("c", 2))  # delete plus re-insert moves c to the back
        assert table.rows() == [("b", 1), ("a", 2), ("c", 2)]
        table.insert(("d", 1))
        assert table.rows() == [("a", 2), ("c", 2), ("d", 1)]
        table.insert(("e", 1))
        assert table.rows() == [("c", 2), ("d", 1), ("e", 1)]
        assert [table.count_of(row) for row in table.rows()] == [1, 1, 1]
        assert ("a", 2) not in table and table.count_of(("b", 1)) == 0

    def test_soft_state_eviction_order_after_refresh(self):
        table = Table("hb", keys=(0,), lifetime=5.0, max_size=2)
        table.insert(("a",), now=0.0)
        table.insert(("b",), now=1.0)
        assert table.refresh(("a",), now=2.0)  # a keeps the oldest slot
        table.insert(("c",), now=3.0)
        assert table.rows() == [("b",), ("c",)]
        assert table.expired(now=6.0) == [("b",)]

    def test_expiry_row_order_after_refreshes_and_rebinds(self):
        table = Table("hb", keys=(0,), lifetime=2.0)
        table.insert(("a", 1), now=0.0)
        table.insert(("b", 1), now=0.5)
        table.insert(("c", 1), now=1.0)
        table.insert(("d", 1), now=1.5)
        assert table.refresh(("b", 1), now=2.0)  # deadline 4.0
        assert table.insert(("a", 9), now=0.2)  # rebind: at the back, 2.2
        assert not table.insert(("c", 1), now=3.0)  # support: deadline 5.0
        table.delete(("d", 1))
        table.insert(("d", 1), now=1.6)  # re-inserted at the back
        assert table.rows() == [("b", 1), ("c", 1), ("a", 9), ("d", 1)]
        assert table.expired(now=3.6) == [("a", 9), ("d", 1)]
        assert table.expired(now=4.0) == [("b", 1), ("a", 9), ("d", 1)]
        assert table.row_expired(("b", 1), now=4.0)
        assert not table.row_expired(("b", 1), now=3.9)
        assert not table.row_expired(("b", 2), now=9.0)  # not the stored row
        assert table.expire(now=4.0) == [("b", 1), ("a", 9), ("d", 1)]
        assert table.rows() == [("c", 1)]
        assert table.expire(now=5.0) == [("c", 1)]
        assert len(table) == 0

    def test_release_on_absent_replaced_multi_and_last_support(self):
        table = Table("route", keys=(0,))
        assert not table.release(("a", 1))  # absent
        table.insert(("a", 1))
        table.insert(("a", 1))
        table.insert(("a", 1))
        assert not table.release(("a", 2))  # not the stored row
        assert table.count_of(("a", 1)) == 3
        assert not table.release(("a", 1))  # multi-support
        assert not table.release(("a", 1))
        assert table.count_of(("a", 1)) == 1
        assert table.release(("a", 1))  # last support: the row stays
        assert ("a", 1) in table and table.count_of(("a", 1)) == 0
        table.insert(("a", 1))  # a re-derivation counts from zero
        assert table.count_of(("a", 1)) == 1
        table.insert(("a", 2))  # a rebind starts a fresh count
        assert not table.release(("a", 1))
        assert table.count_of(("a", 2)) == 1

    @staticmethod
    def _populated() -> Database:
        db = Database()
        db.declare("hb", keys=(0,), lifetime=2.0)
        route = db.declare("route", keys=(0,))
        route.index_on((1,))
        for row in (("a", "x", 1), ("b", "x", 2), ("c", "y", 3)):
            route.insert(row)
        route.insert(("b", "x", 2))
        route.insert(("a", "x", 5))  # rebind: a moves last, row and bucket
        db.insert("hb", ("h", 1), now=0.0)
        db.insert("hb", ("i", 1), now=1.0)
        db.table("hb").refresh(("h", 1), now=1.5)
        return db

    def _assert_same_state(self, db: Database, other: Database) -> None:
        for predicate in ("route", "hb"):
            rows = db.rows(predicate)
            assert other.rows(predicate) == rows
            assert [other.count_of(predicate, r) for r in rows] == [
                db.count_of(predicate, r) for r in rows
            ]
        assert db.rows("route") == [("b", "x", 2), ("c", "y", 3), ("a", "x", 5)]
        assert [db.count_of("route", r) for r in db.rows("route")] == [2, 1, 1]
        hb = other.table("hb")
        assert hb.expired(now=2.9) == []
        assert hb.expired(now=3.0) == [("i", 1)]
        assert hb.expired(now=3.5) == [("h", 1), ("i", 1)]
        bucket = [("b", "x", 2), ("a", "x", 5)]
        assert db.table("route").probe((1,), ("x",)) == bucket
        assert other.table("route").probe((1,), ("x",)) == bucket

    def test_node_state_round_trip_keeps_counts_deadlines_and_bucket_order(self):
        program = parse_program(
            "materialize(hb, 2, infinity, keys(1)).\n"
            "materialize(route, infinity, infinity, keys(1)).\n"
            "seen(@X) :- route(@X, Y, C)."
        )
        node = Node("a", program)
        node.db = self._populated()
        state = node.export_state()
        fresh = Node("a", program)
        fresh.load_state(state)
        self._assert_same_state(node.db, fresh.db)
        assert fresh.export_state() == state


class TestListValuedSettle:
    """An insert and a retract of a row holding a list cancel in arrival
    order: their cancellation key is the ``row_key`` fallback."""

    PROGRAM = (
        "materialize(p, infinity, infinity, keys(1)).\n"
        "materialize(q, infinity, infinity, keys(1)).\n"
        "q(@X, Y) :- p(@X, Y)."
    )

    def settle(self, ops):
        program = parse_program(self.PROGRAM)
        node = Node(0, program)
        executor = FixpointExecutor(program, node.rule_engine)
        changes = []
        executor.settle(
            node,
            ops,
            1.0,
            lambda now, node_id, predicate, values, kind: changes.append(
                (predicate, values, kind)
            ),
            lambda *send: None,
        )
        return node, changes

    def test_insert_then_retract_cancels(self):
        node, changes = self.settle(
            [("insert", "p", (0, [1, 2])), ("retract", "p", (0, [1, 2]))]
        )
        assert changes == [
            ("p", (0, [1, 2]), "replace"),
            ("p", (0, [1, 2]), "retract"),
            ("q", (0, [1, 2]), "replace"),
            ("q", (0, [1, 2]), "retract"),
        ]
        assert node.rows("p") == [] and node.rows("q") == []

    def test_retract_before_insert_defers_behind_it(self):
        node, changes = self.settle(
            [("retract", "p", (0, [1, 2])), ("insert", "p", (0, [1, 2]))]
        )
        assert changes == [
            ("p", (0, [1, 2]), "replace"),
            ("p", (0, [1, 2]), "retract"),
            ("q", (0, [1, 2]), "replace"),
            ("q", (0, [1, 2]), "retract"),
        ]
        assert node.rows("p") == [] and node.rows("q") == []

    def test_list_valued_row_survives_a_second_support(self):
        node, changes = self.settle(
            [
                ("insert", "p", (0, [1, 2])),
                ("insert", "p", (0, [1, 2])),
                ("retract", "p", (0, [1, 2])),
            ]
        )
        assert changes == [
            ("p", (0, [1, 2]), "replace"),
            ("q", (0, [1, 2]), "replace"),
        ]
        assert node.rows("p") == [(0, [1, 2])] and node.db.count_of("p", (0, [1, 2])) == 1
