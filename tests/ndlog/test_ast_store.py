"""Unit tests for the NDlog AST helpers and tuple stores."""

import pytest

from repro.logic.terms import Const, Var
from repro.ndlog.ast import Aggregate, HeadLiteral, Literal, MaterializeDecl, NDlogError, Program
from repro.ndlog.parser import parse_program, parse_rule
from repro.ndlog.store import Database, Table


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


class TestDatabase:
    def test_declare_from_materialize(self):
        db = Database()
        decl = MaterializeDecl("route", 10.0, float("inf"), (1, 2))
        table = db.declare_from(decl)
        assert table.keys == (0, 1)
        assert table.is_soft_state

    def test_snapshot_and_copy_are_independent(self):
        db = Database()
        db.insert("p", (1,))
        copy = db.copy()
        copy.insert("p", (2,))
        assert db.rows("p") == [(1,)]
        assert set(copy.rows("p")) == {(1,), (2,)}
        assert db.snapshot() == {"p": {(1,)}}

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
