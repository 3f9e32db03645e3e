"""Unit tests for NDlog builtin functions and aggregate computation."""

import pytest

from repro.ndlog.aggregates import aggregate_rows, apply_aggregate
from repro.ndlog.ast import Aggregate, HeadLiteral, NDlogError
from repro.ndlog.functions import (
    BUILTIN_FUNCTIONS,
    builtin_registry,
    f_concat_path,
    f_in_path,
    f_init,
    f_last,
    f_remove_first,
    f_size,
)
from repro.terms import Var


class TestPathFunctions:
    def test_init_and_concat(self):
        assert f_init("a", "b") == ("a", "b")
        assert f_concat_path("s", ("a", "b")) == ("s", "a", "b")

    def test_membership_and_size(self):
        assert f_in_path(("a", "b"), "a")
        assert not f_in_path(("a", "b"), "z")
        assert f_size(("a", "b", "c")) == 3

    def test_first_last_remove(self):
        assert f_last(("a", "b")) == "b"
        assert f_remove_first(("a", "b", "c")) == ("b", "c")
        with pytest.raises(ValueError):
            f_last(())

    def test_registry_includes_paper_names(self):
        registry = builtin_registry()
        assert "f_concatPath" in registry
        assert "f_inPath" in registry
        assert registry.call("f_init", ["x", "y"]) == ("x", "y")

    def test_registry_extension(self):
        registry = builtin_registry({"f_double": lambda x: 2 * x})
        assert registry.call("f_double", [4]) == 8
        # the shared builtin table must not be polluted
        assert "f_double" not in BUILTIN_FUNCTIONS


class TestAggregates:
    def test_apply_aggregate(self):
        assert apply_aggregate("min", [3, 1, 2]) == 1
        assert apply_aggregate("max", [3, 1, 2]) == 3
        assert apply_aggregate("count", [5, 5]) == 2
        assert apply_aggregate("count", []) == 0
        assert apply_aggregate("sum", [1, 2, 3]) == 6
        assert apply_aggregate("avg", [2, 4]) == 3

    def test_apply_aggregate_errors(self):
        with pytest.raises(NDlogError):
            apply_aggregate("median", [1])
        with pytest.raises(NDlogError):
            apply_aggregate("min", [])

    def test_aggregate_rows_groups_by_non_aggregate_positions(self):
        head = HeadLiteral("best", (Var("S"), Var("D"), Aggregate("min", Var("C"))), location=0)
        rows = [("a", "b", 5), ("a", "b", 3), ("a", "c", 7)]
        out = set(aggregate_rows(head, rows))
        assert out == {("a", "b", 3), ("a", "c", 7)}

    def test_aggregate_rows_without_aggregate_dedupes(self):
        head = HeadLiteral("p", (Var("X"),))
        assert aggregate_rows(head, [(1,), (1,), (2,)]) == [(1,), (2,)]
