"""Unit tests for repro.terms."""

import pytest

from repro.terms import Const, Var, fresh_name, fresh_var, func, term, var, variables_in


class TestTermConstruction:
    def test_var_identity_by_name(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("Y")
        assert hash(Var("X")) == hash(Var("X"))

    def test_const_equality_by_value(self):
        assert Const(3) == Const(3)
        assert Const(3) != Const(4)
        assert Const("a") != Const(3)

    def test_func_structural_equality(self):
        assert func("+", 1, 2) == func("+", 1, 2)
        assert func("+", 1, 2) != func("+", 2, 1)
        assert func("f", "X") != func("g", "X")

    def test_term_coercion_rules(self):
        assert isinstance(term("X"), Var)
        assert isinstance(term("_anon"), Var)
        assert isinstance(term("alice"), Const)
        assert term(3) == Const(3)
        assert term(True).value is True
        assert term((1, 2)).value == (1, 2)
        assert term(Var("Z")) == Var("Z")

    def test_term_coercion_rejects_unknown(self):
        with pytest.raises(TypeError):
            term(object())


class TestFreeVarsAndSubstitution:
    def test_free_vars(self):
        t = func("f", "X", func("g", "Y", 3))
        assert t.free_vars() == {Var("X"), Var("Y")}
        assert Const(1).free_vars() == frozenset()

    def test_substitute_replaces_vars(self):
        t = func("f", "X", "Y")
        out = t.substitute({Var("X"): Const(1)})
        assert out == func("f", 1, "Y")

    def test_substitute_nested(self):
        t = func("f", func("g", "X"))
        out = t.substitute({Var("X"): func("h", "Z")})
        assert out == func("f", func("g", func("h", "Z")))

    def test_is_ground(self):
        assert func("f", 1, 2).is_ground
        assert not func("f", "X").is_ground

    def test_variables_in(self):
        assert variables_in([func("f", "X"), var("Y"), Const(1)]) == {Var("X"), Var("Y")}

    def test_subterms_preorder(self):
        t = func("f", func("g", "X"), 1)
        subs = list(t.subterms())
        assert subs[0] == t
        assert Var("X") in subs
        assert Const(1) in subs


class TestFreshNames:
    def test_fresh_name_avoids_taken(self):
        assert fresh_name("X", []) == "X"
        assert fresh_name("X", ["X"]) == "X!1"
        assert fresh_name("X", ["X", "X!1"]) == "X!2"

    def test_fresh_var_keeps_sort(self):
        from repro.terms import NODE

        v = Var("S", NODE)
        fresh = fresh_var(v, [Var("S")])
        assert fresh.name == "S!1"
        assert fresh.sort == NODE
