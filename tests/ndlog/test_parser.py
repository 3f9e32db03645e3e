"""Unit tests for the NDlog parser."""

import pytest

from repro.ndlog.ast import Assignment, Condition, Literal
from repro.ndlog.parser import ParseError, parse_program, parse_rule, tokenize
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.terms import Const, Func, Var


class TestTokenizer:
    def test_tokenizes_rule_syntax(self):
        tokens = tokenize("r1 path(@S,D) :- link(@S,D).")
        values = [t.value for t in tokens]
        assert ":-" in values and "@" in values and "." in values

    def test_comments_are_skipped(self):
        tokens = tokenize("/* block */ p(X). // line\n# hash\nq(Y).")
        assert all("block" not in t.value for t in tokens)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("p(X) :- q(X) & r(X).")


class TestRuleParsing:
    def test_paper_program_parses(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pathvector")
        assert len(program.rules) == 4
        assert {r.name for r in program.rules} == {"r1", "r2", "r3", "r4"}
        assert set(program.materialized) == {"link", "path", "bestPathCost", "bestPath"}

    def test_location_specifier_positions(self):
        rule = parse_rule("r path(@S,D,C) :- link(@S,D,C).")
        assert rule.head.location == 0
        assert rule.body_literals[0].location == 0

    def test_aggregate_head(self):
        rule = parse_rule("r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).")
        assert rule.head.has_aggregate
        index, agg = rule.head.aggregates[0]
        assert index == 2 and agg.function == "min" and agg.variable == Var("C")

    def test_assignment_vs_condition(self):
        rule = parse_rule("r p(@S,D,C) :- q(@S,D,C1), C=C1+1, f_inPath(P,S)=false, q(@S,D,P).")
        assert any(isinstance(b, Assignment) for b in rule.body)
        conditions = [b for b in rule.body if isinstance(b, Condition)]
        assert len(conditions) == 1
        assert conditions[0].op == "="

    def test_negated_literal(self):
        rule = parse_rule("r p(@S,D) :- q(@S,D), !deny(@S,D).")
        negs = [b for b in rule.body if isinstance(b, Literal) and b.negated]
        assert len(negs) == 1 and negs[0].predicate == "deny"

    def test_arithmetic_precedence(self):
        rule = parse_rule("r p(@S,C) :- q(@S,A,B), C=A+B*2.")
        assign = rule.assignments[0]
        assert assign.expression == Func("+", (Var("A"), Func("*", (Var("B"), Const(2)))))

    def test_rule_names_are_optional(self):
        program = parse_program("p(@X) :- q(@X).\nr2 s(@X) :- p(@X).")
        assert program.rules[0].name == "r1"
        assert program.rules[1].name == "r2"

    def test_unsafe_rule_rejected(self):
        with pytest.raises(Exception):
            parse_program("r p(@S,D) :- q(@S).")


class TestFactsAndMaterialize:
    def test_fact_parsing(self):
        program = parse_program('link(@"a","b",3).')
        assert len(program.facts) == 1
        fact = program.facts[0]
        assert fact.predicate == "link" and fact.values == ("a", "b", 3)
        assert fact.location == 0

    def test_lowercase_identifiers_are_constants(self):
        program = parse_program("link(@a,b,1).")
        assert program.facts[0].values == ("a", "b", 1)

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_program("link(@S,b,1).")

    def test_materialize_parsing(self):
        program = parse_program("materialize(link, 30, 100, keys(1,2)).\np(@X) :- link(@X,Y,C).")
        decl = program.materialized["link"]
        assert decl.lifetime == 30 and decl.max_size == 100 and decl.keys == (1, 2)
        assert decl.is_soft_state

    def test_materialize_infinity(self):
        program = parse_program("materialize(link, infinity, infinity, keys(1)).\np(@X) :- link(@X).")
        assert not program.materialized["link"].is_soft_state

    def test_roundtrip_through_str(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        reparsed = parse_program(str(program), "pv2")
        assert len(reparsed.rules) == len(program.rules)
        assert reparsed.predicates() == program.predicates()

    def test_parse_rule_requires_single_rule(self):
        with pytest.raises(ParseError):
            parse_rule("p(@X) :- q(@X). r(@X) :- q(@X).")
