"""Property-based tests (hypothesis) for the logic substrate invariants."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.logic.arith import ComparisonSet, evaluate, linearize
from repro.logic.formulas import Comparison, atom, close, conj
from repro.logic.substitution import compose, match_terms, unify_terms
from repro.terms import Const, Func, Var, func


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

var_names = st.sampled_from(["X", "Y", "Z", "U", "V"])
constants = st.integers(min_value=-20, max_value=20).map(Const)
variables = var_names.map(Var)


def terms(max_depth: int = 2):
    base = st.one_of(constants, variables)
    if max_depth == 0:
        return base
    return st.one_of(
        base,
        st.builds(
            lambda name, args: Func(name, tuple(args)),
            st.sampled_from(["f", "g", "+"]),
            st.lists(terms(max_depth - 1), min_size=1, max_size=2),
        ),
    )


arith_terms = st.one_of(
    constants,
    variables,
    st.builds(lambda a, b: func("+", a, b), constants, variables),
    st.builds(lambda a, b: func("-", a, b), variables, constants),
)


# ---------------------------------------------------------------------------
# Unification / matching invariants
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(terms(), terms())
def test_unifier_actually_unifies(a, b):
    subst = unify_terms(a, b)
    if subst is not None:
        assert a.substitute(subst) == b.substitute(subst)


@settings(max_examples=200, deadline=None)
@given(terms())
def test_unification_is_reflexive(t):
    assert unify_terms(t, t) is not None


@settings(max_examples=200, deadline=None)
@given(terms(), terms())
def test_unification_is_symmetric_in_success(a, b):
    assert (unify_terms(a, b) is None) == (unify_terms(b, a) is None)


@settings(max_examples=200, deadline=None)
@given(terms(), st.dictionaries(variables, constants, max_size=3))
def test_match_after_substitution_succeeds(pattern, binding):
    target = pattern.substitute(binding)
    subst = match_terms(pattern, target)
    assert subst is not None
    assert pattern.substitute(subst) == target


@settings(max_examples=200, deadline=None)
@given(
    terms(),
    st.dictionaries(variables, constants, max_size=3),
    st.dictionaries(variables, constants, max_size=3),
)
def test_substitution_composition_law(t, inner, outer):
    composed = compose(outer, inner)
    assert t.substitute(composed) == t.substitute(inner).substitute(outer)


# ---------------------------------------------------------------------------
# Formula invariants
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(variables, min_size=0, max_size=4, unique=True))
def test_close_leaves_no_free_variables(vars):
    f = conj(*(atom("p", v) for v in vars)) if vars else atom("p", 1)
    assert close(f).free_vars() == frozenset()


# ---------------------------------------------------------------------------
# Arithmetic invariants
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_ground_comparisons_decided_correctly(a, b):
    cs = ComparisonSet([Comparison("<", Const(a), Const(b))])
    assert cs.is_unsatisfiable() == (not a < b)


@settings(max_examples=200, deadline=None)
@given(arith_terms, st.integers(-10, 10))
def test_shifted_constraint_is_consistent(t, k):
    # X <= t  together with  X <= t + k  (k >= 0) is never contradictory
    x = Var("W")
    cs = ComparisonSet(
        [Comparison("<=", x, t), Comparison("<=", x, func("+", t, Const(abs(k))))]
    )
    assert not cs.is_unsatisfiable()


@settings(max_examples=200, deadline=None)
@given(arith_terms, arith_terms, arith_terms)
def test_transitivity_entailment(a, b, c):
    cs = ComparisonSet([Comparison("<=", a, b), Comparison("<=", b, c)])
    if not cs.is_unsatisfiable():
        assert cs.implies(Comparison("<=", a, c))


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_evaluate_matches_python_arithmetic(a, b):
    assert evaluate(func("+", a, b)) == a + b
    assert evaluate(func("*", a, b)) == a * b
    assert linearize(func("+", a, b)).constant == Fraction(a + b)
