"""The FVN logic substrate: a small PVS-like proof assistant.

This package is the in-repository substitute for the PVS theorem prover the
paper uses (Sections 2.3 and 3.1: the logical specifications NDlog programs
are translated into, and the proofs discharged over them).  It provides
first-order terms and formulas, inductive definitions (the ``INDUCTIVE
bool`` fragment), theories with theory interpretation, a sequent-calculus
prover with PVS-style tactics and an automated ``grind`` strategy, a
linear-arithmetic decision procedure, and finite-model evaluation for
counterexample search.

Public entry points: :class:`Theory` (declare axioms/theorems,
``prove_theorem``), :func:`prove` / :class:`ProofSession` and the tactic
library, the formula constructors (:func:`forall`, :func:`exists`,
:func:`atom`, …), and :class:`FiniteModel` / bounded model checking in
:mod:`repro.logic.bmc`.

Typical use::

    from repro.logic import Theory, forall, exists, atom, lt, var

    thy = Theory("example")
    ...
    result = thy.prove_theorem("bestPathStrong")
    assert result.proved
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arith": ("ComparisonSet", "comparisons_entail", "comparisons_unsat", "eval_arith"),
    "bmc": (
        "Counterexample", "FiniteModel", "FixpointResult", "FunctionRegistry",
        "find_counterexample", "ground_eval", "least_fixpoint",
    ),
    "formulas": (
        "And", "Atom", "Comparison", "Exists", "FALSE", "Falsity", "Forall", "Formula", "Iff",
        "Implies", "Not", "Or", "TRUE", "Truth", "atom", "close", "conj", "disj", "eq", "exists",
        "forall", "ge", "gt", "iff", "implies", "le", "lt", "neg", "neq", "predicates_in",
    ),
    "inductive": ("Clause", "DefinitionTable", "InductiveDefinition"),
    "prover": ("ProofResult", "ProofSession", "ProofStep", "prove"),
    "sequent": ("Sequent",),
    "substitution": ("match_atoms", "match_terms", "unify_atoms", "unify_terms"),
    "tactics": ("ProofContext", "TacticError"),
    "terms": (
        "ANY", "BOOL", "Const", "Func", "INT", "METRIC", "NODE", "PATH", "Sort", "TIME", "Term",
        "Var", "const", "func", "term", "var",
    ),
    "theory": ("Interpretation", "Obligation", "SymbolDeclaration", "Theorem", "Theory"),
})
