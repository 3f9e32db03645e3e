"""Network Datalog (NDlog): the declarative networking layer of FVN.

This package implements the intermediary language of the FVN framework
(paper Section 2.2): an NDlog parser, program AST, built-in functions,
stratified semi-naive evaluation, the code generator that lowers each rule
to specialized Python (:mod:`repro.ndlog.codegen`, planned by
:mod:`repro.ndlog.plan`) and the reference interpreter it is checked
against (:mod:`repro.ndlog.reference`), the localization rewrite used for
distributed execution, and tuple stores with primary keys and soft-state
lifetimes.

Quick use::

    from repro.ndlog import parse_program, evaluate

    program = parse_program(PATH_VECTOR_SOURCE)
    db = evaluate(program, [("link", ("a", "b", 1))])
    db.rows("bestPath")
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregates": ("apply_aggregate", "aggregate_rows"),
    "ast": (
        "Aggregate", "Assignment", "Condition", "Fact", "HeadLiteral", "Literal",
        "MaterializeDecl", "NDlogError", "Program", "Rule",
    ),
    "functions": ("BUILTIN_FUNCTIONS", "builtin_registry"),
    "localization": ("LocalizationResult", "is_localized", "localize_program", "localize_rule"),
    "parser": ("ParseError", "parse_program", "parse_rule", "tokenize"),
    "plan": ("negation_delta_rules", "order_body"),
    "rules": ("RuleEngine",),
    "seminaive": ("EvaluationStats", "Evaluator", "IncrementalEvaluator", "evaluate"),
    "store": ("Database", "Table"),
    "stratification": ("DependencyGraph", "Stratification", "stratify"),
})
