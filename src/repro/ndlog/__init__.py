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

from .aggregates import apply_aggregate, aggregate_rows
from .ast import (
    Aggregate,
    Assignment,
    Condition,
    Fact,
    HeadLiteral,
    Literal,
    MaterializeDecl,
    NDlogError,
    Program,
    Rule,
)
from .functions import BUILTIN_FUNCTIONS, builtin_registry
from .localization import LocalizationResult, is_localized, localize_program, localize_rule
from .parser import ParseError, parse_program, parse_rule, tokenize
from .plan import negation_delta_rules, order_body
from .seminaive import (
    EvaluationStats,
    Evaluator,
    IncrementalEvaluator,
    RetractionStats,
    RuleEngine,
    evaluate,
)
from .store import Database, Table
from .stratification import DependencyGraph, Stratification, needs_recompute, stratify

__all__ = [
    "Aggregate",
    "Assignment",
    "BUILTIN_FUNCTIONS",
    "Condition",
    "Database",
    "DependencyGraph",
    "EvaluationStats",
    "Evaluator",
    "Fact",
    "HeadLiteral",
    "IncrementalEvaluator",
    "RetractionStats",
    "Literal",
    "LocalizationResult",
    "MaterializeDecl",
    "NDlogError",
    "ParseError",
    "Program",
    "Rule",
    "RuleEngine",
    "Stratification",
    "Table",
    "aggregate_rows",
    "apply_aggregate",
    "builtin_registry",
    "evaluate",
    "needs_recompute",
    "negation_delta_rules",
    "order_body",
    "is_localized",
    "localize_program",
    "localize_rule",
    "parse_program",
    "parse_rule",
    "stratify",
    "tokenize",
]
