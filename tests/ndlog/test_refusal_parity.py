"""Refusal parity: the loader refuses what ``fvn-lint`` reports as an error.

Each well-formedness rule is one function whose findings the loader
refuses (its first one, naming its code) and ``fvn-lint`` reports (all of
them).  For every program of the parser fuzz generator and every program
``test_analysis.py`` hands the analyzer, each entry point refuses exactly
when :func:`analyze_program` reports an error among the codes it checks,
and its refusal names one of those errors.  ``stratify`` also refuses
NDL202, which the lint reports as a warning because the distributed
engine, which runs no stratification, evaluates it; ``localize_program``
adds rules through :meth:`Program.add_rule`, so it refuses unsafe rules too.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

import test_analysis as analysis_tests
import test_parser_fuzz as fuzz_tests
from repro.ndlog.analysis import analyze_program
from repro.ndlog.ast import NDlogError
from repro.ndlog.localization import localize_program
from repro.ndlog.parser import parse_program
from repro.ndlog.stratification import stratify

SAFETY = {"NDL001", "NDL002", "NDL003"}

#: entry point → the codes it refuses
ENTRY_CODES = {
    "Program.check": SAFETY | {"NDL101"},
    "stratify": {"NDL201", "NDL202", "NDL203"},
    "localize_program": SAFETY | {"NDL301", "NDL302"},
}


def entry_points(program):
    return {
        "Program.check": program.check,
        "stratify": lambda: stratify(program),
        "localize_program": lambda: localize_program(program),
    }


def assert_parity(program):
    report = analyze_program(program)
    reported = {d.code for d in report.errors} | (report.codes() & {"NDL202"})
    for name, entry in entry_points(program).items():
        expected = reported & ENTRY_CODES[name]
        try:
            entry()
        except NDlogError as exc:
            code = re.search(r"\bNDL\d{3}\b", str(exc))
            assert code is not None, f"{name} refusal names no code: {exc}"
            assert code.group() in expected, (name, str(exc), sorted(reported))
        else:
            assert not expected, f"{name} accepts a program reported {sorted(expected)}"


def analysis_test_sources():
    """Every source ``test_analysis.py`` passes to its ``analyze`` helper."""

    tree = ast.parse(Path(analysis_tests.__file__).read_text())
    sources = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "analyze"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    sources.add(analysis_tests.TestMonotonicityPass.SOURCE)
    return sorted(sources)


@pytest.mark.parametrize("source", analysis_test_sources())
def test_analysis_programs(source):
    assert_parity(parse_program(source, "t", strict=False))


def test_every_entry_point_refuses_some_program():
    refused = {name: 0 for name in ENTRY_CODES}
    for source in analysis_test_sources():
        for name, entry in entry_points(parse_program(source, "t", strict=False)).items():
            try:
                entry()
            except NDlogError:
                refused[name] += 1
    assert all(refused.values()), refused


@settings(max_examples=80, deadline=None)
@given(program=analysis_tests.random_programs())
def test_analysis_template_programs(program):
    assert_parity(program)


def test_an_unsafe_rule_beside_a_remote_negation():
    """``fvn-lint`` reports both errors; the loader refuses the unsafe
    rule (NDL001), and no entry point refuses NDL304."""

    source = "r1 p(@X,Y) :- q(@X).\nr2 p2(@S) :- link(@S,D), !dead(@D,S)."
    program = parse_program(source, "t", strict=False)
    assert {d.code for d in analyze_program(program).errors} == {"NDL001", "NDL304"}
    assert source in analysis_test_sources()
    assert_parity(program)


@settings(max_examples=80, deadline=None)
@given(text=fuzz_tests.program_texts())
def test_fuzz_programs(text):
    assert_parity(parse_program(text, "fuzz", strict=False))
