"""Unit and property tests for the NDlog static analyzer (``fvn-lint``).

Covers every statically-testable diagnostic code, the stratification edge
cases from the issue (negation inside recursion, aggregate-through-cycle,
self-negation — each naming the offending rule), the bundled-programs-are-
clean invariant CI enforces, the CLI, and a hypothesis property: programs
the analyzer passes evaluate without raising on random small inputs.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.ndlog.analysis import (
    CODES,
    WARNING_CODES,
    analyze_program,
    classify_monotonicity,
    severity_of,
)
from repro.ndlog.analysis.cli import main as lint_main
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import evaluate
from repro.protocols.pathvector import PATH_VECTOR_SOURCE


def analyze(source: str):
    return analyze_program(parse_program(source, "t", strict=False))


class TestSafetyPass:
    def test_clean_program_has_no_diagnostics(self):
        report = analyze("r1 p(@X,Y) :- q(@X,Y).")
        assert report.ok and not report.diagnostics

    def test_ndl001_unbound_head_variable(self):
        report = analyze("r1 p(@X,Y) :- q(@X).")
        (diag,) = report.by_code("NDL001")
        assert diag.is_error
        assert diag.rule == "r1"
        assert "Y" in diag.message
        assert diag.span is not None

    def test_ndl002_unbound_negated_variable(self):
        report = analyze("r1 p(@X) :- q(@X), !s(@X,Z).")
        (diag,) = report.by_code("NDL002")
        assert diag.rule == "r1" and diag.predicate == "s"

    def test_ndl003_unbound_condition_variable(self):
        report = analyze("r1 p(@X) :- q(@X), Z > 3.")
        (diag,) = report.by_code("NDL003")
        assert diag.rule == "r1" and "Z" in diag.message

    def test_ndl003_unusable_assignment(self):
        report = analyze("r1 p(@X) :- q(@X), Y = Z + 1.")
        assert report.by_code("NDL003")

    def test_assignment_chain_is_bound(self):
        report = analyze("r1 p(@X,Z) :- q(@X,Y), W = Y + 1, Z = W * 2.")
        assert report.ok and not report.diagnostics


class TestSchemaPass:
    def test_ndl101_inconsistent_arity(self):
        report = analyze("r1 p(@X) :- link(@X,Y).\nr2 p(@X) :- link(@X,Y,C).")
        (diag,) = report.by_code("NDL101")
        assert diag.predicate == "link" and diag.is_error

    def test_ndl102_materialize_key_out_of_range(self):
        report = analyze(
            "materialize(link, infinity, infinity, keys(1,4)).\n"
            "r1 p(@X) :- link(@X,Y)."
        )
        (diag,) = report.by_code("NDL102")
        assert diag.predicate == "link" and "4" in diag.message

    def test_ndl103_materialize_unused_predicate_is_warning(self):
        report = analyze(
            "materialize(ghost, infinity, infinity, keys(1)).\n"
            "r1 p(@X) :- q(@X)."
        )
        (diag,) = report.by_code("NDL103")
        assert not diag.is_error
        assert report.ok  # warnings do not fail a program

    def test_ndl104_conflicting_field_types(self):
        report = analyze(
            "r1 p(@X,C) :- q(@X), C = 1 + 1.\n"
            "r2 p(@X,C) :- q(@X), C = f_init(X,X)."
        )
        (diag,) = report.by_code("NDL104")
        assert diag.is_error
        assert "number" in diag.message and "path" in diag.message

    def test_type_inference_skipped_under_arity_conflict(self):
        # NDL101 programs would double-report every slot; the pass bails
        report = analyze(
            "r1 p(@X) :- q(@X,Y).\nr2 p(@X,C) :- q(@X), C = 1 + 1."
        )
        assert report.by_code("NDL101")
        assert not report.by_code("NDL104")


class TestStratificationPass:
    def test_ndl201_negation_inside_recursion_names_rule(self):
        report = analyze(
            "r1 p(@X) :- e(@X), !r(@X).\n"
            "r2 r(@X) :- p(@X)."
        )
        (diag,) = report.by_code("NDL201")
        assert diag.rule == "r1"
        assert diag.is_error
        # the witness cycle is rendered in the message
        assert "p -> r" in diag.message or "r -> p" in diag.message

    def test_ndl202_aggregate_through_cycle_is_warning(self):
        report = analyze(
            "r1 shortest(@X,Y,min<C>) :- cand(@X,Y,C).\n"
            "r2 cand(@X,Z,C) :- shortest(@X,Y,C1), hop(@Y,Z,C2), C = C1 + C2.\n"
            "r3 cand(@X,Y,C) :- hop(@X,Y,C)."
        )
        diags = report.by_code("NDL202")
        assert diags and all(not d.is_error for d in diags)
        assert diags[0].rule == "r1"
        assert report.ok

    def test_ndl203_self_negation_names_rule(self):
        report = analyze("r1 p(@X) :- q(@X), !p(@X).")
        (diag,) = report.by_code("NDL203")
        assert diag.rule == "r1" and diag.predicate == "p"
        # the degenerate case is not double-reported as NDL201
        assert not report.by_code("NDL201")

    def test_nonrecursive_negation_and_aggregation_are_clean(self):
        report = analyze(
            "r1 reach(@X,Y) :- link(@X,Y).\n"
            "r2 best(@X,min<C>) :- link(@X,Y,C).\n"
        )
        # arity clash between the two link uses aside, no NDL2xx fires
        assert not {c for c in report.codes() if c.startswith("NDL2")}


class TestLocationPass:
    def test_ndl301_three_locations(self):
        report = analyze("r1 p(@X) :- q(@X), s(@Y), t(@Z).")
        (diag,) = report.by_code("NDL301")
        assert diag.rule == "r1" and diag.is_error

    def test_ndl302_no_connecting_literal(self):
        report = analyze("r1 p(@X) :- q(@X), s(@Y).")
        (diag,) = report.by_code("NDL302")
        assert diag.rule == "r1" and diag.is_error

    def test_link_restricted_rule_is_clean(self):
        report = analyze("r1 p(@Y,X) :- link(@X,Y), q(@Y).")
        assert report.ok and not report.diagnostics

    def test_ndl303_head_shipped_to_uncarried_location(self):
        report = analyze("r1 p(@D) :- q(@S), D = S + 1.")
        (diag,) = report.by_code("NDL303")
        assert not diag.is_error and diag.rule == "r1"

    def test_ndl304_remote_negation(self):
        report = analyze("r1 p(@S) :- link(@S,D), !dead(@D,S).")
        (diag,) = report.by_code("NDL304")
        assert diag.is_error and diag.predicate == "dead"

    def test_an_unsafe_rule_keeps_the_rest_checked(self):
        """The post-localization checks run rule by rule: an unsafe rule
        (localizable, but refused by the loader) hides no NDL304."""

        report = analyze("r1 p(@X,Y) :- q(@X).\nr2 p2(@S) :- link(@S,D), !dead(@D,S).")
        assert {d.code for d in report.errors} == {"NDL001", "NDL304"}
        assert report.by_code("NDL304")[0].rule == "r2"

    def test_an_unlocalizable_rule_keeps_the_rest_checked(self):
        report = analyze("r1 p(@X) :- q(@X), s(@Y).\nr2 p2(@S) :- link(@S,D), !dead(@D,S).")
        assert {d.code for d in report.errors} == {"NDL302", "NDL304"}


class TestMonotonicityPass:
    SOURCE = (
        "r1 reach(@X,Y) :- link(@X,Y).\n"
        "r2 reach(@X,Z) :- reach(@X,Y), link(@Y,Z).\n"
        "r3 blocked(@X) :- node(@X), !reach(@X,X)."
    )

    def test_classification(self):
        program = parse_program(self.SOURCE, "t", strict=False)
        kinds = classify_monotonicity(program)
        assert kinds["reach"] == "monotonic"
        assert kinds["blocked"] == "non_monotonic"

    def test_report_carries_classification_and_no_diagnostic(self):
        # the engine always retracts, so non-monotonic predicates are lint
        # output, not a warning
        report = analyze(self.SOURCE)
        assert report.monotonicity["blocked"] == "non_monotonic"
        assert not {c for c in report.codes() if c.startswith("NDL4")}


class TestBundledPrograms:
    def test_all_bundled_programs_are_error_free(self):
        from repro.ndlog.analysis.cli import _load_bundled

        for name, factory in _load_bundled().items():
            report = analyze_program(factory())
            assert report.ok, f"{name}: {report.format()}"

    def test_policy_program_carries_the_ndl202_warning(self):
        from repro.protocols.policy import policy_path_vector_program

        report = analyze_program(policy_path_vector_program())
        assert report.ok
        assert "NDL202" in report.codes()

    def test_severity_table_is_total(self):
        for code in CODES:
            assert severity_of(code) in ("error", "warning")
        assert WARNING_CODES <= set(CODES)


class TestCLI:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.ndl"
        path.write_text(PATH_VECTOR_SOURCE)
        assert lint_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_bad_file_exits_one_with_span(self, tmp_path, capsys):
        path = tmp_path / "bad.ndl"
        path.write_text("r1 p(@X,Y) :- q(@X).\n")
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "NDL001" in out and ":1:" in out

    def test_fail_on_never_tolerates_errors(self, tmp_path):
        path = tmp_path / "bad.ndl"
        path.write_text("r1 p(@X,Y) :- q(@X).\n")
        assert lint_main([str(path), "--fail-on", "never"]) == 0

    def test_fail_on_warning_rejects_bundled_policy_program(self):
        assert lint_main(["--bundled"]) == 0
        assert lint_main(["--bundled", "--fail-on", "warning"]) == 1

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "bad.ndl"
        path.write_text("r1 p(@X,Y) :- q(@X).\n")
        lint_main([str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload
        assert entry["ok"] is False
        assert entry["diagnostics"][0]["code"] == "NDL001"
        assert entry["diagnostics"][0]["line"] == 1

    def test_no_inputs_is_usage_error(self, capsys):
        assert lint_main([]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert lint_main([str(tmp_path / "absent.ndl")]) == 2

    def test_json_reports_monotonicity(self, tmp_path, capsys):
        path = tmp_path / "np.ndl"
        path.write_text(TestMonotonicityPass.SOURCE)
        lint_main([str(path), "--format", "json", "--fail-on", "never"])
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["monotonicity"] == {
            "blocked": "non_monotonic", "reach": "monotonic"
        }


# -- property: analyzer-clean programs evaluate without raising ------------

RULE_TEMPLATES = (
    "tc1 hop(@X,Y) :- link(@X,Y,C).",
    "tc2 hop(@X,Z) :- hop(@X,Y), link(@Y,Z,C).",
    "sel val(@X,Y,min<C>) :- link(@X,Y,C).",
    "flt cheap(@X,Y) :- link(@X,Y,C), C < 5.",
    "art bump(@X,Y,D) :- link(@X,Y,C), D = C + 1.",
    "neg lonely(@X,Y) :- link(@X,Y,C), !hop(@Y,X).",
    "shp remote(@Y,X) :- link(@X,Y,C), q(@Y).",
    # deliberately broken: unsafe head, unbound negation, arity clash
    "bad1 orphan(@X,Z) :- link(@X,Y,C).",
    "bad2 quiet(@X) :- link(@X,Y,C), !link(@Y,Z).",
    "bad3 p(@X) :- q(@X), s(@Y).",
)


@st.composite
def random_programs(draw):
    rules = draw(
        st.lists(st.sampled_from(RULE_TEMPLATES), min_size=1, max_size=5, unique=True)
    )
    return parse_program("\n".join(rules), "gen", strict=False)


@st.composite
def random_link_facts(draw):
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.integers(1, 9)
            ),
            max_size=6,
        )
    )
    facts = [("link", (a, b, c)) for a, b, c in edges if a != b]
    facts += [("q", (n,)) for n in range(4)]
    return facts


@settings(max_examples=60, deadline=None)
@given(program=random_programs(), facts=random_link_facts())
def test_programs_passing_analysis_evaluate_cleanly(program, facts):
    """If the analyzer reports no diagnostics at all, the centralized
    evaluator accepts the program on arbitrary small inputs (no
    EvaluationError, no NDlogError) — the lint gate is sound."""

    report = analyze_program(program)
    if report.diagnostics:
        return  # flagged: the property only claims clean programs run
    evaluate(program, facts)
