"""``BENCHMARK.json`` against the contract's limits and the code's names."""

import copy

from bench import config
from bench.check import declaration_problems, output_problems


def test_committed_declaration_is_within_limits():
    assert declaration_problems(config.load_declaration()) == []


def test_every_workload_has_sizes():
    assert set(config.SIZES) == set(config.WORKLOADS)
    assert config.load_declaration()["run_seconds"] == config.REF_SECONDS


def test_limits_are_enforced():
    doc = config.load_declaration()
    bad = copy.deepcopy(doc)
    bad["end_to_end"][1]["bound"] = 0.3
    bad["per_layer"][0]["name"] = "has space"
    bad["per_layer"][1]["unit"] = "a-unit-name-that-is-too-long"
    bad["end_to_end"] = [m for m in bad["end_to_end"] if m["name"] != "setup_s"] + [
        dict(bad["end_to_end"][1])
    ]
    problems = " | ".join(declaration_problems(bad))
    for fragment in ("outside (0, 0.25]", "malformed", "used twice", "needs setup_s"):
        assert fragment in problems
    extra = dict(doc, informational=[])
    assert declaration_problems(extra)


def test_scaled_ops_is_proportional_with_a_floor():
    full = config.scaled_ops("churn", config.REF_SECONDS)
    assert full == config.SIZES["churn"]["ops"]
    assert config.scaled_ops("churn", config.REF_SECONDS / 2) == full // 2
    assert config.scaled_ops("converge", 0.01) == 2


def test_output_must_match_the_declaration():
    declared = [{"name": "setup_s", "unit": "s"}, {"name": "op_ms_p50", "unit": "ms"}]
    good = {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"setup_s": {"value": 1.0, "unit": "s"}, "op_ms_p50": {"value": 2.0, "unit": "ms"}},
    }
    assert output_problems(good, declared, "x") == []
    wrong_unit = copy.deepcopy(good)
    wrong_unit["metrics"]["op_ms_p50"]["unit"] = "s"
    assert output_problems(wrong_unit, declared, "x")
    assert output_problems(dict(good, failed=1), declared, "x")
    assert output_problems({k: v for k, v in good.items() if k != "failed"}, declared, "x")
