"""Repository-level pytest configuration.

Adds the ``--benchmark-ci`` flag used by the CI benchmark job: after a
benchmark session it writes per-test timings to a JSON file (default
``BENCH_ci.json``) that ``benchmarks/check_regression.py`` compares against
the committed baseline ``benchmarks/BENCH_baseline.json``.

Also adds ``--update-goldens``: golden-file tests (the NDlog corpus in
``tests/ndlog/corpus/``) rewrite their pinned expectations instead of
asserting against them.  Rerun without the flag afterwards and review the
diff before committing.

The ``reference_rules`` fixture (shared by ``tests/`` and ``benchmarks/``)
runs a block of a test on the reference rule interpreter instead of
generated code.
"""

import contextlib
import json
import pathlib

import pytest


def pytest_addoption(parser):
    group = parser.getgroup("benchmark-ci")
    group.addoption(
        "--benchmark-ci",
        action="store_true",
        default=False,
        help="write per-benchmark timings to a JSON file for the CI regression gate",
    )
    group.addoption(
        "--benchmark-ci-output",
        default="BENCH_ci.json",
        help="where --benchmark-ci writes its timings (default: BENCH_ci.json)",
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate golden files (corpus parse dumps, emitted codegen "
        "source) instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request):
    """Whether golden-file tests should rewrite their expectations."""

    return request.config.getoption("--update-goldens")


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    if not config.getoption("--benchmark-ci"):
        return
    benchmark_session = getattr(config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    results = {}
    for bench in benchmark_session.benchmarks:
        if bench.stats is None or not bench.stats.rounds:
            continue
        results[bench.fullname] = {
            "min": bench.stats.min,
            "mean": bench.stats.mean,
            "median": bench.stats.median,
            "rounds": bench.stats.rounds,
        }
        if bench.extra_info:
            results[bench.fullname]["extra_info"] = bench.extra_info
    output = pathlib.Path(config.getoption("--benchmark-ci-output"))
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    terminal = config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(
            f"benchmark-ci: wrote {len(results)} benchmark timings to {output}"
        )


@pytest.fixture(scope="session")
def reference_rules():
    """A context manager: inside it, every evaluator and engine built runs
    its rules on :class:`repro.ndlog.reference.ReferenceEngine` (it swaps
    ``repro.ndlog.seminaive.RULE_ENGINE``).  Session-scoped so hypothesis
    tests can use it."""

    from repro.ndlog import seminaive
    from repro.ndlog.reference import ReferenceEngine

    @contextlib.contextmanager
    def install():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(seminaive, "RULE_ENGINE", ReferenceEngine)
            yield

    return install
