"""Repository-level pytest configuration.

Adds ``--update-goldens``: golden-file tests (the NDlog corpus in
``tests/ndlog/corpus/``) rewrite their pinned expectations instead of
asserting against them.  Rerun without the flag afterwards and review the
diff before committing.

The ``reference_rules`` fixture (shared by ``tests/`` and ``benchmarks/``)
runs a block of a test on the reference rule interpreter instead of
generated code.
"""

import contextlib

import pytest


def pytest_addoption(parser):
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


@pytest.fixture(scope="session")
def reference_rules():
    """A context manager: inside it, every evaluator and engine built runs
    its rules on :class:`repro.ndlog.reference.ReferenceEngine` (it swaps
    ``repro.ndlog.rules.RULE_ENGINE``).  Session-scoped so hypothesis
    tests can use it."""

    from repro.ndlog import rules
    from repro.ndlog.reference import ReferenceEngine

    @contextlib.contextmanager
    def install():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rules, "RULE_ENGINE", ReferenceEngine)
            yield

    return install
