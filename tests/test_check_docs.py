"""The documentation gate (``scripts/check_docs.py``) works both ways: the
repository's docs pass it, and a config-table row naming a field the class
no longer has, a diagnostics-table row naming a code ``CODES`` no longer
has, or a backticked test path or test name that does not exist, fails it."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "check_docs.py"


def load_check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--root", str(root)],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def docs_tree(tmp_path) -> Path:
    """A copy of what the gate reads: ``src/repro`` and ``docs``, with the
    directories docs cite paths in linked back to the repository."""

    shutil.copytree(
        REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copytree(REPO_ROOT / "docs", tmp_path / "docs")
    for name in ("tests", "benchmarks", "scripts"):
        (tmp_path / name).symlink_to(REPO_ROOT / name)
    return tmp_path


def insert_row_after(path: Path, anchor: str, row: str) -> None:
    """Put ``row`` on the line after the table row that starts with ``anchor``."""

    lines = path.read_text().splitlines(keepends=True)
    (at,) = [i for i, line in enumerate(lines) if line.startswith(anchor)]
    lines.insert(at + 1, row + "\n")
    path.write_text("".join(lines))


def test_first_column_names_reads_only_the_first_column():
    names = load_check_docs().first_column_names(
        "| Field | Default |\n"
        "|---|---|\n"
        "| `seed` / `shards` | `None` |\n"
        "text with `not_a_row`\n"
        "| `codegen` | `True`, see `seed` |\n"
    )
    assert names == ["seed", "shards", "codegen"]


def test_repository_docs_pass():
    done = check(REPO_ROOT)
    assert done.returncode == 0, done.stdout + done.stderr


def test_unchanged_copy_passes(docs_tree):
    done = check(docs_tree)
    assert done.returncode == 0, done.stdout + done.stderr


def test_stale_engine_config_row_fails(docs_tree):
    insert_row_after(
        docs_tree / "docs" / "CONFIG.md",
        "| `shard_timeout` |",
        "| `batch_deltas` | `True` | Fire rules once per delta batch | |",
    )
    done = check(docs_tree)
    assert done.returncode == 1
    assert "STALE FIELD: docs/CONFIG.md documents EngineConfig.batch_deltas" in done.stdout


def test_stale_diagnostic_row_fails(docs_tree):
    insert_row_after(
        docs_tree / "docs" / "ANALYSIS.md",
        "| `NDL001` |",
        "| `NDL401` | warning | non-monotonic predicate under retraction-free execution |",
    )
    done = check(docs_tree)
    assert done.returncode == 1
    assert "STALE DIAGNOSTIC: docs/ANALYSIS.md lists NDL401" in done.stdout


@pytest.mark.parametrize(
    "reference",
    [
        "benchmarks/test_bench_e10_sharded_engine.py",
        "tests/dn/test_sharded_engine.py::TestShardDeterminism::test_no_such_case",
    ],
)
def test_stale_path_reference_fails(docs_tree, reference):
    insert_row_after(
        docs_tree / "docs" / "CONFIG.md",
        "| `shard_timeout` |",
        f"| `shard_timeout` | `30.0` | Worker reply deadline | `{reference}` |",
    )
    done = check(docs_tree)
    assert done.returncode == 1
    assert f"STALE REFERENCE: docs/CONFIG.md cites {reference}" in done.stdout
