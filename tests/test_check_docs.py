"""The documentation gate (``scripts/check_docs.py``) works both ways: the
repository's docs pass it, and a config-table row naming a field the class
no longer has, a diagnostics-table row naming a code ``CODES`` no longer
has, a backticked test path or test name that does not exist, a
fingerprint version or a ``status`` key the docs do not name, fails it."""

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


@pytest.mark.parametrize(
    "name",
    [
        "repro.fvn.monitors",
        "repro.ndlog.analysis.discharge.replay_proof",
        "repro.dn.monitors.no_such_name",
        "repro.dn.EngineConfig.seed",
    ],
)
def test_stale_module_reference_fails(docs_tree, name):
    """A moved module, a name it no longer holds, or a path deeper than one
    name past a module or package does not resolve."""

    insert_row_after(
        docs_tree / "docs" / "CONFIG.md",
        "| `shard_timeout` |",
        f"| `shard_timeout` | `30.0` | Worker reply deadline | `{name}` |",
    )
    done = check(docs_tree)
    assert done.returncode == 1
    assert f"STALE MODULE REFERENCE: docs/CONFIG.md cites {name}" in done.stdout


def test_module_references_resolve_through_files_and_tables():
    module = load_check_docs()
    src = REPO_ROOT / "src"
    for name in (
        "repro.terms",
        "repro.dn.monitors.build_monitor",
        "repro.dn.EngineConfig",
        "repro.logic.Var",
        "repro.ndlog.analysis.analyze_program",
    ):
        assert module.resolves(src, name), name


def bump_fingerprint_tag(root: Path) -> tuple[str, str]:
    """Give the copied ``repro/dn/trace.py`` the next fingerprint version;
    returns ``(old tag, new tag)``."""

    trace_py = root / "src" / "repro" / "dn" / "trace.py"
    old = load_check_docs().string_constant(trace_py, "FINGERPRINT_TAG")
    new = f"fp{int(old[2:]) + 1}"
    trace_py.write_text(
        trace_py.read_text().replace(f'FINGERPRINT_TAG = "{old}"', f'FINGERPRINT_TAG = "{new}"')
    )
    return old, new


def test_undocumented_fingerprint_version_fails(docs_tree):
    _, new = bump_fingerprint_tag(docs_tree)
    done = check(docs_tree)
    assert done.returncode == 1
    for doc in ("ARCHITECTURE.md", "SERVING.md"):
        assert f"UNDOCUMENTED FINGERPRINT: {new} not mentioned in docs/{doc}" in done.stdout


def test_documented_fingerprint_version_passes(docs_tree):
    old, new = bump_fingerprint_tag(docs_tree)
    for doc in ("ARCHITECTURE.md", "SERVING.md"):
        path = docs_tree / "docs" / doc
        path.write_text(path.read_text().replace(f"`{old}`", f"`{new}`"))
    done = check(docs_tree)
    assert done.returncode == 0, done.stdout + done.stderr


def test_undocumented_status_key_fails(docs_tree):
    """Every key ``RouteService._status`` returns must be named in
    docs/SERVING.md: dropping ``program_digest`` from it fails the gate."""

    keys = load_check_docs().returned_dict_keys(
        docs_tree / "src" / "repro" / "serving" / "service.py", "RouteService", "_status"
    )
    assert {"seq", "recovered_from", "program_digest"} <= set(keys)
    serving_md = docs_tree / "docs" / "SERVING.md"
    serving_md.write_text(serving_md.read_text().replace("`program_digest`", "program digest"))
    done = check(docs_tree)
    assert done.returncode == 1
    assert (
        "UNDOCUMENTED STATUS KEY: program_digest not mentioned in docs/SERVING.md"
        in done.stdout
    )
