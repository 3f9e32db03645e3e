#!/usr/bin/env python
"""Documentation gate for CI (stdlib only).

Seven checks:

1. **Module docstrings** — every ``*.py`` module under ``src/repro`` must
   open with a module-level docstring stating what it implements (the
   repository convention: which paper section/mechanism, and the public
   entry points for packages).  Parsed with ``ast``; no imports.

2. **Config reference coverage** — every field of
   ``repro.dn.engine.EngineConfig``, ``repro.harness.spec.CampaignSpec``,
   and ``repro.serving.config.ServerConfig`` must be mentioned in
   ``docs/CONFIG.md``, so new knobs cannot land undocumented.  Field names
   are read from the class bodies with ``ast`` (annotated assignments), so
   the check needs no runtime dependencies.  In reverse, every backticked
   name in the first column of those classes' tables must still be a field
   of the class, so deleted knobs cannot linger in the reference.

3. **Serving surface coverage** — every ``--flag`` the ``fvn-serve`` CLI
   registers (``argparse`` string literals in ``repro/serving/cli.py``)
   must appear in the serving CLI section of ``docs/CONFIG.md``, and every
   wire verb in ``repro/serving/protocol.py`` (``UPDATE_VERBS`` +
   ``QUERY_VERBS``) must appear in ``docs/SERVING.md``, as must the
   snapshot format tag the daemon writes (``SNAPSHOT_FORMAT`` in
   ``repro/serving/checkpoint.py``).  The fingerprint's version tag
   (``FINGERPRINT_TAG`` in ``repro/dn/trace.py``) must appear in both
   ``docs/SERVING.md`` and ``docs/ARCHITECTURE.md``, so a stale fold
   definition cannot survive a version bump.

4. **Fault-kind coverage** — every injectable fault kind in
   ``repro/dn/faults.py`` (``FAULT_KINDS``) must be documented in
   ``docs/FAULTS.md``, so new chaos faults cannot land undocumented.

5. **Diagnostic-code coverage** — every ``NDL###`` code the static
   analyzer can emit (the ``CODES`` dict in
   ``repro/ndlog/analysis/diagnostics.py``) must be documented in
   ``docs/ANALYSIS.md``, and every ``--flag`` of the ``fvn-lint`` CLI
   (``repro/ndlog/analysis/cli.py``) must appear there too, so
   ``fvn-lint`` cannot grow undocumented diagnostics or flags.  In reverse,
   every code in the first column of the ANALYSIS.md code tables must
   still be in ``CODES``.

6. **Observability coverage** — every metric in
   ``repro/obs/metrics.py`` (``METRIC_NAMES``) and every span in
   ``repro/obs/tracing.py`` (``SPAN_NAMES``) must be documented in
   ``docs/OBSERVABILITY.md``, so the closed obs catalogs and their
   reference cannot drift.

7. **Stale path references** — every backticked ``tests/…``,
   ``benchmarks/…`` or ``scripts/…`` path in ``docs/*.md`` and
   ``README.md`` must name an existing file or directory, and every
   ``::Name`` after it a class or function defined in that file, so docs
   cannot cite a test that was deleted or renamed.  Fenced code blocks are
   not checked.

Exit status 0 = all good; 1 = violations (listed on stdout).

Usage::

    python scripts/check_docs.py [--root .]
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys


def modules_missing_docstrings(src: pathlib.Path) -> list[pathlib.Path]:
    missing = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if not ast.get_docstring(tree):
            missing.append(path)
    return missing


def dataclass_fields(module_path: pathlib.Path, class_name: str) -> list[str]:
    """Annotated field names of a (data)class body, in declaration order."""

    tree = ast.parse(module_path.read_text(), filename=str(module_path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    raise SystemExit(f"class {class_name} not found in {module_path}")


def class_section(config_md: str, class_name: str) -> str:
    """The ``## …`` section of CONFIG.md documenting one class.

    Scoping the field search to the class's own section keeps the gate
    honest when two classes share a field name (``max_events``, ``seed``,
    ``shards``, … exist on both EngineConfig and CampaignSpec): mentioning
    it for one class must not satisfy the other.
    """

    for section in config_md.split("\n## "):
        heading = section.splitlines()[0] if section else ""
        if class_name in heading:
            return section
    raise SystemExit(f"docs/CONFIG.md has no section mentioning {class_name}")


def undocumented_fields(
    config_md: str, module_path: pathlib.Path, class_name: str
) -> list[str]:
    section = class_section(config_md, class_name)
    return [
        field
        for field in dataclass_fields(module_path, class_name)
        if f"`{field}`" not in section
    ]


def first_column_names(markdown: str) -> list[str]:
    """The backticked names in the first column of every table row."""

    names = []
    for line in markdown.splitlines():
        if line.startswith("|"):
            names.extend(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def cli_flags(module_path: pathlib.Path) -> list[str]:
    """Every ``--flag`` string literal registered via ``add_argument``."""

    tree = ast.parse(module_path.read_text(), filename=str(module_path))
    flags = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                    and arg.value not in flags
                ):
                    flags.append(arg.value)
    return flags


def string_tuples(module_path: pathlib.Path, names: tuple[str, ...]) -> list[str]:
    """The string elements of module-level tuple assignments ``names``."""

    tree = ast.parse(module_path.read_text(), filename=str(module_path))
    values: list[str] = []
    for name in names:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == name for t in node.targets
                )
                and isinstance(node.value, ast.Tuple)
            ):
                values.extend(
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    if not values:
        raise SystemExit(f"no {'/'.join(names)} tuples found in {module_path}")
    return values


def string_constant(module_path: pathlib.Path, name: str) -> str:
    """The value of the module-level string assignment ``name``."""

    tree = ast.parse(module_path.read_text(), filename=str(module_path))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            return node.value.value
    raise SystemExit(f"no string constant {name} found in {module_path}")


def diagnostic_codes(module_path: pathlib.Path) -> list[str]:
    """The analyzer's diagnostic codes: keys of the ``CODES`` dict literal."""

    tree = ast.parse(module_path.read_text(), filename=str(module_path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "CODES" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            return [
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
    raise SystemExit(f"no CODES dict literal found in {module_path}")


PATH_PREFIXES = ("tests/", "benchmarks/", "scripts/")


def stale_path_references(root: pathlib.Path) -> list[tuple[str, str]]:
    """``(document, reference)`` for each backticked repository path in
    ``README.md`` / ``docs/*.md`` that names nothing (see check 7)."""

    stale = []
    for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        if not doc.exists():
            continue
        text = re.sub(r"```.*?```", "", doc.read_text(), flags=re.S)
        for span in re.findall(r"`([^`]+)`", text):
            words = span.split()
            if not words or not words[0].startswith(PATH_PREFIXES):
                continue
            path, *names = words[0].split("::")
            target = root / path
            found = target.exists()
            if found and names:
                source = target.read_text()
                found = all(
                    re.search(
                        rf"^\s*(?:def|class) {re.escape(name)}\b",
                        source,
                        re.M,
                    )
                    for name in names
                )
            if not found:
                stale.append((str(doc.relative_to(root)), words[0]))
    return stale


def wire_verbs(module_path: pathlib.Path) -> list[str]:
    """The serving verbs: string tuples ``UPDATE_VERBS`` + ``QUERY_VERBS``."""

    return string_tuples(module_path, ("UPDATE_VERBS", "QUERY_VERBS"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    failures = 0

    missing = modules_missing_docstrings(root / "src" / "repro")
    for path in missing:
        print(f"MISSING DOCSTRING: {path}")
        failures += 1

    config_md_path = root / "docs" / "CONFIG.md"
    if not config_md_path.exists():
        print(f"MISSING FILE: {config_md_path}")
        return 1
    config_md = config_md_path.read_text()
    for module, cls in [
        (root / "src" / "repro" / "dn" / "engine.py", "EngineConfig"),
        (root / "src" / "repro" / "harness" / "spec.py", "CampaignSpec"),
        (root / "src" / "repro" / "serving" / "config.py", "ServerConfig"),
    ]:
        for field in undocumented_fields(config_md, module, cls):
            print(f"UNDOCUMENTED FIELD: {cls}.{field} not mentioned in docs/CONFIG.md")
            failures += 1
        fields = set(dataclass_fields(module, cls))
        for name in first_column_names(class_section(config_md, cls)):
            if name not in fields:
                print(f"STALE FIELD: docs/CONFIG.md documents {cls}.{name}, no such field")
                failures += 1

    serving_cli_section = class_section(config_md, "Serving CLI")
    for flag in cli_flags(root / "src" / "repro" / "serving" / "cli.py"):
        if flag not in serving_cli_section:
            print(
                f"UNDOCUMENTED FLAG: fvn-serve {flag} not in the "
                "'Serving CLI' section of docs/CONFIG.md"
            )
            failures += 1

    serving_md_path = root / "docs" / "SERVING.md"
    if not serving_md_path.exists():
        print(f"MISSING FILE: {serving_md_path}")
        failures += 1
    else:
        serving_md = serving_md_path.read_text()
        for verb in wire_verbs(root / "src" / "repro" / "serving" / "protocol.py"):
            if f"`{verb}`" not in serving_md:
                print(f"UNDOCUMENTED VERB: {verb} not mentioned in docs/SERVING.md")
                failures += 1
        snapshot_format = string_constant(
            root / "src" / "repro" / "serving" / "checkpoint.py", "SNAPSHOT_FORMAT"
        )
        if f"`{snapshot_format}`" not in serving_md:
            print(
                f"UNDOCUMENTED SNAPSHOT FORMAT: {snapshot_format} not "
                "mentioned in docs/SERVING.md"
            )
            failures += 1

    fingerprint_tag = string_constant(
        root / "src" / "repro" / "dn" / "trace.py", "FINGERPRINT_TAG"
    )
    for doc in ("ARCHITECTURE.md", "SERVING.md"):
        doc_path = root / "docs" / doc
        if doc_path.exists() and f"`{fingerprint_tag}`" not in doc_path.read_text():
            print(
                f"UNDOCUMENTED FINGERPRINT: {fingerprint_tag} not mentioned "
                f"in docs/{doc}"
            )
            failures += 1

    faults_md_path = root / "docs" / "FAULTS.md"
    if not faults_md_path.exists():
        print(f"MISSING FILE: {faults_md_path}")
        failures += 1
    else:
        faults_md = faults_md_path.read_text()
        for kind in string_tuples(
            root / "src" / "repro" / "dn" / "faults.py", ("FAULT_KINDS",)
        ):
            if f"`{kind}`" not in faults_md:
                print(f"UNDOCUMENTED FAULT KIND: {kind} not mentioned in docs/FAULTS.md")
                failures += 1

    analysis_md_path = root / "docs" / "ANALYSIS.md"
    if not analysis_md_path.exists():
        print(f"MISSING FILE: {analysis_md_path}")
        failures += 1
    else:
        analysis_md = analysis_md_path.read_text()
        diagnostics_py = (
            root / "src" / "repro" / "ndlog" / "analysis" / "diagnostics.py"
        )
        codes = diagnostic_codes(diagnostics_py)
        for code in codes:
            if f"`{code}`" not in analysis_md:
                print(
                    f"UNDOCUMENTED DIAGNOSTIC: {code} not mentioned in "
                    "docs/ANALYSIS.md"
                )
                failures += 1
        for name in first_column_names(analysis_md):
            if name.startswith("NDL") and name not in codes:
                print(f"STALE DIAGNOSTIC: docs/ANALYSIS.md lists {name}, not in CODES")
                failures += 1
        for flag in cli_flags(root / "src" / "repro" / "ndlog" / "analysis" / "cli.py"):
            if flag not in analysis_md:
                print(
                    f"UNDOCUMENTED FLAG: fvn-lint {flag} not mentioned in "
                    "docs/ANALYSIS.md"
                )
                failures += 1

    obs_md_path = root / "docs" / "OBSERVABILITY.md"
    if not obs_md_path.exists():
        print(f"MISSING FILE: {obs_md_path}")
        failures += 1
    else:
        obs_md = obs_md_path.read_text()
        obs_dir = root / "src" / "repro" / "obs"
        for label, module, names in [
            ("METRIC", obs_dir / "metrics.py", ("METRIC_NAMES",)),
            ("SPAN", obs_dir / "tracing.py", ("SPAN_NAMES",)),
        ]:
            for name in string_tuples(module, names):
                if f"`{name}`" not in obs_md:
                    print(
                        f"UNDOCUMENTED {label}: {name} not mentioned in "
                        "docs/OBSERVABILITY.md"
                    )
                    failures += 1

    for doc, reference in stale_path_references(root):
        print(f"STALE REFERENCE: {doc} cites {reference}, which does not exist")
        failures += 1

    if failures:
        print(f"\n{failures} documentation violation(s)")
        return 1
    print(
        "docs check: all modules documented, all config fields, serving "
        "flags, wire verbs, snapshot format, fingerprint version, fault kinds, "
        "diagnostic codes, lint flags, "
        "and obs metric/span names covered; no stale config fields, codes "
        "or path references"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
