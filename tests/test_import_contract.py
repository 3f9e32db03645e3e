"""Two arcs, one dependency direction.

The paper's Figure 1 keeps verification (the PVS role: ``repro.logic``,
``repro.fvn``, ``repro.metarouting``, ``repro.bgp``) and execution (the P2
role: the NDlog runtime, the engine, serving, the harness and what feeds
them) as two arcs joined by translations.  The verification arc may import
the runtime; the runtime never imports the verification arc.  What both
need — terms, function and comparison semantics — lives in the shared
kernel :mod:`repro.terms`.

This test reads the source with :mod:`ast` only, so it holds however the
packages bind their names at run time.  A runtime module may not

* import the verification arc at module level (an import under
  ``if TYPE_CHECKING:`` names a type for annotations and loads nothing), or
* name a verification package in a ``lazy_exports`` table.

A function-local import of the verification arc is allowed only where
:data:`ALLOWED` lists it, with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUNTIME = ("ndlog", "dn", "serving", "harness", "scenarios", "obs", "protocols", "workloads")
VERIFICATION = ("repro.logic", "repro.fvn", "repro.metarouting", "repro.bgp")

#: (importing module, enclosing function, imported module) → why it may
ALLOWED = {
    ("repro.harness.runner", "_proofs", "repro.fvn.discharge"): (
        "a campaign run with static_proofs discharges its monitor properties "
        "ahead of execution"
    ),
    ("repro.ndlog.analysis.cli", "_analyze_one", "repro.fvn.discharge"): (
        "fvn-lint --prove runs the static obligation discharge on request"
    ),
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def runtime_modules() -> list[tuple[str, str, str]]:
    """``(module, package, source)`` of every runtime module."""

    out = []
    for package in RUNTIME:
        for path in (SRC / "repro" / package).rglob("*.py"):
            module = module_name(path)
            home = module if path.name == "__init__.py" else module.rpartition(".")[0]
            out.append((module, home, path.read_text()))
    return sorted(out)


def imported_modules(node: ast.AST, package: str) -> list[str]:
    """Every module an import statement can load, as absolute names."""

    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        base = package.split(".")[: len(package.split(".")) - node.level + 1]
        stem = ".".join(base + ([node.module] if node.module else []))
    else:
        stem = node.module or ""
    # ``from repro import fvn`` loads repro.fvn as well
    return [stem] + [f"{stem}.{alias.name}" for alias in node.names]


def is_verification(name: str) -> bool:
    return any(name == package or name.startswith(package + ".") for package in VERIFICATION)


def is_type_checking_guard(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def scan(package: str, source: str):
    """``(module_level, function_local, lazy_tables)`` references to the
    verification arc in one module of ``package``: ``(line, target)``,
    ``(function, target)`` and ``(line, key)`` lists."""

    tree = ast.parse(source)
    module_level: list[tuple[int, str]] = []
    function_local: list[tuple[str, str]] = []
    lazy_keys: list[tuple[int, str]] = []

    def visit(node: ast.AST, function: str | None) -> None:
        if is_type_checking_guard(node):
            for child in node.orelse:
                visit(child, function)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in imported_modules(node, package):
                if is_verification(target):
                    if function is None:
                        module_level.append((node.lineno, target))
                    else:
                        function_local.append((function, target))
            return
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lazy_exports"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Dict):
                    for key in arg.keys:
                        if isinstance(key, ast.Constant) and is_verification(str(key.value)):
                            lazy_keys.append((node.lineno, key.value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return module_level, function_local, lazy_keys


def test_runtime_imports_no_verification_module_at_module_level():
    offenders = [
        f"{module}:{line} imports {target}"
        for module, package, source in runtime_modules()
        for line, target in scan(package, source)[0]
    ]
    assert not offenders, "\n".join(offenders)


def test_runtime_lazy_tables_name_no_verification_package():
    offenders = [
        f"{module}:{line} exports from {key}"
        for module, package, source in runtime_modules()
        for line, key in scan(package, source)[2]
    ]
    assert not offenders, "\n".join(offenders)


def test_function_local_verification_imports_are_allowlisted():
    found = {
        (module, function, target)
        for module, package, source in runtime_modules()
        for function, target in scan(package, source)[1]
    }
    # ``from ..fvn.discharge import x`` also yields ``repro.fvn.discharge.x``
    found = {entry for entry in found if not any(
        entry[:2] == allowed[:2] and entry[2].startswith(allowed[2] + ".")
        for allowed in ALLOWED
    )}
    assert found - set(ALLOWED) == set(), sorted(found - set(ALLOWED))
    assert set(ALLOWED) <= found, f"stale allowlist entries: {sorted(set(ALLOWED) - found)}"


def test_scan_sees_every_import_shape():
    """Relative, absolute and package-attribute imports are flagged, a
    ``TYPE_CHECKING`` import is not, and a function's import is local."""

    source = (
        "from typing import TYPE_CHECKING\n"
        "from ..logic.prover import prove\n"
        "import repro.bgp.spp\n"
        "from .. import fvn\n"
        "if TYPE_CHECKING:\n"
        "    from ..fvn.properties import PropertySpec\n"
        "def f():\n"
        "    from ..metarouting import base\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, {'repro.fvn.x': ('y',)})\n"
    )
    module_level, function_local, lazy_keys = scan("repro.dn", source)
    targets = {target for _, target in module_level}
    assert {"repro.logic.prover", "repro.bgp.spp", "repro.fvn"} <= targets
    assert not any(target.startswith("repro.fvn.properties") for target in targets)
    assert ("f", "repro.metarouting") in function_local
    assert lazy_keys == [(9, "repro.fvn.x")]
