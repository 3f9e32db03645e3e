"""What each entry point loads: a process pays only for what it runs.

Every ``repro`` package binds its public names on first use
(:mod:`repro._lazy`), networkx is imported only where a networkx graph is
built, and the engine's verification side (the prover, the FVN pipeline)
stays out of the execution path.  Each case runs in a fresh interpreter
and reads ``sys.modules`` at its end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the verification arc: what a serving daemon or an engine run never needs
PROVER_STACK = ("repro.logic.prover", "repro.fvn.framework")


def loaded_after(script: str, *args: str) -> set[str]:
    """The module names a fresh interpreter holds after running ``script``
    (``sys.argv[1:]`` are ``args``)."""

    env = dict(os.environ, PYTHONPATH=str(SRC))
    report = "\nimport json as _json, sys as _sys\nprint(_json.dumps(sorted(_sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", script + report, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def under(modules: set[str], package: str) -> set[str]:
    return {name for name in modules if name == package or name.startswith(package + ".")}


def test_client_loads_no_engine():
    modules = loaded_after("import repro.serving.client")
    assert not under(modules, "repro.dn")
    assert not under(modules, "networkx")


def test_tree_daemon_loads_neither_networkx_nor_the_prover(tmp_path):
    modules = loaded_after(
        "import sys\n"
        "import repro.serving.cli\n"
        "from repro.serving import RouteService, ServerConfig\n"
        "service = RouteService(ServerConfig(state_dir=sys.argv[1], family='tree', size=8))\n"
        "assert service.apply_update('link_fail', {'src': 0, 'dst': 1})['settled']\n"
        "service.close()\n",
        str(tmp_path / "state"),
    )
    assert "repro.serving.service" in modules
    assert not under(modules, "networkx")
    assert not modules & set(PROVER_STACK)


def test_engine_tree_run_loads_no_networkx():
    modules = loaded_after(
        "from repro.dn import create_engine\n"
        "from repro.protocols.pathvector import path_vector_program\n"
        "from repro.scenarios import generate_scenario\n"
        "scenario = generate_scenario('tree', size=8, seed=3)\n"
        "engine = create_engine(path_vector_program(), scenario.topology)\n"
        "assert engine.run().quiescent\n"
    )
    assert "repro.dn.engine" in modules
    assert not under(modules, "networkx")
    assert not modules & set(PROVER_STACK)


def test_every_public_name_resolves():
    """Importing a package loads none of its submodules; every name in its
    ``__all__`` then resolves, is listed by ``dir()`` and comes with
    ``from package import *``."""

    packages = sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    )
    script = (
        "import importlib, sys\n"
        "packages = sys.argv[1:]\n"
        "for package in packages:\n"
        "    importlib.import_module(package)\n"
        "eager = sorted(\n"
        "    name for name in sys.modules\n"
        "    if name.startswith('repro.') and name not in packages and name != 'repro._lazy'\n"
        ")\n"
        "assert not eager, eager\n"
        "for package in packages:\n"
        "    module = sys.modules[package]\n"
        "    assert module.__all__, package\n"
        "    star = {}\n"
        "    exec(f'from {package} import *', star)\n"
        "    for name in module.__all__:\n"
        "        value = getattr(module, name)\n"
        "        assert star[name] is value, (package, name)\n"
        "        assert name in dir(module), (package, name)\n"
    )
    modules = loaded_after(script, *packages)
    assert set(packages) <= modules
    assert len(packages) >= 15
