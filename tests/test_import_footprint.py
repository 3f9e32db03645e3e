"""What each entry point loads: a process pays only for what it runs.

Every ``repro`` package binds its public names on first use
(:mod:`repro._lazy`), no runtime path imports networkx (only the
``Topology.to_networkx`` / ``from_networkx`` interop does), and the
verification arc (``repro.logic``, ``repro.fvn``,
``repro.bgp``) stays out of the execution path: what both arcs share lives
in :mod:`repro.terms` (``tests/test_import_contract.py`` pins the direction
in the source).  Each case runs in a fresh interpreter and reads
``sys.modules`` at its end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the verification arc: what a serving daemon or an engine run never needs
VERIFICATION = ("repro.logic", "repro.fvn", "repro.bgp")


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


def under_any(modules: set[str], packages) -> set[str]:
    return set().union(*(under(modules, package) for package in packages))


def test_client_loads_no_engine():
    modules = loaded_after("import repro.serving.client")
    assert not under(modules, "repro.dn")
    assert not under(modules, "networkx")


def test_cli_loads_only_the_client():
    """``update`` and ``query`` are one-shot clients: the daemon stack is
    imported inside ``serve`` only."""

    modules = loaded_after("import repro.serving.cli")
    assert not under_any(modules, ("repro.dn", "repro.ndlog", "repro.logic"))


def test_centralized_evaluation_loads_no_engine():
    """``IncrementalEvaluator`` runs the engine's executor, imported when
    one is built: ``repro.dn`` imports this module, so a module-level import
    would close the cycle."""

    modules = loaded_after("import repro.ndlog.seminaive")
    assert "repro.ndlog.seminaive" in modules
    assert not under(modules, "repro.dn")


def test_engine_and_parser_load_no_logic():
    for entry in ("repro.dn.engine", "repro.ndlog.parser"):
        modules = loaded_after(f"import {entry}")
        assert entry in modules
        assert not under(modules, "repro.logic"), entry


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
    assert not under_any(modules, VERIFICATION)


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
    assert not under_any(modules, VERIFICATION)


def test_power_law_converge_loads_no_networkx():
    """The bench ``converge`` op's shape: a power_law graph, an engine, a
    run and its fingerprint."""

    modules = loaded_after(
        "from repro.dn import create_engine\n"
        "from repro.protocols.policy import policy_path_vector_program\n"
        "from repro.scenarios import generate_scenario\n"
        "scenario = generate_scenario('power_law', size=32, seed=0, policy='shortest_path')\n"
        "engine = create_engine(policy_path_vector_program(), scenario.topology)\n"
        "trace = engine.run(extra_facts=scenario.policy_fact_list())\n"
        "assert trace.quiescent and trace.fingerprint()\n"
    )
    assert "repro.dn.engine" in modules
    assert not under(modules, "networkx")
    assert not under_any(modules, VERIFICATION)


def test_campaign_runs_load_nothing_the_runner_did_not():
    """A pool's parent preloads nothing: after ``import
    repro.harness.runner``, the bench campaign grid's 24 runs (three
    families at 20 nodes x two policies x churn {0, 2} x two seeds, obs on)
    import no further module, so a forked worker imports none either."""

    script = (
        "import json, sys\n"
        "from repro.harness.runner import execute_run\n"
        "from repro.harness.spec import CampaignSpec\n"
        "spec = CampaignSpec(\n"
        "    name='footprint', families=('tree', 'power_law', 'waxman'), sizes=(20,),\n"
        "    policies=('shortest_path', 'gao_rexford'), seeds=(0, 1), churn_events=(0, 2),\n"
        "    loss=(0.01,), until=30.0, max_events=150_000, record_stale_routes=False,\n"
        "    obs=True,\n"
        ")\n"
        "descriptors = spec.expand()\n"
        "before = set(sys.modules)\n"
        "for descriptor in descriptors:\n"
        "    assert execute_run(descriptor.to_dict(), False, True)['status'] == 'ok'\n"
        "print(len(descriptors), json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    runs, new = result.stdout.splitlines()[-1].split(" ", 1)
    assert int(runs) == 24
    assert json.loads(new) == []


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
