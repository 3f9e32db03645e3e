"""The five workloads; each module exposes ``prepare``, ``measure``,
``layers`` and ``teardown`` over a :class:`bench.runtime.Pass`."""

from __future__ import annotations

from importlib import import_module

_MODULES = {
    "converge": "engine_ops",
    "sharded": "engine_ops",
    "churn": "churn",
    "serve": "serve",
    "campaign": "campaign",
}


def load(workload: str):
    """Import a workload's module (this is where ``repro`` gets imported)."""

    return import_module(f"{__name__}.{_MODULES[workload]}")
