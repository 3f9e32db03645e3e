"""Bind a package's public names on first use (PEP 562).

Every ``repro`` package ``__init__`` hands :func:`lazy_exports` one table —
submodule → the public names it defines — and gets back the module-level
``__getattr__`` and ``__dir__`` plus ``__all__``.  Importing a package then
loads none of its submodules: ``from repro.dn import create_engine`` imports
``repro.dn.engine`` and what it needs, not the shard supervisor, and a
serving client never loads the engine.  A name listed under its own
submodule's name is that submodule (``repro.obs.metrics``).  A table key that
starts with ``repro.`` names a module outside the package, so a package can
keep exporting a name whose home moved (``repro.logic`` exports
:class:`~repro.terms.Var`).  A resolved name is cached in the package
namespace, so ``__getattr__`` runs once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` over ``table``."""

    home = {name: submodule for submodule, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        submodule = home.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(
            submodule if submodule.startswith("repro.") else f"{package}.{submodule}"
        )
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
