"""Built-in NDlog functions.

Declarative networking programs manipulate path vectors and other values
with a small library of ``f_*`` functions (paper Section 2.2).  Path vectors
are represented as Python tuples of node identifiers, which keeps tuples
hashable so they can be stored in relations.

The registry returned by :func:`builtin_registry` is shared by the
centralized evaluator, the distributed runtime, and the finite-model
evaluator in :mod:`repro.logic.bmc`, so NDlog programs, their logical
specifications, and their executions all agree on function semantics.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from ..terms import FunctionRegistry


def f_init(src: object, dst: object) -> tuple:
    """Initialize a path vector containing ``src`` then ``dst``."""

    return (src, dst)


def f_concat_path(node: object, path: Sequence) -> tuple:
    """Prepend ``node`` to the path vector ``path``."""

    return (node,) + tuple(path)

def f_append_path(path: Sequence, node: object) -> tuple:
    """Append ``node`` to the path vector ``path``."""

    return tuple(path) + (node,)


def f_in_path(path: Sequence, node: object) -> bool:
    """Is ``node`` a member of the path vector ``path``?"""

    return node in tuple(path)


def f_size(path: Sequence) -> int:
    """Number of elements in a path vector."""

    return len(tuple(path))


def f_first(path: Sequence) -> object:
    """First element of a path vector."""

    values = tuple(path)
    if not values:
        raise ValueError("f_first of an empty path")
    return values[0]


def f_last(path: Sequence) -> object:
    """Last element of a path vector."""

    values = tuple(path)
    if not values:
        raise ValueError("f_last of an empty path")
    return values[-1]


def f_remove_first(path: Sequence) -> tuple:
    """The path vector without its first element."""

    return tuple(path)[1:]


def f_remove_last(path: Sequence) -> tuple:
    """The path vector without its last element."""

    return tuple(path)[:-1]


def f_member(collection: Iterable, item: object) -> bool:
    """Generic membership test."""

    return item in tuple(collection)


def f_empty() -> tuple:
    """The empty path vector."""

    return ()


def f_reverse(path: Sequence) -> tuple:
    """Reverse a path vector."""

    return tuple(reversed(tuple(path)))


#: Name → implementation for every NDlog builtin.  Both the camelCase names
#: used in the paper (``f_concatPath``) and snake_case aliases are provided.
BUILTIN_FUNCTIONS: dict[str, Callable] = {
    "f_init": f_init,
    "f_concatPath": f_concat_path,
    "f_concat_path": f_concat_path,
    "f_appendPath": f_append_path,
    "f_append_path": f_append_path,
    "f_inPath": f_in_path,
    "f_in_path": f_in_path,
    "f_size": f_size,
    "f_first": f_first,
    "f_last": f_last,
    "f_removeFirst": f_remove_first,
    "f_remove_first": f_remove_first,
    "f_removeLast": f_remove_last,
    "f_remove_last": f_remove_last,
    "f_member": f_member,
    "f_empty": f_empty,
    "f_reverse": f_reverse,
}


def builtin_registry(extra: Mapping[str, Callable] | None = None) -> FunctionRegistry:
    """A :class:`FunctionRegistry` preloaded with arithmetic and NDlog builtins."""

    registry = FunctionRegistry(BUILTIN_FUNCTIONS)
    if extra:
        for name, fn in extra.items():
            registry.register(name, fn)
    return registry
