"""The term kernel both arcs share: terms, function and comparison semantics.

Figure 1 of the paper keeps verification (the PVS role, :mod:`repro.logic`,
:mod:`repro.fvn`) and execution (the P2 role, :mod:`repro.ndlog`,
:mod:`repro.dn`) as two arcs joined by translations.  What both arcs must
agree on lives here, on the execution side, so dependencies run one way:
the verification arc imports the runtime, never the reverse
(``tests/test_import_contract.py``).

* first-order terms — variables, typed constants and function applications —
  with structural equality, hashing, free variables and substitution;
* :class:`FunctionRegistry` and :func:`ground_eval`: how an interpreted
  function application reduces to a Python value (arithmetic plus whatever
  a caller registers, such as the NDlog list helpers);
* :data:`COMPARISONS` and :data:`COMPARISON_FNS`: what a comparison means,
  for the NDlog evaluators and for finite-model and sequent checks alike.

Terms are immutable.  All construction goes through the public classes
(:class:`Var`, :class:`Const`, :class:`Func`) or the convenience helpers
(:func:`var`, :func:`const`, :func:`func`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union


class Sort:
    """A simple named sort (type) for terms.

    The logic is essentially untyped for proof search, but sorts carry
    through from NDlog schemas and metarouting signatures so that generated
    specifications remain readable and so quantifier instantiation can be
    sort-guided.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Sort({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sort) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Sort", self.name))


#: Common sorts used by the FVN translators.
NODE = Sort("Node")
METRIC = Sort("Metric")
PATH = Sort("Path")
TIME = Sort("Time")
BOOL = Sort("Bool")
INT = Sort("Int")
ANY = Sort("Any")


class Term:
    """Abstract base class of all terms."""

    __slots__ = ()

    def free_vars(self) -> frozenset["Var"]:
        raise NotImplementedError

    def substitute(self, subst: Mapping["Var", "Term"]) -> "Term":
        raise NotImplementedError

    def subterms(self) -> Iterator["Term"]:
        """Yield this term and all of its subterms, pre-order."""
        yield self

    def rename(self, mapping: Mapping[str, str]) -> "Term":
        """Rename variables by name (used for freshening)."""
        raise NotImplementedError

    @property
    def is_ground(self) -> bool:
        return not self.free_vars()


@dataclass(frozen=True)
class Var(Term):
    """A logical variable.

    Variables are identified by name (and optional sort).  Freshening during
    skolemization and quantifier instantiation appends numeric suffixes.
    """

    name: str
    sort: Sort = ANY

    def free_vars(self) -> frozenset["Var"]:
        return frozenset((self,))

    def substitute(self, subst: Mapping["Var", Term]) -> Term:
        return subst.get(self, self)

    def rename(self, mapping: Mapping[str, str]) -> Term:
        if self.name in mapping:
            return Var(mapping[self.name], self.sort)
        return self

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        # Sort deliberately excluded: a variable is identified by its name so
        # that sort-annotated and plain occurrences unify.
        return hash(("Var", self.name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name


@dataclass(frozen=True)
class Const(Term):
    """A constant literal: integers, strings, booleans, tuples of constants.

    ``value`` must be hashable.  Paths (lists of node identifiers) are
    represented as tuples.
    """

    value: object
    sort: Sort = ANY

    def free_vars(self) -> frozenset[Var]:
        return frozenset()

    def substitute(self, subst: Mapping[Var, Term]) -> Term:
        return self

    def rename(self, mapping: Mapping[str, str]) -> Term:
        return self

    def __str__(self) -> str:
        if isinstance(self.value, tuple):
            inner = ",".join(str(v) for v in self.value)
            return f"[{inner}]"
        return repr(self.value) if isinstance(self.value, str) else str(self.value)

    def __hash__(self) -> int:
        return hash(("Const", self.value))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value


@dataclass(frozen=True)
class Func(Term):
    """An uninterpreted or interpreted function application.

    Interpreted functions (arithmetic, the NDlog list helpers) are evaluated
    by :func:`ground_eval` and :mod:`repro.logic.arith` when all arguments
    are ground; the prover otherwise treats them as uninterpreted
    symbols subject to congruence.
    """

    name: str
    args: tuple[Term, ...] = ()
    sort: Sort = ANY

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def free_vars(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for a in self.args:
            out |= a.free_vars()
        return out

    def substitute(self, subst: Mapping[Var, Term]) -> Term:
        return Func(self.name, tuple(a.substitute(subst) for a in self.args), self.sort)

    def rename(self, mapping: Mapping[str, str]) -> Term:
        return Func(self.name, tuple(a.rename(mapping) for a in self.args), self.sort)

    def subterms(self) -> Iterator[Term]:
        yield self
        for a in self.args:
            yield from a.subterms()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        if self.name in _INFIX and len(self.args) == 2:
            return f"({self.args[0]} {self.name} {self.args[1]})"
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"

    def __hash__(self) -> int:
        return hash(("Func", self.name, self.args))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Func)
            and other.name == self.name
            and other.args == self.args
        )


_INFIX = {"+", "-", "*", "/", "min", "max"}


TermLike = Union[Term, int, float, str, bool, tuple, list]


def term(value: TermLike) -> Term:
    """Coerce a Python value to a :class:`Term`.

    Strings beginning with an uppercase letter or ``_`` become variables
    (Datalog convention); everything else becomes a constant.  Existing terms
    pass through unchanged.
    """

    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return Const(value, BOOL)
    if isinstance(value, int):
        return Const(value, INT)
    if isinstance(value, float):
        return Const(value, METRIC)
    if isinstance(value, (tuple, list)):
        return Const(tuple(value), PATH)
    if isinstance(value, str):
        if value and (value[0].isupper() or value[0] == "_"):
            return Var(value)
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to a Term")


def var(name: str, sort: Sort = ANY) -> Var:
    """Construct a variable."""

    return Var(name, sort)


def const(value: object, sort: Sort = ANY) -> Const:
    """Construct a constant."""

    return Const(value, sort)


def func(name: str, *args: TermLike, sort: Sort = ANY) -> Func:
    """Construct a function application, coercing arguments via :func:`term`."""

    return Func(name, tuple(term(a) for a in args), sort)


def variables_in(terms: Iterable[Term]) -> frozenset[Var]:
    """Union of free variables over an iterable of terms."""

    out: frozenset[Var] = frozenset()
    for t in terms:
        out |= t.free_vars()
    return out


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Return ``base`` or ``base!k`` for the smallest k avoiding ``taken``."""

    taken_set = set(taken)
    if base not in taken_set:
        return base
    k = 1
    while f"{base}!{k}" in taken_set:
        k += 1
    return f"{base}!{k}"


def fresh_var(base: Var, taken: Iterable[Var]) -> Var:
    """Return a variable named after ``base`` that is not in ``taken``."""

    return Var(fresh_name(base.name, (v.name for v in taken)), base.sort)


class EvaluationError(Exception):
    """Raised when a term cannot be reduced to a ground Python value."""


class FunctionRegistry:
    """Interpreted functions for ground-term evaluation."""

    def __init__(self, functions: Optional[Mapping[str, Callable]] = None) -> None:
        self._functions: dict[str, Callable] = dict(_ARITHMETIC)
        if functions:
            self._functions.update(functions)

    def register(self, name: str, fn: Callable) -> None:
        self._functions[name] = fn

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def resolve(self, name: str) -> Optional[Callable]:
        """The callable registered under ``name``, or ``None``.

        Used by the rule compiler (:mod:`repro.ndlog.plan`) to pre-dispatch
        function applications at compile time; callers must fall back to
        :meth:`call` when this returns ``None`` so late registrations keep
        working.
        """

        return self._functions.get(name)

    def call(self, name: str, args: Sequence[object]) -> object:
        if name not in self._functions:
            raise EvaluationError(f"no interpretation for function {name!r}")
        return self._functions[name](*args)

    def signature(self) -> tuple:
        """A hashable content signature of the registered interpretations.

        Two registries with equal signatures resolve every function name to
        the *same callable objects*, so compilation artifacts built against
        one are valid for the other.  Used as a cache key by the NDlog
        code-generation backend.
        """

        return tuple(sorted((name, id(fn)) for name, fn in self._functions.items()))


def _add(a, b):
    return a + b


def _sub(a, b):
    return a - b


def _mul(a, b):
    return a * b


def _div(a, b):
    return a / b


_ARITHMETIC: dict[str, Callable] = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "min": min,
    "max": max,
}

#: Public view of the default arithmetic interpretations.  The rule compiler
#: (:mod:`repro.ndlog.plan`) swaps these for their C-level ``operator``
#: equivalents when a registry still maps the name to the default.
DEFAULT_ARITHMETIC: Mapping[str, Callable] = _ARITHMETIC


def ground_eval(t: Term, registry: FunctionRegistry, bindings: Optional[Mapping[Var, object]] = None) -> object:
    """Evaluate a term to a Python value under ``bindings``."""

    if isinstance(t, Const):
        return t.value
    if isinstance(t, Var):
        if bindings is not None and t in bindings:
            return bindings[t]
        raise EvaluationError(f"unbound variable {t}")
    if isinstance(t, Func):
        args = [ground_eval(a, registry, bindings) for a in t.args]
        return registry.call(t.name, args)
    raise EvaluationError(f"cannot evaluate term {t!r}")


#: Comparison operator names (NDlog's ``==`` / ``!=`` parse to ``=`` / ``/=``).
COMPARISONS = ("=", "/=", "<", "<=", ">", ">=")


def _ordered_comparison(op: str, fn: Callable) -> Callable[[object, object], bool]:
    def compare(left: object, right: object) -> bool:
        try:
            return fn(left, right)
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {left!r} {op} {right!r}: operands of types "
                f"{type(left).__name__} and {type(right).__name__} are not ordered"
            ) from exc

    return compare


#: One callable per comparison operator.  Equality maps straight onto
#: ``operator.eq`` / ``ne``; an ordering raises :class:`EvaluationError`
#: naming both operand types when the pair is unordered (``"a" < 1``),
#: instead of a bare ``TypeError``.  Generated rule code inlines the same
#: semantics (:mod:`repro.ndlog.codegen`).
COMPARISON_FNS: Mapping[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "/=": operator.ne,
    "<": _ordered_comparison("<", operator.lt),
    "<=": _ordered_comparison("<=", operator.le),
    ">": _ordered_comparison(">", operator.gt),
    ">=": _ordered_comparison(">=", operator.ge),
}
