"""Aggregate computation for NDlog head aggregates (``min<C>``, ``count<X>``…).

Aggregation in NDlog is *stratified*: a rule with an aggregate head is
evaluated only after the relations it reads are complete (enforced by
:mod:`repro.ndlog.stratification`).  Evaluation groups the body's result
bindings by the non-aggregate head attributes and folds each group with the
aggregate function.
"""

from __future__ import annotations

import numbers
import operator
from typing import Callable, Iterable, Sequence

from .ast import HeadLiteral, NDlogError

_MISSING = object()


def diff_rows(
    previous: set[tuple], current: Iterable[tuple]
) -> tuple[list[tuple], list[tuple], set[tuple]]:
    """The recomputation hook for aggregate (and other non-incremental) rules.

    Aggregates are maintained under deletion by *recompute-and-diff*: the
    rule is re-evaluated over the changed body and its new output compared
    with the memoized previous output.  Returns ``(added, removed, rows)``
    where ``added`` are rows to assert, ``removed`` rows to retract, and
    ``rows`` the new memo.  Rows are ordered removals-first by the callers
    so a keyed aggregate table (``bestPathCost(@S,D,min<C>)``) retracts the
    stale group value before asserting the new one.
    """

    rows = {tuple(r) for r in current}
    if rows == previous:
        return [], [], rows
    added = [r for r in rows if r not in previous]
    removed = [r for r in previous if r not in rows]
    return added, removed, rows


def tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function mapping a row to the tuple of its values at
    ``positions`` (a tuple for any number of positions, unlike a bare
    ``itemgetter``)."""

    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def group_key_getter(head: HeadLiteral) -> Callable[[tuple], tuple]:
    """The function mapping a head row (aggregated, or the raw row of one
    binding) to its group key: the tuple of its non-aggregate values."""

    return tuple_getter(head.group_by_indices)


def group_rows(head: HeadLiteral, rows: Iterable[tuple]) -> dict[tuple, tuple]:
    """Aggregated head rows keyed by group: an aggregate rule derives one
    row per group, so this is its output as a group → row map."""

    key = group_key_getter(head)
    return {key(row): row for row in rows}


def order_key(value: object) -> tuple:
    """A total, type-tagged sort key for a row value.

    Values of different types need not compare (``1 < "a"`` raises), so a
    canonical order cannot sort raw values.  The key puts a kind tag first
    — ``None``, real number, NaN, string, bytes, sequence, anything else —
    and orders within a kind by value: sequences (tuples, named tuples,
    lists) element by element, anything else by type name and ``repr``.
    Any two values order, by what they are rather than by when or where
    they were stored.
    """

    kind = type(value)
    if kind is int:
        return (1, value)
    if kind is tuple:
        return (5, tuple(map(order_key, value)))
    if value is None:
        return (0,)
    if isinstance(value, (tuple, list)):
        return (5, tuple(map(order_key, value)))
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    # the exact-type test spares ints and floats the slower ABC check
    if type(value) in (int, float) or isinstance(value, numbers.Real):
        return (1, value) if value == value else (2,)
    return (6, type(value).__qualname__, repr(value))


def _agg_min(values: Sequence) -> object:
    return min(values)


def _agg_max(values: Sequence) -> object:
    return max(values)


def _agg_count(values: Sequence) -> int:
    return len(values)


def _agg_sum(values: Sequence) -> object:
    return sum(values)


def _agg_avg(values: Sequence) -> float:
    return sum(values) / len(values)


AGGREGATE_IMPLS: dict[str, Callable[[Sequence], object]] = {
    "min": _agg_min,
    "max": _agg_max,
    "count": _agg_count,
    "sum": _agg_sum,
    "avg": _agg_avg,
}


def apply_aggregate(function: str, values: Sequence) -> object:
    """Fold ``values`` with the named aggregate function."""

    if function not in AGGREGATE_IMPLS:
        raise NDlogError(f"unknown aggregate function {function!r}")
    if not values and function != "count":
        raise NDlogError(f"aggregate {function!r} over an empty group")
    if not values and function == "count":
        return 0
    return AGGREGATE_IMPLS[function](values)


def aggregate_rows(head: HeadLiteral, rows: Iterable[tuple]) -> list[tuple]:
    """Aggregate fully-instantiated head rows.

    ``rows`` are tuples matching the head's arity where aggregate positions
    hold the raw (un-aggregated) value of the aggregate variable for one body
    binding.  The result groups rows by the non-aggregate positions and folds
    each aggregate position **incrementally** over its group (running
    min/max/count/sum rather than materialized per-group value lists — the
    aggregate relations are recomputed over full tables on every batch
    round, so this fold is on the hot path of both evaluators).
    """

    agg_positions = head.aggregates
    if not agg_positions:
        # rows are always tuples here (every evaluator builds them as
        # such), so dedup straight through dict.fromkeys without re-wrapping
        return list(dict.fromkeys(rows))
    for _, agg in agg_positions:
        if agg.function not in AGGREGATE_IMPLS:
            raise NDlogError(f"unknown aggregate function {agg.function!r}")
    group_by = head.group_by_indices
    if len(agg_positions) == 1:
        return _aggregate_single(head, rows, group_by, *agg_positions[0])
    # group key → accumulator per aggregate position: [value, count]
    groups: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[i] for i in group_by)
        accs = groups.get(key)
        if accs is None:
            accs = []
            for index, agg in agg_positions:
                function = agg.function
                if function == "count":
                    accs.append([None, 1])
                elif function in ("sum", "avg"):
                    # 0 + value coerces like builtin sum() (bools become ints)
                    accs.append([0 + row[index], 1])
                else:
                    accs.append([row[index], 1])
            groups[key] = accs
            continue
        for acc, (index, agg) in zip(accs, agg_positions):
            function = agg.function
            if function == "min":
                value = row[index]
                if value < acc[0]:
                    acc[0] = value
            elif function == "max":
                value = row[index]
                if value > acc[0]:
                    acc[0] = value
            elif function != "count":  # sum / avg keep a running sum
                acc[0] += row[index]
            acc[1] += 1
    out: list[tuple] = []
    for key, accs in groups.items():
        result: list = [None] * head.arity
        for position, value in zip(group_by, key):
            result[position] = value
        for acc, (index, agg) in zip(accs, agg_positions):
            function = agg.function
            if function == "count":
                result[index] = acc[1]
            elif function == "avg":
                result[index] = acc[0] / acc[1]
            else:
                result[index] = acc[0]
        out.append(tuple(result))
    return out


def _aggregate_single(
    head: HeadLiteral, rows: Iterable[tuple], group_by: list[int], index: int, agg
) -> list[tuple]:
    """Fast path for the (dominant) single-aggregate head shape.

    One dict fold over the rows with a specialized group-key extractor; this
    is the loop behind every ``min<C>`` route-selection recomputation, so it
    avoids the generic accumulator machinery entirely.
    """

    key_fn: Callable[[tuple], object]
    if not group_by:
        def key_fn(row):
            return ()
    elif len(group_by) == 1:
        key_fn = operator.itemgetter(group_by[0])  # scalar key, rebuilt below
    else:
        key_fn = operator.itemgetter(*group_by)
    function = agg.function
    folded: dict = {}
    get = folded.get
    if function == "min":
        for row in rows:
            key = key_fn(row)
            value = row[index]
            current = get(key, _MISSING)
            if current is _MISSING or value < current:
                folded[key] = value
    elif function == "max":
        for row in rows:
            key = key_fn(row)
            value = row[index]
            current = get(key, _MISSING)
            if current is _MISSING or value > current:
                folded[key] = value
    elif function == "count":
        for row in rows:
            key = key_fn(row)
            folded[key] = get(key, 0) + 1
    elif function == "sum":
        for row in rows:
            key = key_fn(row)
            folded[key] = get(key, 0) + row[index]
    else:  # avg
        for row in rows:
            key = key_fn(row)
            acc = get(key)
            if acc is None:
                folded[key] = [0 + row[index], 1]
            else:
                acc[0] += row[index]
                acc[1] += 1
        folded = {key: acc[0] / acc[1] for key, acc in folded.items()}
    arity = head.arity
    if index == arity - 1 and group_by == list(range(index)):
        # the aggregate last, after every group-by attribute
        # (``bestRouteRank(@S,D,min<R>)``): a row is its key plus the value
        if len(group_by) == 1:
            return [(key, value) for key, value in folded.items()]
        return [(*key, value) for key, value in folded.items()]
    out: list[tuple] = []
    if len(group_by) == 1:
        g0 = group_by[0]
        for key, value in folded.items():
            result: list = [None] * arity
            result[g0] = key
            result[index] = value
            out.append(tuple(result))
    else:
        for key, value in folded.items():
            result = [None] * arity
            for position, key_value in zip(group_by, key):
                result[position] = key_value
            result[index] = value
            out.append(tuple(result))
    return out
