"""Tuple storage for NDlog relations.

A :class:`Table` stores ground tuples for one predicate, with:

* optional **primary keys** (``keys(...)`` from ``materialize`` declarations)
  — inserting a tuple with an existing key replaces the old tuple, which is
  how declarative networking implements route updates;
* optional **soft-state lifetimes** — tuples expire ``lifetime`` seconds
  after their last insertion/refresh (paper Section 4.2); only these
  tables keep an expiry deadline per row;
* optional **maximum size** with FIFO eviction;
* **hash indexes** on argument positions — built lazily the first time a
  join probes a position set, then maintained incrementally on every
  insert/replace/delete/expiry.  Indexes are what let the evaluators join
  body literals by probing instead of scanning whole relations;
* **derivation counts** — every row carries the number of supports
  (derivations/deliveries) observed for it.  :meth:`Table.upsert`
  increments the count of the current row, :meth:`Table.release`
  decrements it and reports when the last support is gone, and the
  incremental-deletion machinery (:class:`~repro.ndlog.seminaive.
  IncrementalEvaluator`, the distributed engine's retraction rounds) uses
  the two to decide when a derived tuple must actually be retracted.

Rows are stored bare: a table maps each primary key to its row tuple, with
the support counts (and soft-state deadlines) in dicts of their own beside
it, so storing a new row allocates nothing but the dict entries.

Every hash-index bucket iterates in its table's row order.  A row joins the
back of the rows and of its buckets together, leaves both together, and a
keyed rebind is a removal plus an append, so the rebound key is the youngest
(for FIFO eviction and expiry scans too); a lazily built index reads the rows
in order.  Index order is therefore a function of row order, and a capture
(:meth:`Table.export_state` / :meth:`Table.load_state`) carries rows, counts,
deadlines and the indexed position sets, never buckets.

A :class:`Database` is a collection of tables keyed by predicate name, the
unit of state held by the centralized evaluator and by each node of the
distributed runtime.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .aggregates import tuple_getter
from .ast import MaterializeDecl


_INF = float("inf")


def _make_key_getter(keys: tuple[int, ...]) -> Callable[[Sequence[object]], tuple]:
    """A specialized primary-key extractor for ``keys``.

    ``operator.itemgetter`` keeps multi-attribute keys on the C fast path;
    single-attribute keys are wrapped so the result is always a tuple.
    """

    if not keys:
        return tuple
    if len(keys) == 1:
        k0 = keys[0]
        return lambda values: (values[k0],)
    return operator.itemgetter(*keys)


def _bucket_shape(positions: tuple[int, ...]) -> tuple[int, Callable[[tuple], tuple]]:
    """``(row length required, bucket-key getter)`` of an index over
    ``positions``.

    Both getter forms run in C and return a tuple for a tuple row: a slice
    for zero or one position, ``operator.itemgetter`` for several.
    """

    if len(positions) > 1:
        return positions[-1] + 1, operator.itemgetter(*positions)
    if positions:
        p0 = positions[0]
        return p0 + 1, operator.itemgetter(slice(p0, p0 + 1))
    return 0, operator.itemgetter(slice(0, 0))


def select_rows(
    rows: Mapping[tuple, tuple],
    keys: tuple[int, ...],
    positions: tuple[int, ...],
    wanted: Collection[tuple],
    index: Optional[dict[tuple, dict[tuple, tuple]]] = None,
) -> list[tuple]:
    """The rows of a ``primary key → row`` map whose values at
    ``positions`` are among ``wanted``.

    Reads what already exists and builds nothing: the hash ``index`` over
    ``positions`` when one is given; else primary-key lookups when the key
    attributes all lie within ``positions`` (each wanted tuple then names
    at most one row); else one scan of ``rows``.
    """

    if index is not None:
        return [row for values in wanted for row in index.get(values, {}).values()]
    if keys and positions == keys:
        return [row for row in map(rows.get, wanted) if row is not None]
    key_of, project = _select_getters(keys, positions)
    if key_of is not None:
        found = []
        for values in wanted:
            row = rows.get(key_of(values))
            if row is not None and project(row) == values:
                found.append(row)
        return found
    return [row for row in rows.values() if project(row) in wanted]


@functools.lru_cache(maxsize=None)
def _select_getters(
    keys: tuple[int, ...], positions: tuple[int, ...]
) -> tuple[Optional[Callable[[tuple], tuple]], Callable[[tuple], tuple]]:
    """``(key getter, projection)`` of :func:`select_rows` for a table
    keyed on ``keys`` read at ``positions``: the key getter maps a wanted
    tuple to its row's primary key (None unless every key attribute lies
    within ``positions``), the projection maps a row to its values at
    ``positions``."""

    key_of = None
    if keys and set(keys) <= set(positions):
        key_of = tuple_getter([positions.index(k) for k in keys])
    return key_of, tuple_getter(positions)


class Table:
    """Tuples of a single predicate."""

    def __init__(
        self,
        predicate: str,
        *,
        keys: Sequence[int] = (),
        lifetime: float = float("inf"),
        max_size: float = float("inf"),
    ) -> None:
        self.predicate = predicate
        #: 0-based key attribute positions (empty means the whole tuple is the key)
        self.keys = tuple(keys)
        self._key_getter = _make_key_getter(self.keys)
        self.lifetime = lifetime
        self.max_size = max_size
        #: primary key → row, oldest first (a re-bound key moves to the
        #: back, which is what FIFO eviction, expiry scans and every index
        #: bucket see)
        self._rows: dict[tuple, tuple] = {}
        #: primary key → number of supports observed for the current row
        self._counts: dict[tuple, int] = {}
        #: soft state only: primary key → expiry deadline, written and
        #: popped with ``_rows`` so both iterate in the same key order
        self._deadlines: Optional[dict[tuple, float]] = (
            {} if lifetime != _INF else None
        )
        #: positions → {values-at-positions → {primary key → row}}
        self._indexes: dict[tuple[int, ...], dict[tuple, dict[tuple, tuple]]] = {}
        #: per index, what upkeep needs: the row length it requires, its
        #: bucket-key getter and its buckets
        self._upkeep: list[tuple[int, Callable[[tuple], tuple], dict]] = []

    @classmethod
    def from_declaration(cls, decl: MaterializeDecl) -> "Table":
        # materialize keys are 1-based in the P2 syntax
        zero_based = tuple(k - 1 for k in decl.keys)
        return cls(
            decl.predicate,
            keys=zero_based,
            lifetime=decl.lifetime,
            max_size=decl.max_size,
        )

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_of(self, values: Sequence[object]) -> tuple:
        return self._key_getter(values)

    @property
    def is_soft_state(self) -> bool:
        return self._deadlines is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[object], now: float = 0.0) -> bool:
        """Insert or refresh a tuple.

        Returns ``True`` when the table content changed (a genuinely new
        tuple, or an existing key re-bound to different values).  A pure
        refresh of an identical soft-state tuple extends its lifetime but
        reports ``False`` so semi-naive evaluation does not re-fire rules.
        """

        return self.upsert(values, now)[0]

    def upsert(
        self, values: Sequence[object], now: float = 0.0
    ) -> tuple[bool, Optional[tuple]]:
        """Insert or refresh a tuple, reporting what it displaced.

        Returns ``(changed, previous)`` where ``previous`` is the row that
        was stored under the same key before the call (``None`` for a brand
        new key).  An occupied key holding a different row is re-bound: the
        occupant is removed and the row appended as a new one, with a fresh
        support count (the caller is responsible for retracting the
        displaced row's consequences).
        """

        row = tuple(values)
        changed, occupant = self.upsert_unless_displacing(row, now)
        if occupant is None:
            return changed, None if changed else row
        self._remove(self._key_getter(row))
        self.upsert_unless_displacing(row, now)
        return True, occupant

    def upsert_unless_displacing(
        self, values: Sequence[object], now: float = 0.0
    ) -> tuple[bool, Optional[tuple]]:
        """:meth:`upsert` that refuses to re-bind an occupied key.

        Returns ``(False, occupant)`` — the table untouched — when a
        *different* row is stored under the key of ``values``; otherwise
        ``(changed, None)``: ``True`` for a new row, ``False`` for another
        support of the stored one (counted, and for soft state its lifetime
        restarted).  The retraction-aware runtime inserts through this: a
        keyed displacement must first retract the occupant's consequences,
        and one call with one key computation tells the three cases apart.
        """

        row = tuple(values)
        key = self._key_getter(row)
        rows = self._rows
        existing = rows.get(key)
        deadlines = self._deadlines
        if existing is not None:
            if existing != row:
                return False, existing
            self._counts[key] += 1
            if deadlines is not None:
                deadlines[key] = now + self.lifetime
            return False, None
        rows[key] = row
        self._counts[key] = 1
        if deadlines is not None:
            deadlines[key] = now + self.lifetime
        if self._upkeep:
            self._index_add(key, row)
        if len(rows) > self.max_size:
            self._evict_oldest(key)
        return True, None

    def insert_many(
        self, rows: Iterable[Sequence[object]], now: float = 0.0
    ) -> list[tuple]:
        """Bulk :meth:`insert`; returns the rows that changed the table.

        One attribute-resolution pass for the whole batch instead of a
        method call (and result-tuple allocation) per row — this is the
        fixpoint drivers' commit path, which every derived row crosses once
        per evaluation round.
        """

        _rows = self._rows
        counts = self._counts
        deadlines = self._deadlines
        key_getter = self._key_getter
        expires = now + self.lifetime
        max_size = self.max_size
        changed: list[tuple] = []
        append = changed.append
        for values in rows:
            row = tuple(values)
            key = key_getter(row)
            existing = _rows.get(key)
            if existing is not None:
                if existing == row:
                    counts[key] += 1
                    if deadlines is not None:
                        deadlines[key] = expires
                    continue
                self._remove(key)  # a rebind appends the row as a new one
            _rows[key] = row
            counts[key] = 1
            if deadlines is not None:
                deadlines[key] = expires
            if self._upkeep:
                self._index_add(key, row)
            if len(_rows) > max_size:
                self._evict_oldest(key)
            append(row)
        return changed

    def _evict_oldest(self, key: tuple) -> None:
        """FIFO eviction of the oldest entry, unless it is ``key`` itself."""

        oldest_key = next(iter(self._rows))
        if oldest_key != key:
            self._remove(oldest_key)

    def _remove(self, key: tuple) -> tuple:
        """Drop the row stored under ``key`` with all its bookkeeping."""

        row = self._rows.pop(key)
        del self._counts[key]
        if self._deadlines is not None:
            del self._deadlines[key]
        self._index_remove(key, row)
        return row

    def current(self, values: Sequence[object]) -> Optional[tuple]:
        """The row currently stored under the key of ``values``, if any."""

        return self._rows.get(self._key_getter(tuple(values)))

    def count_of(self, values: Sequence[object]) -> int:
        """Supports observed for the row stored under the key of ``values``."""

        return self._counts.get(self._key_getter(tuple(values)), 0)

    def refresh(self, values: Sequence[object], now: float) -> bool:
        """Extend the lifetime of an identical stored row without counting.

        A pure soft-state refresh is not a new derivation, so it must not
        inflate the row's support count the way :meth:`upsert` would.
        Returns ``True`` when a matching row was present and refreshed.
        """

        row = tuple(values)
        key = self._key_getter(row)
        if self._rows.get(key) != row:
            return False
        if self._deadlines is not None:
            self._deadlines[key] = now + self.lifetime
        return True

    def release(self, values: Sequence[object]) -> Optional[bool]:
        """Drop one support of the stored row equal to ``values``.

        Decrements the derivation count and reports, from one key
        computation, which of three cases held:

        * ``None`` — a stale retraction: no row equal to ``values`` is
          stored (absent, or its key was re-bound), nothing was released;
        * ``False`` — a support was dropped and others remain;
        * ``True`` — the last support was released: the caller must now
          retract the row (it is left in place so retraction joins can still
          read it — remove it with :meth:`delete` once downstream rules have
          fired).

        Callers that only test truthiness see ``None`` and ``False`` alike.
        """

        row = tuple(values)
        key = self._key_getter(row)
        if self._rows.get(key) != row:
            return None
        remaining = self._counts[key] - 1
        if remaining > 0:
            self._counts[key] = remaining
            return False
        self._counts[key] = 0
        return True

    def delete(self, values: Sequence[object]) -> bool:
        """Delete a tuple (by key).  Returns ``True`` if present."""

        key = self._key_getter(tuple(values))
        if key not in self._rows:
            return False
        self._remove(key)
        return True

    def row_expired(self, values: Sequence[object], now: float) -> bool:
        """Is the stored row equal to ``values`` past its lifetime?

        Used by the retraction pipeline to re-check a queued expiry when it
        is actually processed (a refresh in between un-expires the row).
        """

        row = tuple(values)
        key = self._key_getter(row)
        return (
            self._deadlines is not None
            and self._rows.get(key) == row
            and now >= self._deadlines[key]
        )

    def expired(self, now: float) -> list[tuple]:
        """Soft-state rows whose lifetime has elapsed, **without** removing
        them (the retraction pipeline fires deletion joins against the old
        database before physically deleting)."""

        if self._deadlines is None:
            return []
        rows = self._rows
        return [rows[key] for key, deadline in self._deadlines.items() if now >= deadline]

    def expire(self, now: float) -> list[tuple]:
        """Remove expired soft-state tuples, returning the removed rows."""

        if self._deadlines is None:
            return []
        gone = [key for key, deadline in self._deadlines.items() if now >= deadline]
        return [self._remove(key) for key in gone]

    def deadlines(self) -> list[tuple[tuple, float]]:
        """``(row, expiry deadline)`` per stored row, in row order; empty
        for a hard-state table."""

        if self._deadlines is None:
            return []
        rows = self._rows
        return [(rows[key], deadline) for key, deadline in self._deadlines.items()]

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def export_state(self) -> tuple:
        """The table's contents as plain data, ``(rows, deadlines,
        positions)``: rows as ``(key, values, count)`` in row order, the
        deadlines of soft state aligned with them (``None`` for hard
        state), and the position sets of its hash indexes.  Buckets are
        left out: :meth:`load_state` rebuilds them from the rows, in the
        order the live ones iterate."""

        counts = self._counts
        rows = [(key, row, counts[key]) for key, row in self._rows.items()]
        deadlines = (
            None if self._deadlines is None else list(self._deadlines.values())
        )
        return rows, deadlines, list(self._indexes)

    def load_state(self, state: tuple) -> None:
        """Replace the contents with a capture of :meth:`export_state`."""

        rows, deadlines, positions = state
        self._rows = {key: row for key, row, _ in rows}
        self._counts = {key: count for key, _, count in rows}
        if self._deadlines is not None:
            self._deadlines = dict(zip(self._rows, deadlines))
        self._indexes = {}
        self._upkeep = []
        for index_positions in positions:
            self.index_on(index_positions)

    # ------------------------------------------------------------------
    # Hash indexes
    # ------------------------------------------------------------------
    def _index_add(self, key: tuple, row: tuple) -> None:
        # hot path (once per stored row per index): the bucket key comes
        # from a C getter and its hashability is checked by the dict probe
        n = len(row)
        for need, getter, buckets in self._upkeep:
            if n < need:
                continue  # row too short to ever match a literal of this shape
            bucket_key = getter(row)
            try:
                bucket = buckets.get(bucket_key)
            except TypeError:
                # rows with unhashable values at indexed positions stay out
                # of the index; probes for such values raise TypeError
                # themselves and fall back to scanning, so no match is lost
                # (builtin unhashables never compare equal to hashable values)
                continue
            if bucket is None:
                buckets[bucket_key] = {key: row}
            else:
                bucket[key] = row

    def _index_remove(self, key: tuple, row: tuple) -> None:
        n = len(row)
        for need, getter, buckets in self._upkeep:
            if n < need:
                continue
            bucket_key = getter(row)
            try:
                bucket = buckets.get(bucket_key)
            except TypeError:
                continue
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del buckets[bucket_key]

    def index_on(self, positions: Sequence[int]) -> dict[tuple, dict[tuple, tuple]]:
        """The hash index over ``positions`` (ascending), built on first use."""

        positions = tuple(positions)
        index = self._indexes.get(positions)
        if index is None:
            need, getter = _bucket_shape(positions)
            index = {}
            for key, row in self._rows.items():
                if len(row) < need:
                    continue
                try:
                    index.setdefault(getter(row), {})[key] = row
                except TypeError:
                    continue  # unhashable at an indexed position: stays out
            self._indexes[positions] = index
            self._upkeep.append((need, getter, index))
        return index

    def probe(self, positions: Sequence[int], values: Sequence[object]) -> list[tuple]:
        """Rows whose arguments at ``positions`` equal ``values``.

        Equivalent to filtering :meth:`rows` but O(matches) after the index
        over ``positions`` exists.  Raises ``TypeError`` for unhashable probe
        values (callers fall back to a scan).
        """

        bucket = self.index_on(positions).get(tuple(values))
        return list(bucket.values()) if bucket else []

    def probe_iter(
        self, positions: tuple[int, ...], values: tuple
    ) -> Iterable[tuple]:
        """Zero-copy variant of :meth:`probe`.

        Returns a live view of the matching index bucket; callers must not
        mutate the table while iterating (the evaluators collect all firings
        before inserting, so the hot join path satisfies this).  Raises
        ``TypeError`` for unhashable probe values like :meth:`probe`.
        """

        bucket = self.index_on(positions).get(values)
        return bucket.values() if bucket else ()

    def lookup(self, positions: tuple[int, ...], values: tuple) -> Iterable[tuple]:
        """:meth:`probe_iter` that builds no index for a primary-key probe.

        When ``positions`` *are* the table's key attributes, the row map
        already is the index: the (at most one) match is read straight from
        it.  Any other position set goes through the lazy hash index.
        """

        if positions == self.keys:
            row = self._rows.get(values)
            return (row,) if row is not None else ()
        return self.probe_iter(positions, values)

    def has_lookup(self, positions: tuple[int, ...]) -> bool:
        """Is :meth:`lookup` on ``positions`` free of an index build (they
        are the primary key, or their index already exists)?"""

        return positions == self.keys or positions in self._indexes

    def select(self, positions: tuple[int, ...], wanted: Collection[tuple]) -> list[tuple]:
        """Rows whose values at ``positions`` are among ``wanted``, read
        through the primary key or an index that already exists, never a
        new one (see :func:`select_rows`): building an index here would
        change which literal a key-scoped derive seeds with
        (:meth:`has_lookup`)."""

        return select_rows(self._rows, self.keys, positions, wanted, self._indexes.get(positions))

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple]:
        return list(self._rows.values())

    def __contains__(self, values: Sequence[object]) -> bool:
        row = tuple(values)
        return self._rows.get(self._key_getter(row)) == row

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.predicate}, {len(self)} rows)"


class Database:
    """A named collection of tables (one per predicate)."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def declare(
        self,
        predicate: str,
        *,
        keys: Sequence[int] = (),
        lifetime: float = float("inf"),
        max_size: float = float("inf"),
    ) -> Table:
        """Declare (or re-declare) a table with storage properties."""

        table = Table(predicate, keys=keys, lifetime=lifetime, max_size=max_size)
        existing = self._tables.get(predicate)
        if existing is not None:
            for row in existing.rows():
                table.insert(row)
        self._tables[predicate] = table
        return table

    def declare_from(self, decl: MaterializeDecl) -> Table:
        table = Table.from_declaration(decl)
        self._tables[decl.predicate] = table
        return table

    def table(self, predicate: str) -> Table:
        table = self._tables.get(predicate)
        if table is None:
            table = Table(predicate)
            self._tables[predicate] = table
        return table

    def has_table(self, predicate: str) -> bool:
        return predicate in self._tables

    def get_table(self, predicate: str) -> Optional[Table]:
        """The predicate's table if one exists, else ``None``.

        Unlike :meth:`table` this never materializes an empty table; the
        generated rule code uses it to hoist ``index_on`` lookups out of
        its probe loops.
        """

        return self._tables.get(predicate)

    def insert(self, predicate: str, values: Sequence[object], now: float = 0.0) -> bool:
        return self.table(predicate).insert(values, now)

    def delete(self, predicate: str, values: Sequence[object]) -> bool:
        return self.table(predicate).delete(values)

    def release(self, predicate: str, values: Sequence[object]) -> Optional[bool]:
        """Drop one support of a stored row (see :meth:`Table.release`)."""

        if predicate not in self._tables:
            return None
        return self._tables[predicate].release(values)

    def count_of(self, predicate: str, values: Sequence[object]) -> int:
        if predicate not in self._tables:
            return 0
        return self._tables[predicate].count_of(values)

    def rows(self, predicate: str) -> list[tuple]:
        table = self._tables.get(predicate)
        return table.rows() if table is not None else []

    def expire(self, now: float) -> dict[str, list[tuple]]:
        """Expire soft state in every table; returns removed rows per predicate."""

        removed: dict[str, list[tuple]] = {}
        for predicate, table in self._tables.items():
            gone = table.expire(now)
            if gone:
                removed[predicate] = gone
        return removed

    def predicates(self) -> list[str]:
        return sorted(self._tables)

    def fact_count(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def snapshot(self) -> dict[str, set[tuple]]:
        """An immutable-ish snapshot used for convergence detection."""

        return {p: set(t.rows()) for p, t in self._tables.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.fact_count()} facts in {len(self._tables)} tables)"
