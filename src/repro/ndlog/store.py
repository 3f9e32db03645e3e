"""Tuple storage for NDlog relations.

A :class:`Table` stores ground tuples for one predicate, with:

* optional **primary keys** (``keys(...)`` from ``materialize`` declarations)
  — inserting a tuple with an existing key replaces the old tuple, which is
  how declarative networking implements route updates in place;
* optional **soft-state lifetimes** — tuples expire ``lifetime`` seconds
  after their last insertion/refresh (paper Section 4.2);
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

A :class:`Database` is a collection of tables keyed by predicate name, the
unit of state held by the centralized evaluator and by each node of the
distributed runtime.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


@dataclass(slots=True)
class StoredTuple:
    """A tuple plus its bookkeeping (insertion time, expiry time).

    Deliberately not frozen: one is allocated per upsert on the evaluators'
    insert path, and a frozen dataclass pays ``object.__setattr__`` per
    field there.  Treat instances as immutable regardless.
    """

    values: tuple
    inserted_at: float = 0.0
    expires_at: float = float("inf")

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at


class Table:
    """Tuples of a single predicate."""

    #: optional callback ``(predicate, positions)`` fired when a lazy index
    #: is first built — the sharded runtime mirrors worker index builds into
    #: the coordinator's replica tables so a crash-resynced worker inherits
    #: the exact bucket ordering an undisturbed worker would have
    on_index_build: Optional[Callable[[str, tuple[int, ...]], None]] = None

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
        self._rows: "OrderedDict[tuple, StoredTuple]" = OrderedDict()
        #: primary key → number of supports observed for the current row
        self._counts: dict[tuple, int] = {}
        #: positions → {values-at-positions → {primary key → row}}
        self._indexes: dict[tuple[int, ...], dict[tuple, dict[tuple, tuple]]] = {}

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
        return self.lifetime != float("inf")

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
        new key).  Computes the primary key once, which is why the runtime's
        insert path uses this instead of ``current`` + ``insert``.
        """

        row = tuple(values)
        key = self._key_getter(row)
        return self._upsert_at(key, row, self._rows.get(key), now)

    def upsert_unless_displacing(
        self, values: Sequence[object], now: float = 0.0
    ) -> tuple[bool, Optional[tuple]]:
        """:meth:`upsert` that refuses to re-bind an occupied key.

        Returns ``(False, occupant)`` — the table untouched — when a
        *different* row is stored under the key of ``values``; otherwise
        ``(changed, None)`` exactly as :meth:`upsert` reports a new key or
        another support of the stored row.  The retraction-aware runtime
        inserts through this: a keyed displacement must first retract the
        occupant's consequences, and telling the three cases apart here
        costs one key computation instead of ``current`` + ``upsert``.
        """

        row = tuple(values)
        key = self._key_getter(row)
        existing = self._rows.get(key)
        if existing is not None and existing.values != row:
            return False, existing.values
        return self._upsert_at(key, row, existing, now)[0], None

    def _upsert_at(
        self, key: tuple, row: tuple, existing: Optional[StoredTuple], now: float
    ) -> tuple[bool, Optional[tuple]]:
        """:meth:`upsert` once the key is computed and looked up."""

        lifetime = self.lifetime
        if existing is not None and existing.values == row:
            # another support for the same row (a duplicate derivation or a
            # soft-state re-announcement): count it, and rewrite the stored
            # bookkeeping only when it would actually change (the fixpoint
            # drivers re-insert every re-derived row, so this is hot)
            self._counts[key] = self._counts.get(key, 0) + 1
            if lifetime != _INF or existing.inserted_at != now:
                expires = now + lifetime if lifetime != _INF else _INF
                self._rows[key] = StoredTuple(row, now, expires)
            return False, existing.values
        expires = now + lifetime if lifetime != _INF else _INF
        self._rows[key] = StoredTuple(row, now, expires)
        self._counts[key] = 1
        if existing is None:
            if self._indexes:
                self._index_add(key, row)
            if len(self._rows) > self.max_size:
                # FIFO eviction of the oldest entry that is not the new one
                oldest_key = next(iter(self._rows))
                if oldest_key != key:
                    evicted = self._rows.pop(oldest_key)
                    self._counts.pop(oldest_key, None)
                    self._index_remove(oldest_key, evicted.values)
            return True, None
        # key re-bound to different values: the new row starts a fresh
        # support count (the caller is responsible for retracting the
        # displaced row's consequences when retraction semantics are on)
        self._index_remove(key, existing.values)
        self._index_add(key, row)
        return True, existing.values

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
        key_getter = self._key_getter
        lifetime = self.lifetime
        is_inf = lifetime == _INF
        expires = _INF if is_inf else now + lifetime
        indexes = self._indexes
        max_size = self.max_size
        changed: list[tuple] = []
        append = changed.append
        for values in rows:
            row = tuple(values)
            key = key_getter(row)
            existing = _rows.get(key)
            if existing is not None and existing.values == row:
                counts[key] = counts.get(key, 0) + 1
                if not is_inf or existing.inserted_at != now:
                    _rows[key] = StoredTuple(row, now, expires)
                continue
            _rows[key] = StoredTuple(row, now, expires)
            counts[key] = 1
            if existing is None:
                if indexes:
                    self._index_add(key, row)
                if len(_rows) > max_size:
                    # FIFO eviction of the oldest entry that is not the new one
                    oldest_key = next(iter(_rows))
                    if oldest_key != key:
                        evicted = _rows.pop(oldest_key)
                        counts.pop(oldest_key, None)
                        self._index_remove(oldest_key, evicted.values)
            else:
                self._index_remove(key, existing.values)
                self._index_add(key, row)
            append(row)
        return changed

    def current(self, values: Sequence[object]) -> Optional[tuple]:
        """The row currently stored under the key of ``values``, if any."""

        stored = self._rows.get(self.key_of(tuple(values)))
        return stored.values if stored is not None else None

    def count_of(self, values: Sequence[object]) -> int:
        """Supports observed for the row stored under the key of ``values``."""

        return self._counts.get(self.key_of(tuple(values)), 0)

    def refresh(self, values: Sequence[object], now: float) -> bool:
        """Extend the lifetime of an identical stored row without counting.

        A pure soft-state refresh is not a new derivation, so it must not
        inflate the row's support count the way :meth:`upsert` would.
        Returns ``True`` when a matching row was present and refreshed.
        """

        row = tuple(values)
        key = self._key_getter(row)
        stored = self._rows.get(key)
        if stored is None or stored.values != row:
            return False
        lifetime = self.lifetime
        expires = now + lifetime if lifetime != _INF else _INF
        self._rows[key] = StoredTuple(row, now, expires)
        return True

    def release(self, values: Sequence[object]) -> bool:
        """Drop one support of the stored row equal to ``values``.

        Decrements the derivation count; returns ``True`` exactly when the
        last support was released, i.e. the caller must now retract the row
        (the row itself is left in place so retraction joins can still read
        it — remove it with :meth:`delete` once downstream rules have fired).
        A release of a row that is absent or was replaced is a stale
        retraction and is ignored.
        """

        row = tuple(values)
        key = self._key_getter(row)
        stored = self._rows.get(key)
        if stored is None or stored.values != row:
            return False
        remaining = self._counts.get(key, 1) - 1
        if remaining > 0:
            self._counts[key] = remaining
            return False
        self._counts[key] = 0
        return True

    def delete(self, values: Sequence[object]) -> bool:
        """Delete a tuple (by key).  Returns ``True`` if present."""

        key = self.key_of(tuple(values))
        stored = self._rows.pop(key, None)
        if stored is None:
            return False
        self._counts.pop(key, None)
        self._index_remove(key, stored.values)
        return True

    def row_expired(self, values: Sequence[object], now: float) -> bool:
        """Is the stored row equal to ``values`` past its lifetime?

        Used by the retraction pipeline to re-check a queued expiry when it
        is actually processed (a refresh in between un-expires the row).
        """

        row = tuple(values)
        stored = self._rows.get(self.key_of(row))
        return stored is not None and stored.values == row and stored.is_expired(now)

    def expired(self, now: float) -> list[tuple]:
        """Soft-state rows whose lifetime has elapsed, **without** removing
        them (the retraction pipeline fires deletion joins against the old
        database before physically deleting)."""

        if not self.is_soft_state:
            return []
        return [st.values for st in self._rows.values() if st.is_expired(now)]

    def expire(self, now: float) -> list[tuple]:
        """Remove expired soft-state tuples, returning the removed rows."""

        if not self.is_soft_state:
            return []
        removed: list[tuple] = []
        for key, stored in list(self._rows.items()):
            if stored.is_expired(now):
                removed.append(stored.values)
                del self._rows[key]
                self._counts.pop(key, None)
                self._index_remove(key, stored.values)
        return removed

    def clear(self) -> None:
        self._rows.clear()
        self._counts.clear()
        for positions in self._indexes:
            self._indexes[positions] = {}

    # ------------------------------------------------------------------
    # Hash indexes
    # ------------------------------------------------------------------
    @staticmethod
    def _bucket_key(row: tuple, positions: tuple[int, ...]) -> Optional[tuple]:
        if positions and positions[-1] >= len(row):
            return None  # row too short to ever match a literal of this shape
        key = tuple(map(row.__getitem__, positions))
        try:
            hash(key)
        except TypeError:
            # rows with unhashable values at indexed positions stay out of
            # the index; probes for such values raise TypeError themselves
            # and fall back to scanning, so no match is lost (builtin
            # unhashables never compare equal to hashable values)
            return None
        return key

    def _index_add(self, key: tuple, row: tuple) -> None:
        # hot path (once per stored row per index): the bucket key is built
        # with map() and its hashability checked by the dict probe itself,
        # instead of going through _bucket_key + setdefault
        n = len(row)
        getitem = row.__getitem__
        for positions, buckets in self._indexes.items():
            if positions and positions[-1] >= n:
                continue
            bucket_key = tuple(map(getitem, positions))
            try:
                bucket = buckets.get(bucket_key)
            except TypeError:
                continue  # unhashable at an indexed position: stays out
            if bucket is None:
                buckets[bucket_key] = {key: row}
            else:
                bucket[key] = row

    def _index_remove(self, key: tuple, row: tuple) -> None:
        n = len(row)
        getitem = row.__getitem__
        for positions, buckets in self._indexes.items():
            if positions and positions[-1] >= n:
                continue
            bucket_key = tuple(map(getitem, positions))
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
            index = {}
            for key, stored in self._rows.items():
                bucket_key = self._bucket_key(stored.values, positions)
                if bucket_key is None:
                    continue
                index.setdefault(bucket_key, {})[key] = stored.values
            self._indexes[positions] = index
            if self.on_index_build is not None:
                self.on_index_build(self.predicate, positions)
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
            stored = self._rows.get(values)
            return (stored.values,) if stored is not None else ()
        return self.probe_iter(positions, values)

    def has_lookup(self, positions: tuple[int, ...]) -> bool:
        """Is :meth:`lookup` on ``positions`` free of an index build (they
        are the primary key, or their index already exists)?"""

        return positions == self.keys or positions in self._indexes

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple]:
        return [st.values for st in self._rows.values()]

    def stored(self) -> list[StoredTuple]:
        return list(self._rows.values())

    def __contains__(self, values: Sequence[object]) -> bool:
        row = tuple(values)
        stored = self._rows.get(self.key_of(row))
        return stored is not None and stored.values == row

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
        self._on_index_build: Optional[Callable[[str, tuple[int, ...]], None]] = None

    def hook_index_builds(
        self, callback: Optional[Callable[[str, tuple[int, ...]], None]]
    ) -> None:
        """Install ``callback(predicate, positions)`` on every table's lazy
        index build, current and future (see :attr:`Table.on_index_build`)."""

        self._on_index_build = callback
        for table in self._tables.values():
            table.on_index_build = callback

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
        table.on_index_build = self._on_index_build
        self._tables[predicate] = table
        return table

    def declare_from(self, decl: MaterializeDecl) -> Table:
        table = Table.from_declaration(decl)
        table.on_index_build = self._on_index_build
        self._tables[decl.predicate] = table
        return table

    def table(self, predicate: str) -> Table:
        if predicate not in self._tables:
            table = Table(predicate)
            table.on_index_build = self._on_index_build
            self._tables[predicate] = table
        return self._tables[predicate]

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

    def release(self, predicate: str, values: Sequence[object]) -> bool:
        """Drop one support of a stored row (see :meth:`Table.release`)."""

        if predicate not in self._tables:
            return False
        return self._tables[predicate].release(values)

    def count_of(self, predicate: str, values: Sequence[object]) -> int:
        if predicate not in self._tables:
            return 0
        return self._tables[predicate].count_of(values)

    def rows(self, predicate: str) -> list[tuple]:
        return self.table(predicate).rows() if predicate in self._tables else []

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

    def copy(self) -> "Database":
        out = Database()
        for predicate, table in self._tables.items():
            new = Table(
                predicate,
                keys=table.keys,
                lifetime=table.lifetime,
                max_size=table.max_size,
            )
            for stored in table.stored():
                new.insert(stored.values, stored.inserted_at)
                key = new.key_of(stored.values)
                new._counts[key] = table._counts.get(key, 1)
            out._tables[predicate] = new
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.fact_count()} facts in {len(self._tables)} tables)"
