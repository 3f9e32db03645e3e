"""Per-node fixpoint execution, shared by the engine and shard workers.

:class:`FixpointExecutor` is the node-local half of the distributed runtime:
given one node's queued ops (``insert`` / ``retract`` / ``delete`` /
``expire`` / ``displace``) it runs the batched retraction-aware semi-naive
rounds — the engine's one execution mode — against that node's database
and *emits* the externally visible effects:

* state changes — a tuple was inserted/replaced/deleted at the node — are
  appended to the caller's change sink as ``(now, node_id, predicate,
  values, kind)`` records, in the order they happen;
* sends — derived tuples (or retractions of them) addressed to other nodes
  — are the settle's *net* effect, returned when it ends as one ordered
  batch of ``(dst, predicate, values, kind)``: its dispatches are summed
  per ``(dst, predicate, row)``, so an assert and a retract of one row
  cancel before any channel sees them (see :meth:`FixpointExecutor.settle`).

What runs between two rule calls is planned and generated once per
program content (:func:`repro.ndlog.codegen.compile_settle`, over the
program's :func:`~repro.ndlog.plan.settle_plan`): firing a triggered rule
and routing its head rows, the groups an aggregate re-folds and the
re-fold itself, key-scoped derives, the scoped consistency check, the full
sweep and keyed refills.  The executor keeps the decisions that depend on the ops alone —
how a round is cut, what a deletion round removes, when aggregates re-fold
and the sweep is due — over a queue that holds its ops in runs (``Run``).

Everything the executor touches is local to one node (its
:class:`~repro.dn.node.Node` database, view memos, and displacement marks)
plus immutable per-program state built once at construction (the settle
plan and its compiled code); the sinks are arguments of each
:meth:`FixpointExecutor.settle` call, not executor state.  This locality is
what makes the sharded engine (:mod:`repro.dn.shard`) possible: a worker
process hosts the nodes of its shard and runs the *identical* code the
single-process engine runs, with the sinks collecting effects for the
supervisor to sequence instead of recording/sending directly.  Determinism of
the split therefore reduces to determinism of this class, which both node
hosts share.

The op-queue semantics (deletion sub-rounds before insertion sub-rounds,
FIFO prefixes cut at opposite-direction duplicates, keyed displacement
re-queues, group-scoped aggregate maintenance at quiescence) are documented on
:meth:`FixpointExecutor._settle`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional

from ..ndlog.aggregates import group_rows, order_key
from ..ndlog.ast import NDlogError, Program
from ..ndlog.codegen import compile_settle
from ..ndlog.plan import NEGATION_DELTA_SUFFIX
from ..ndlog.seminaive import DeltaIndex, RuleEngine, row_key
from ..obs import metrics as obs_metrics
from .node import Node

#: an op queued for a node: ``(kind, predicate, values)`` with kind one of
#: insert / retract (counted) / delete (forced) / expire (forced,
#: lifetime-checked) / displace (forced, key-marked) / purge (forced,
#: consistency-sweep removal of an underivable derived row)
Op = tuple[str, str, tuple]
#: a settle's queue holds its ops in runs: ``(kind, predicate, rows)``
#: stands for one op ``(kind, predicate, row)`` per row, in row order
Run = tuple[str, str, list]
#: a net send of a settle: ``(dst, predicate, values, kind)``
Send = tuple[object, str, tuple, str]

#: removals of derived rows, traced as ``retract``
_DERIVED_REMOVALS = frozenset(("displace", "purge"))


def _runs(ops: Iterable[Op]) -> list[Run]:
    """``ops`` as runs: each maximal stretch of one kind and predicate.
    (Stretches are short — a wave alternates retracts and asserts — so a
    plain loop beats ``groupby`` here.)"""

    runs: list[Run] = []
    append = runs.append
    kind = predicate = rows = None
    for op in ops:
        if op[1] != predicate or op[0] != kind:
            kind, predicate, values = op
            rows = [values]
            append((kind, predicate, rows))
        else:
            rows.append(op[2])
    return runs


def _merged(runs: list[Run]) -> list[Run]:
    """``runs`` with each stretch of one kind and predicate joined into
    one run (a round takes one direction of its queue, so runs that other
    ops separated there now follow each other)."""

    if len(runs) < 2:
        return runs
    out: list[Run] = []
    kind = predicate = None
    joined = False
    for run in runs:
        if run[1] != predicate or run[0] != kind:
            kind, predicate, _ = run
            out.append(run)
            joined = False
        elif joined:
            out[-1][2].extend(run[2])
        else:
            # the first join copies: a queued run's list is never extended
            out[-1] = (kind, predicate, out[-1][2] + run[2])
            joined = True
    return out


def _take_round(queue: deque) -> tuple[list[Run], list[Run]]:
    """Take the next round's runs off ``queue``: ``(inserts, deletions)``
    of the FIFO prefix of its ops up to the first op whose ``(predicate,
    row)`` the prefix already holds in the other direction.

    A queue none of whose rows is both inserted and removed is taken whole;
    only one that has such a row is walked op by op for the cut, which
    may split a run.  Each direction's runs come back merged
    (:func:`_merged`).  Cancellation keys hash ``(predicate, row)`` as it
    is; a row holding an unhashable value is keyed by its ``row_key``.
    """

    ins_runs: list[Run] = []
    del_runs: list[Run] = []
    for run in queue:
        (ins_runs if run[0] == "insert" else del_runs).append(run)
    if ins_runs and del_runs:
        # only a row both inserted and removed can be a cut: hash the
        # removed rows, and the inserted ones of predicates that lose rows
        removed: dict[str, set] = {}
        try:
            for _, predicate, rows in del_runs:
                held = removed.get(predicate)
                if held is None:
                    removed[predicate] = set(rows)
                else:
                    held.update(rows)
            cut = False
            get = removed.get
            for _, predicate, rows in ins_runs:
                held = get(predicate)
                if held is not None and not held.isdisjoint(rows):
                    cut = True
                    break
        except TypeError:
            cut = True
        if cut:
            # before the cut every key has one direction, so the direction
            # it was first seen in tells whether an op is the cut
            ins_runs, del_runs = [], []
            first: dict[tuple, bool] = {}
            for taken, (kind, predicate, rows) in enumerate(queue):
                inserting = kind == "insert"
                for at, row in enumerate(rows):
                    try:
                        seen = first.setdefault((predicate, row), inserting)
                    except TypeError:
                        seen = first.setdefault((predicate, row_key(tuple(row))), inserting)
                    if seen is not inserting:
                        if at:
                            (ins_runs if inserting else del_runs).append(
                                (kind, predicate, rows[:at])
                            )
                        queue[taken] = (kind, predicate, rows[at:])
                        for _ in range(taken):
                            queue.popleft()
                        return _merged(ins_runs), _merged(del_runs)
                (ins_runs if inserting else del_runs).append((kind, predicate, rows))
    queue.clear()
    return _merged(ins_runs), _merged(del_runs)


class FixpointExecutor:
    """Runs one node's delta batches to a local fixpoint.

    Holds the per-program execution state shared by every node: the settle
    plan and its compiled code (both shared by every engine over an equal
    program), bound to ``rule_engine``, and a memo of the rules each
    delta-predicate set triggers.  Stateless across calls apart from
    those, so a single executor serves all nodes of an engine or shard
    worker.  Aggregate rules are named by their position in
    ``program.rules``.
    """

    def __init__(self, program: Program, rule_engine: RuleEngine) -> None:
        self.program = program
        self.rule_engine = rule_engine
        code = compile_settle(program, rule_engine)
        plan = self.plan = code.plan
        self._code = code
        #: delta predicate (or predicate set) → (fire functions of the triggered
        #: non-aggregate rules, positions of the triggered aggregate rules),
        #: program order
        self._trigger_cache: dict[object, tuple[tuple, tuple[int, ...]]] = {}
        #: negated predicate → fire functions of its negation-delta variants
        self._negation_fires = {
            predicate: tuple(code.fire[i] for i in variants)
            for predicate, variants in plan.negation_triggers.items()
        }
        self._negated = frozenset(self._negation_fires)
        self._sweep_rules = plan.sweep_rules
        self._sweep_bodies = plan.sweep_bodies
        self._sweep_plans = plan.sweep_plans
        self._view_reads = plan.view_reads

    def _triggered(self, delta) -> tuple[tuple, tuple[int, ...]]:
        """The fire functions of the non-aggregate rules and the positions
        of the aggregate rules any delta predicate triggers, each
        deduplicated, in program order.  Memoized per delta-predicate set:
        rounds repeat the same handful of combinations."""

        # a round's delta mostly holds one predicate: keyed by it alone
        key = next(iter(delta)) if len(delta) == 1 else frozenset(delta)
        cached = self._trigger_cache.get(key)
        if cached is None:
            plan = self.plan
            fire = self._code.fire
            derived = {i for predicate in delta for i in plan.triggers.get(predicate, ())}
            views = {r for predicate in delta for r in plan.view_triggers.get(predicate, ())}
            cached = (tuple(fire[i] for i in sorted(derived)), tuple(sorted(views)))
            self._trigger_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Retraction-aware rounds
    # ------------------------------------------------------------------
    def settle(
        self, node: Node, ops, now: float, changes: list, *, max_rounds: Optional[int] = None
    ) -> list[Send]:
        """Run a node's queued ops (everything that arrived at this
        timestamp) to quiescence in retraction-aware rounds; returns the
        settle's net sends.  With ``max_rounds``, a settle that needs more
        rounds raises :class:`~repro.ndlog.ast.NDlogError` instead of
        running on (a program whose keyed tables displace each other
        forever has no quiescence).

        State changes are appended to ``changes`` as they happen.  Sends
        are the settle's *net* effect, made when it ends: each remote head
        row a round dispatches is counted, as an assert or a retract, in an
        outbox keyed by ``(dst, predicate, row)``, and the outbox then
        drains into the returned batch — every key ``|asserts − retracts|``
        times, as ``assert`` or ``retract``, in the order the keys first
        occurred; a key that nets to zero sends nothing.  An assert and a
        retract of one row in one settle (a path explored and withdrawn
        before the settle ended) would cost the receiver an insertion round
        and a deletion round that undoes it; netting means it never crosses
        the wire, is never drawn for loss, and is never traced.
        """

        outbox: dict[tuple, list] = {}
        self._settle(node, ops, now, changes, outbox, max_rounds)
        sends: list[Send] = []
        append = sends.append
        for asserts, retracts, dst, predicate, values in outbox.values():
            net = asserts - retracts
            if net == 1:
                append((dst, predicate, values, "assert"))
            elif net == -1:
                append((dst, predicate, values, "retract"))
            elif net:
                kind = "assert" if net > 0 else "retract"
                sends.extend([(dst, predicate, values, kind)] * abs(net))
        if obs_metrics.ENABLED:
            netted = sum(2 * min(entry[0], entry[1]) for entry in outbox.values())
            if netted:
                obs_metrics.inc("engine.sends_netted", netted)
        return sends

    def _settle(
        self, node: Node, ops, now: float, changes: list, outbox: dict, max_rounds: Optional[int]
    ) -> None:
        """The rounds of :meth:`settle`.

        Each round batches a FIFO prefix of the queue, split into a
        deletion sub-round (processed first, so retraction joins see the
        old database) and an insertion sub-round.  The prefix is cut at the
        first op whose tuple already appeared in the **opposite direction**
        within the round: an assertion and a later retraction of the same
        tuple (e.g. a derivation shipped and then withdrawn by a keyed
        displacement, both landing in one flush) must cancel in arrival
        order — processing the retraction first would drop it as stale and
        leave the row forever.  Cross-tuple reordering inside a round is
        count-symmetric (both directions enumerate the same bindings), so
        large same-timestamp batches keep firing as single semi-naive
        rounds.  Triggered aggregate rules are brought up to date once the
        counting ops settle, group by group where they can be
        (:meth:`_recompute_view`): the groups whose row changed are
        retracted and re-asserted, and those ops re-enter the queue.

        Once the queue and the aggregate recomputation both quiesce, any
        settle that physically removed rows ends with a **consistency
        sweep** (:meth:`_consistency_sweep`): support counts alone are not
        exact when one tuple accrues supports from several join directions
        across rounds but the complementary tuples of a direction are gone
        by the time its deletion delta fires (e.g. ``bestPath`` counting
        one support from its ``path`` delta and one from its aggregate
        ``bestPathCost`` delta — the aggregate retraction always arrives
        after the paths were removed, so one support would be stranded
        forever).  The sweep re-derives the *purely local* head predicates
        whose bodies lost rows and force-retracts stored rows that are no
        longer derivable (re-asserting derivable rows whose key went
        empty), restoring exact local consistency at every settle point.
        The same repair re-asserts over-deleted rows that are still
        derivable: DRed for node-local recursion (:meth:`_deletion_subround`).
        """

        queue: deque[Run] = deque(_runs(ops))
        changed: set[str] = set()
        deleted: set[str] = set()
        #: rows inserted or removed since the last aggregate pass, of the
        #: predicates group plans read: they name the groups to re-fold
        moved: dict[str, list[tuple]] = {}
        #: sweepable predicate → primary keys a deletion round handled
        #: since the predicate was last checked
        touched: dict[str, set[tuple]] = {}
        view_reads = self._view_reads
        rounds = 0
        while queue or changed:
            if not queue:
                _, aggregate = self._triggered(changed)
                changed = set()
                for r in aggregate:
                    self._recompute_view(node, r, moved, queue, outbox)
                moved = {}
                if not queue and deleted:
                    clean = self._sweep_is_clean(node, deleted, touched, now)
                    if obs_metrics.ENABLED:
                        obs_metrics.inc("engine.sweep_checks")
                        if not clean:
                            obs_metrics.inc("engine.sweep_repairs")
                    if not clean:
                        self._consistency_sweep(node, deleted, queue, now)
                    deleted = set()
                continue
            ins_runs, del_runs = _take_round(queue)
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                raise NDlogError(
                    f"settle did not reach a fixpoint within {max_rounds} rounds"
                )
            if del_runs:
                removed = self._deletion_subround(
                    node, del_runs, queue, now, touched, changes, outbox
                )
                changed.update(removed)
                deleted.update(removed)
                for predicate in view_reads.intersection(removed):
                    moved.setdefault(predicate, []).extend(removed[predicate])
            if ins_runs:
                inserted = self._insertion_subround(node, ins_runs, queue, now, changes, outbox)
                changed.update(inserted)
                for predicate in view_reads.intersection(inserted):
                    moved.setdefault(predicate, []).extend(inserted[predicate])
        for predicate, keys in touched.items():
            # touched, but its sweep never came due (no body predicate lost
            # a row): check the keys now; a dirty one is left as the full
            # sweep would leave it, and remembered
            if predicate not in node.unswept and not self._keys_consistent(
                node, predicate, keys
            ):
                node.unswept.add(predicate)
        if rounds and obs_metrics.ENABLED:
            obs_metrics.observe("engine.fixpoint_rounds", rounds)

    def _sweep_due(self, deleted: set[str]) -> Iterable[str]:
        """The sweepable predicates whose check is due: those reading a
        predicate that lost rows."""

        bodies = self._sweep_bodies
        for predicate in self._sweep_rules:
            if not bodies[predicate].isdisjoint(deleted):
                yield predicate

    def _sweep_is_clean(
        self, node: Node, deleted: set[str], touched: dict[str, set[tuple]], now: float
    ) -> bool:
        """Would :meth:`_consistency_sweep` find nothing to repair?

        The scoped form of the sweep: instead of re-deriving every due
        predicate over the whole node, derive only under the primary keys
        this settle's deletion rounds **touched** (every key a retract,
        delete, expiry, displacement or purge named — see
        :meth:`_deletion_subround`) and compare with the row stored under
        each (:meth:`_keys_consistent`).  That is exact because a binding
        can only break in a settle whose deletion delta enumerated it: the
        deletion join runs against the old database, so every derivation
        that loses a body row (or gains a blocking negated one) queues a
        retract for its head in this very settle, and a key only goes empty
        through a deletion round.  Keys nobody touched were consistent at
        the predicate's previous check and still are.

        ``False`` — and the full sweep runs, unchanged — on any stored but
        underivable row or derivable row under an empty key, on a predicate
        without a seed plan, and on one whose keys an earlier settle left
        dirty (``Node.unswept``).  Either way every due predicate ends up
        checked: its touched keys and mark are dropped.
        """

        clean = True
        for predicate in self._sweep_due(deleted):
            keys = touched.pop(predicate, set())
            if predicate in node.unswept:
                node.unswept.discard(predicate)
                clean = False
            elif clean:
                clean = self._keys_consistent(node, predicate, keys)
        return clean

    def _keys_consistent(self, node: Node, predicate: str, keys: set[tuple]) -> bool:
        """Is every row stored under ``keys`` derivable, and no row
        derivable under a key of ``keys`` that stores none?

        The predicate's generated check derives each deriving rule under
        ``keys`` alone.  ``False`` without looking when the predicate has
        no seed plan.
        """

        check = self._code.check.get(predicate)
        if check is None:
            return False
        if not keys:
            return True
        return check(node.db, keys, node.id, node.stats)

    def _consistency_sweep(self, node: Node, deleted: set[str], queue, now: float) -> bool:
        """Repair purely-local derived predicates after a deletion cascade.

        For every sweepable head predicate (see
        :func:`~repro.ndlog.plan.purely_local`) whose deriving rules read a
        predicate that lost rows this settle, its generated sweep
        recomputes the locally-derivable row set and diffs it against the
        stored table: stored-but-underivable rows are force-retracted
        (``purge`` ops — recorded as ``retract``), derivable rows whose
        primary key went empty are re-asserted.  Stored rows that *are*
        derivable are left alone (so equal-cost tie winners are not
        churned).  Sound at settle points because a purely-local
        predicate's entire support is in this node's tables.
        Enqueued ops run through the normal rounds, so cascades (and their
        own sweeps) follow until the node is exactly consistent.
        """

        sweep = self._code.sweep
        progressed = False
        for predicate in self._sweep_due(deleted):
            if sweep[predicate](node.db, queue, node.id, node.stats):
                progressed = True
        return progressed

    def _deletion_subround(
        self,
        node: Node,
        del_runs,
        requeue,
        now: float,
        touched: dict[str, set[tuple]],
        changes: list,
        outbox: dict,
    ) -> dict[str, list[tuple]]:
        """One deletion round: decide, fire old-database joins, remove.

        Counted retracts release one support, except that an over-deleted
        predicate (``plan.overdeleted``) loses its stored row on any;
        forced deletes/expiries match the stored row; the retraction joins
        fire while the condemned rows are still stored (the deletion delta
        joins against the *old* database) and only then are the rows
        removed.  Every op on a
        sweepable predicate records its primary key in ``touched`` — the
        keys the settle-end check (:meth:`_sweep_is_clean`) re-derives.
        Returns the removed rows by predicate.
        """

        #: the removed rows by predicate, which is also the round's view
        removed = DeltaIndex({}, distinct=True)
        #: the change record of every removal, in op order
        decided: list[tuple] = []
        displacing: set[tuple[str, tuple]] = set()
        #: predicate → the rows (by ``row_key`` when unhashable) a removal
        #: decided on
        seen: dict[str, set] = {}
        pending_inserts: Optional[set[tuple]] = None
        sweepable = self._sweep_rules
        overdeleted = self.plan.overdeleted
        db = node.db
        node_id = node.id
        for kind, predicate, rows in del_runs:
            table = db.table(predicate)
            rows = list(map(tuple, rows))
            if predicate in sweepable:
                touched.setdefault(predicate, set()).update(map(table.key_of, rows))
            if kind == "retract":
                if predicate in overdeleted:
                    # counts cannot see cyclic support: the row goes
                    # whatever its count, and the settle-end check
                    # re-asserts it while it is still derivable (DRed)
                    current = table.current
                    stale = [row for row in rows if current(row) != row]
                    if stale:
                        rows = [row for row in rows if current(row) == row]
                else:
                    rows, stale = table.release_run(rows)
                if stale:
                    if pending_inserts is None:
                        pending_inserts = {
                            (queued, row_key(tuple(values)))
                            for kind_queued, queued, rows_queued in requeue
                            if kind_queued == "insert"
                            for values in rows_queued
                        }
                    deferred = []
                    for row in stale:
                        if (predicate, row_key(row)) in pending_inserts:
                            # the retracted row is not the stored one under
                            # its key, but its insertion is still pending in
                            # this settle: a keyed displacement re-queued the
                            # insert behind us (jumping it over this
                            # retract), so the retract must defer until the
                            # insert lands or the pair cancels — dropping it
                            # as stale would let the re-insert resurrect a
                            # withdrawn derivation
                            deferred.append(row)
                        # otherwise: stale retraction of an absent/replaced
                        # row, nothing stored to release
                    if deferred:
                        requeue.append((kind, predicate, deferred))
            elif kind == "expire":
                # an expiry refreshed since the scan queued it keeps its row
                rows = [row for row in rows if table.row_expired(row, now)]
            else:
                # a forced removal of a row that is gone or replaced is void
                current = table.current
                rows = [row for row in rows if current(row) == row]
                if kind == "displace":
                    # the displacing insertion is already queued and will
                    # occupy the key: refilling would re-derive both tie
                    # candidates and livelock
                    key_of = table.key_of
                    displacing.update([(predicate, key_of(row)) for row in rows])
            if not rows:
                continue
            # displacements and sweep purges remove *derived* rows: their
            # trace kind is retract
            traced = "retract" if kind in _DERIVED_REMOVALS else kind
            seen_rows = seen.get(predicate)
            if seen_rows is None:
                # the predicate's first removals this round: taken whole
                # when no row repeats (the usual case)
                try:
                    seen_rows = set(rows)
                except TypeError:
                    seen_rows = None
                if seen_rows is not None and len(seen_rows) == len(rows):
                    seen[predicate] = seen_rows
                    removed[predicate] = rows
                    decided.extend([(now, node_id, predicate, row, traced) for row in rows])
                    continue
                seen_rows = seen[predicate] = set()
            out = removed.get(predicate)
            for row in rows:
                try:
                    if row in seen_rows:
                        continue
                    seen_rows.add(row)
                except TypeError:
                    seen_key = row_key(row)
                    if seen_key in seen_rows:
                        continue
                    seen_rows.add(seen_key)
                if out is None:
                    out = removed[predicate] = []
                out.append(row)
                decided.append((now, node_id, predicate, row, traced))
        if removed:
            fires, _ = self._triggered(removed)
            view = removed
            stats = node.stats
            stats.rule_firings += len(fires)
            # the retraction joins run against the old database; their
            # rows go to the queue and the outbox only, so they route as
            # they are derived
            for fire in fires:
                fire(db, view, requeue, outbox, node_id, "retract", 1)
            refill: dict[str, set[tuple]] = {}
            marks = node.displaced
            marked = [predicate for predicate in removed if marks.get(predicate)] if marks else ()
            if marked:
                # a removed row under a once-displaced key: the winner of an
                # earlier displacement is gone, re-derive the key (refills
                # run in the order the rows were removed)
                rows = (
                    ((predicate, row) for predicate in marked for row in removed[predicate])
                    if len(marked) == 1
                    else ((predicate, row) for _, _, predicate, row, _ in decided)
                )
                for predicate, row in rows:
                    keys = marks.get(predicate)
                    if keys:
                        key = db.table(predicate).key_of(row)
                        if key in keys and (predicate, key) not in displacing:
                            keys.discard(key)
                            refill.setdefault(predicate, set()).add(key)
            for predicate, rows in removed.items():
                stats.tuples_deleted += db.table(predicate).delete_run(rows)
            changes.extend(decided)
            if obs_metrics.ENABLED:
                obs_metrics.observe("engine.retraction_cascade", len(decided))
            if not self._negated.isdisjoint(removed):
                # rows leaving a negated predicate enable blocked bindings
                self._fire_negation_deltas(node, removed, requeue, outbox, "insert", 0)
            # once-displaced keys whose stored row is now gone (the displaced
            # alternatives' support counts were destroyed): the predicate's
            # generated refill queues every locally stored row derivable
            # under them, keys in order_key order
            refills = self._code.refill
            for predicate, keys in refill.items():
                fill = refills.get(predicate)
                if fill is not None:
                    fill(db, keys, requeue, node_id, stats)
        return removed

    def _insertion_subround(
        self, node: Node, ins_runs, requeue, now: float, changes: list, outbox: dict
    ) -> dict[str, list[tuple]]:
        """One insertion round: apply, fire insertion deltas, dispatch.

        Each same-predicate run of ops is upserted in one call
        (:meth:`~repro.ndlog.store.Table.upsert_run`).  Keyed displacements
        are rerouted through the deletion path first (``requeue``: a
        ``displace`` of the old row, then the retried insert), preserving
        FIFO order.  Returns the inserted rows by predicate.
        """

        #: the inserted rows by predicate, which is also the round's view
        delta = DeltaIndex({}, distinct=True)
        db = node.db
        stats = node.stats
        node_id = node.id
        record = changes.append
        for _, predicate, run in ins_runs:
            # one upsert call per run (a configuration burst, a message
            # wave, a rule's local head rows)
            table = db.table(predicate)
            inserted, displaced = table.upsert_run(run, now)
            if displaced:
                # keyed displacement (e.g. a link cost change): retract the
                # displaced row's consequences before re-inserting, and
                # remember the key for refills (see deletion round)
                marks = node.displaced.setdefault(predicate, set())
                key_of = table.key_of
                for row, occupant in displaced:
                    marks.add(key_of(row))
                    requeue.append(("displace", predicate, [occupant]))
                    requeue.append(("insert", predicate, [row]))
            if inserted:
                stats.tuples_inserted += len(inserted)
                kind = "replace" if table.keys else "insert"
                for row in inserted:
                    record((now, node_id, predicate, row, kind))
                rows = delta.get(predicate)
                if rows is None:
                    delta[predicate] = inserted
                else:
                    rows.extend(inserted)
        if delta:
            if obs_metrics.ENABLED:
                obs_metrics.observe(
                    "engine.delta_batch_size", sum(len(v) for v in delta.values())
                )
            fires, _ = self._triggered(delta)
            view = delta
            stats.rule_firings += len(fires)
            for fire in fires:
                fire(db, view, requeue, outbox, node_id, "insert", 0)
            if not self._negated.isdisjoint(delta):
                # rows entering a negated predicate block bindings that
                # relied on their absence
                self._fire_negation_deltas(node, delta, requeue, outbox, "retract", 1)
        return delta

    def _fire_negation_deltas(
        self,
        node: Node,
        changed: Mapping[str, list[tuple]],
        queue,
        outbox: dict,
        op: str,
        side: int,
    ) -> None:
        """Fire negation-delta variants for changed negated predicates."""

        negation_fires = self._negation_fires
        if not negation_fires:
            return
        for predicate, rows in changed.items():
            fires = negation_fires.get(predicate)
            if not fires:
                continue
            view = DeltaIndex({predicate + NEGATION_DELTA_SUFFIX: rows}, distinct=True)
            node.stats.rule_firings += len(fires)
            for fire in fires:
                fire(node.db, view, queue, outbox, node.id, op, side)

    def _recompute_view(
        self, node: Node, r: int, moved: Mapping[str, list[tuple]], queue, outbox: dict
    ) -> None:
        """Bring the output of aggregate rule ``r`` (its position in the
        program's rules) at ``node`` up to date with its body and emit the
        difference from the node's memo.

        The memo maps each group key to the group's row.  When the rule has
        a group plan and every moved body row maps to its groups, only the
        groups those rows can change (the rule's generated ``_moved``
        function; a row whose value the group's memo value outranks names
        no group) are re-folded (:meth:`_view_diff`); otherwise — and for a
        node's first recompute, which builds the memo — the rule is
        re-fired whole.  Either way the
        groups whose row changed are emitted in :func:`order_key` order of
        their keys, removals first so a keyed aggregate table retracts the
        stale group value before the replacement asserts: both paths emit
        the same ops, in an order set by the data alone.
        """

        memo = node.view_memo.get(r)
        groups_of = None if memo is None else self._code.moved.get(r)
        groups = None if groups_of is None else groups_of(moved, memo)
        removed, added, fresh = self._view_diff(node, r, memo or {}, groups)
        if groups is None:
            node.view_memo[r] = fresh
        else:
            for group in groups:
                row = fresh.get(group)
                if row is None:
                    memo.pop(group, None)
                else:
                    memo[group] = row
        if obs_metrics.ENABLED:
            if groups is None:
                obs_metrics.inc("engine.aggregate_full")
            else:
                obs_metrics.inc("engine.aggregate_groups", len(groups))
        if removed or added:
            route = self._code.route[r]
            if removed:
                route(removed, queue, outbox, node.id, "retract", 1)
            if added:
                route(added, queue, outbox, node.id, "insert", 0)

    def _view_diff(
        self,
        node: Node,
        r: int,
        memo: Mapping[tuple, tuple],
        groups: Optional[set[tuple]],
    ) -> tuple[list[tuple], list[tuple], dict[tuple, tuple]]:
        """``(removed, added, fresh)`` for aggregate rule ``r`` at ``node``:
        ``fresh`` maps each of ``groups`` that has bindings (every group,
        when ``groups`` is ``None``) to its row, and ``removed`` / ``added``
        are the memo rows and fresh rows of the groups whose row changed,
        in :func:`order_key` order of the group keys.  Reads the memo,
        changes nothing.

        A scoped re-fold is the rule's generated ``_refold``: it derives the
        rule's plain-head variant under ``groups`` and folds the bindings
        exactly as a whole firing folds all of them.
        """

        if not groups:
            if groups is not None:
                return [], [], {}
        else:
            return self._code.refold[r](node.db, memo, groups, node.stats)
        node.stats.rule_firings += 1
        rule = self.program.rules[r]
        fresh = group_rows(rule.head, self.rule_engine.fire_rule(rule, node.db))
        candidates = memo.keys() | fresh.keys()
        changed = [group for group in candidates if memo.get(group) != fresh.get(group)]
        if len(changed) > 1:
            changed.sort(key=order_key)
        removed = [memo[group] for group in changed if group in memo]
        added = [fresh[group] for group in changed if group in fresh]
        return removed, added, fresh
