"""Per-node fixpoint execution, shared by the engine and shard workers.

:class:`FixpointExecutor` is the node-local half of the distributed runtime:
given one node's queued ops (``insert`` / ``retract`` / ``delete`` /
``expire`` / ``displace``) it runs the batched retraction-aware semi-naive
rounds — the engine's one execution mode — against that node's database
and *emits* the externally visible effects through two callbacks:

* ``record_change(now, node_id, predicate, values, kind)`` — a tuple was
  inserted/replaced/deleted at the node;
* ``send(src, dst, predicate, values, kind)`` — a derived tuple (or a
  retraction of one) is addressed to another node.  A settle sends its
  *net* effect, once it ends: its dispatches are summed per ``(dst,
  predicate, row)``, so an assert and a retract of one row cancel before
  any channel sees them (see :meth:`FixpointExecutor.settle`).

Everything the executor touches is local to one node (its
:class:`~repro.dn.node.Node` database, view memos, and displacement marks)
plus immutable per-program state built once at construction (trigger maps,
compiled negation-delta variants); the callbacks are arguments of each
:meth:`FixpointExecutor.settle` call, not executor state.  This locality is
what makes the sharded engine (:mod:`repro.dn.shard`) possible: a worker
process hosts the nodes of its shard and runs the *identical* code the
single-process engine runs, with the callbacks collecting effects for the
supervisor to sequence instead of recording/sending directly.  Determinism of
the split therefore reduces to determinism of this class, which both node
hosts share.

The op-queue semantics (deletion sub-rounds before insertion sub-rounds,
FIFO prefixes cut at opposite-direction duplicates, keyed displacement
re-queues, group-scoped aggregate maintenance at quiescence) are documented on
:meth:`FixpointExecutor.settle` and were previously private methods of
:class:`~repro.dn.engine.DistributedEngine`.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from ..ndlog.aggregates import (
    aggregate_rows,
    group_key_getter,
    group_rows,
    order_key,
    tuple_getter,
)
from ..ndlog.ast import Program, Rule, Var
from ..ndlog.plan import NEGATION_DELTA_SUFFIX, binding_rule
from ..ndlog.seminaive import DeltaIndex, RuleEngine, row_key
from ..ndlog.store import Table
from ..obs import metrics as obs_metrics
from .node import Node

#: an op queued for a node: ``(kind, predicate, values)`` with kind one of
#: insert / retract (counted) / delete (forced) / expire (forced,
#: lifetime-checked) / displace (forced, key-marked) / purge (forced,
#: consistency-sweep removal of an underivable derived row)
Op = tuple[str, str, tuple]

RecordChange = Callable[[float, object, str, tuple, str], None]
Send = Callable[[object, object, str, tuple, str], None]


class KeySeed(NamedTuple):
    """How a key-scoped derive (:meth:`FixpointExecutor._derive_under`)
    enters one rule: the rows of body predicate ``predicate`` whose
    arguments at ``positions`` (ascending) equal a key's components at
    ``slots`` are the only rows that can derive a head under that key.
    ``whole``: the slots are the whole key, in order, so a key is its own
    lookup value."""

    predicate: str
    positions: tuple[int, ...]
    slots: tuple[int, ...]
    whole: bool


class ViewPlan(NamedTuple):
    """How one aggregate rule is maintained group by group.

    ``bindings`` is the rule's plain-head variant
    (:func:`~repro.ndlog.plan.binding_rule`), entered through ``seeds``
    under a set of group keys; ``group_key`` maps its rows (and the
    aggregated ones) to their group.  ``group_of`` maps each body
    predicate to one reader per literal reading it: a getter taking a
    changed row to the group key every binding through that literal has,
    and the row position holding those bindings' aggregated value (``None``
    when the literal does not bind it).  A predicate maps to ``None`` when
    some literal of it does not bind the whole group, so a change to it
    re-fires the whole rule.

    ``outranked`` is set for a single ``min`` (``>``) or ``max`` (``<``)
    at head position ``value_at``: ``outranked(value, current)`` says the
    group's current value beats a changed row's value, so the row gains or
    loses only bindings that cannot hold the group's value and cannot change
    the group.
    """

    bindings: Rule
    seeds: tuple[KeySeed, ...]
    group_key: Callable[[tuple], tuple]
    group_of: dict[str, Optional[tuple[tuple[Callable[[tuple], tuple], Optional[int]], ...]]]
    outranked: Optional[Callable[[object, object], bool]]
    value_at: int


#: aggregate functions whose fold does not depend on the order bindings
#: arrive in.  A float ``sum``/``avg`` does: a scoped re-fold and the whole
#: firing that rebuilds a restored memo could differ in the last bit, so
#: those rules are always recomputed whole.
ORDER_FREE_AGGREGATES = frozenset(("min", "max", "count"))


class FixpointExecutor:
    """Runs one node's delta batches to a local fixpoint.

    Holds the per-program execution state shared by every node (trigger
    maps, the per-delta plain/aggregate split memo, compiled negation-delta
    variants, head-rule index for keyed refills).  Stateless across calls
    apart from those caches, so a single executor serves all nodes of an
    engine or shard worker.
    """

    def __init__(self, program: Program, rule_engine: RuleEngine) -> None:
        self.program = program
        self.rule_engine = rule_engine
        # the change callback and the outbox of the settle in progress (see
        # :meth:`settle`)
        self.record_change: Optional[RecordChange] = None
        self._outbox: Optional[dict[tuple, list]] = None
        # rules indexed by the body predicates that can trigger them, plus a
        # memo of the per-delta plain/aggregate split (computed once per
        # distinct delta-predicate set instead of once per delivery round)
        self._triggers: dict[str, list[Rule]] = {}
        self._rule_order: dict[int, int] = {
            id(rule): index for index, rule in enumerate(program.rules)
        }
        for rule in program.rules:
            for predicate in set(rule.body_predicates()):
                self._triggers.setdefault(predicate, []).append(rule)
        self._trigger_cache: dict[
            frozenset[str], tuple[tuple[Rule, ...], tuple[Rule, ...]]
        ] = {}
        #: negated predicate → compiled negation-delta variant rules, and
        #: head predicate → non-aggregate rules deriving it (for keyed
        #: refills)
        self._negation_triggers: dict[str, list[Rule]] = {}
        self._head_rules: dict[str, list[Rule]] = {}
        #: head predicate → deriving rules, restricted to predicates whose
        #: every derivation is *purely local* (head stored at the deriving
        #: node) — the predicates :meth:`_consistency_sweep` may repair
        self._sweep_rules: dict[str, tuple[Rule, ...]] = {}
        #: head predicate → per deriving rule the equally selective seeds
        #: through which it is derived under a few primary keys (absent when
        #: some rule has none): keyed refills, and the scoped sweep check
        self._key_plans: dict[str, tuple[tuple[Rule, tuple[KeySeed, ...]], ...]] = {}
        #: sweepable predicate → the body predicates whose deletions trigger
        #: its check, and → its key plan, when the scoped check may use it
        #: (absent: that predicate always takes the full sweep)
        self._sweep_bodies: dict[str, frozenset[str]] = {}
        self._sweep_plans: dict[str, tuple[tuple[Rule, tuple[KeySeed, ...]], ...]] = {}
        #: aggregate rule identity → its group plan (absent: the rule is
        #: always recomputed whole), and the predicates those plans read,
        #: whose changed rows a settle collects
        self._view_plans: dict[int, ViewPlan] = {}
        self._view_reads: frozenset[str] = frozenset()
        #: predicates seeded with base facts (injected, not derived): the
        #: sweep must never judge them by rule derivability
        self.protected: set[str] = set()
        for rule in program.rules:
            for predicate, variant in rule_engine.negation_variants(rule):
                self._negation_triggers.setdefault(predicate, []).append(variant)
            if rule.head.has_aggregate:
                plan = self._view_plan(rule)
                if plan is not None:
                    rule_engine.precompile((plan.bindings,))
                    self._view_plans[id(rule)] = plan
                    self._view_reads |= plan.group_of.keys()
            else:
                self._head_rules.setdefault(rule.head.predicate, []).append(rule)
        aggregate_heads = {
            rule.head.predicate for rule in program.rules if rule.head.has_aggregate
        }
        for predicate, rules in self._head_rules.items():
            plans = tuple((rule, self._seeds(rule, self._key_positions(rule))) for rule in rules)
            if all(seeds for _, seeds in plans):
                self._key_plans[predicate] = plans
            if predicate in aggregate_heads:
                continue  # view-maintained (recompute-and-diff) predicates
            if all(self._purely_local(rule) for rule in rules):
                self._sweep_rules[predicate] = tuple(rules)
        for predicate, rules in self._sweep_rules.items():
            bodies = frozenset(
                body for rule in rules for body in rule.body_predicates()
            )
            self._sweep_bodies[predicate] = bodies
            # FIFO eviction removes rows without a deletion delta, so no
            # key is ever touched for it: size-capped tables stay on the
            # full sweep
            if predicate in self._key_plans and not self._capped(bodies | {predicate}):
                self._sweep_plans[predicate] = self._key_plans[predicate]

    def _capped(self, predicates: Iterable[str]) -> bool:
        """Is any of ``predicates`` a size-capped table?  Its FIFO eviction
        removes rows without a delta, so no scoped check or recompute
        hears of them."""

        materialized = self.program.materialized
        return any(
            decl.max_size != float("inf")
            for decl in map(materialized.get, predicates)
            if decl is not None
        )

    @staticmethod
    def _purely_local(rule: Rule) -> bool:
        """Does every firing of ``rule`` store its head at the firing node?

        True when the head has no location (never shipped) or its location
        variable is the rule's body site variable (post-localization every
        positive body literal reads at one site).  Only such predicates can
        be judged — and repaired — from one node's tables alone.
        """

        head_location = rule.head.location
        if head_location is None:
            return True
        head_term = rule.head.plain_args()[head_location]
        body_terms = [
            lit.location_term
            for lit in rule.positive_literals
            if lit.location is not None
        ]
        return bool(body_terms) and all(term == head_term for term in body_terms)

    def _key_positions(self, rule: Rule) -> tuple[int, ...]:
        """The head positions of the primary key of ``rule``'s head table."""

        decl = self.program.materialized.get(rule.head.predicate)
        if decl is not None and decl.keys:
            return tuple(k - 1 for k in decl.keys)
        return tuple(range(rule.head.arity))

    def _seeds(self, rule: Rule, key_positions: tuple[int, ...]) -> tuple[KeySeed, ...]:
        """The body literals through which ``rule`` can be derived for a
        handful of head keys — the head's values at ``key_positions`` —
        instead of for the whole node.

        A positive literal qualifies when it carries key variables (beyond
        the location variable, which every local row shares): its rows
        matching a key there are a superset of the rows any binding under
        that key can use, so feeding them as the ``delta`` of an ordinary
        ``derive`` enumerates every such binding.  Key attributes computed
        by assignments (``P=f_concatPath(S,P2)``) bind nothing and are
        filtered after the derive.  Only the seeds binding the most key
        attributes are kept, in body order; :meth:`_derive_under` picks
        among them at run time by which lookup is free.
        """

        head = rule.head
        args = head.plain_args()
        slot_of: dict[Var, int] = {}
        for slot, position in enumerate(key_positions):
            term = args[position]
            if isinstance(term, Var):
                slot_of.setdefault(term, slot)
        location = args[head.location] if head.location is not None else None
        ranked: list[tuple[int, KeySeed]] = []
        for literal in rule.positive_literals:
            bound: dict[Var, int] = {}
            for position, arg in enumerate(literal.args):
                if isinstance(arg, Var) and arg in slot_of:
                    bound.setdefault(arg, position)
            selective = sum(1 for var in bound if var != location)
            if selective:
                pairs = sorted((position, slot_of[var]) for var, position in bound.items())
                ranked.append(
                    (
                        selective,
                        KeySeed(
                            literal.predicate,
                            tuple(position for position, _ in pairs),
                            tuple(slot for _, slot in pairs),
                            [slot for _, slot in pairs] == list(range(len(key_positions))),
                        ),
                    )
                )
        best = max((selective for selective, _ in ranked), default=0)
        return tuple(seed for selective, seed in ranked if selective == best)

    def _view_plan(self, rule: Rule) -> Optional[ViewPlan]:
        """How ``rule`` (an aggregate) can be re-folded group by group, or
        ``None`` when it is always recomputed whole: a group-by argument
        that is not a variable, a fold that depends on binding order
        (:data:`ORDER_FREE_AGGREGATES`), a size-capped body table, or no
        seed binding a group variable beyond the location."""

        head = rule.head
        group_positions = tuple(head.group_by_indices)
        group_vars = [head.args[position] for position in group_positions]
        if (
            not all(isinstance(var, Var) for var in group_vars)
            or any(agg.function not in ORDER_FREE_AGGREGATES for _, agg in head.aggregates)
            or self._capped(rule.body_predicates())
        ):
            return None
        seeds = self._seeds(rule, group_positions)
        if not seeds:
            return None
        (value_at, aggregate), *more = head.aggregates
        outranked = None
        if not more and aggregate.function in ("min", "max"):
            outranked = operator.gt if aggregate.function == "min" else operator.lt
        group_of: dict[str, Optional[tuple]] = {}
        for literal in rule.body_literals:
            position_of: dict[Var, int] = {}
            for position, arg in enumerate(literal.args):
                if isinstance(arg, Var):
                    position_of.setdefault(arg, position)
            readers = group_of.get(literal.predicate, ())
            if readers is None:
                continue
            if all(var in position_of for var in group_vars):
                getter = tuple_getter([position_of[var] for var in group_vars])
                reader = (getter, position_of.get(aggregate.variable))
                group_of[literal.predicate] = readers + (reader,)
            else:
                group_of[literal.predicate] = None
        return ViewPlan(
            binding_rule(rule), seeds, group_key_getter(head), group_of, outranked, value_at
        )

    def protect(self, predicate: str) -> bool:
        """Exclude a predicate from consistency sweeps (it carries injected
        base facts, which no rule needs to re-derive).  Returns ``True``
        when the predicate was not protected before."""

        if predicate in self.protected:
            return False
        self.protected.add(predicate)
        return True

    # ------------------------------------------------------------------
    # Retraction-aware rounds
    # ------------------------------------------------------------------
    def settle(
        self,
        node: Node,
        ops,
        now: float,
        record_change: RecordChange,
        send: Send,
    ) -> None:
        """Run a node's queued ops (everything that arrived at this
        timestamp) to quiescence in retraction-aware rounds, emitting their
        effects through ``record_change`` and ``send``.

        State changes are recorded as they happen.  Sends are the settle's
        *net* effect, made when it ends: each remote head row a round
        dispatches is counted, as an assert or a retract, in an outbox
        keyed by ``(dst, predicate, row)``, and the outbox then drains
        through ``send`` — every key ``|asserts − retracts|`` times, as
        ``assert`` or ``retract``, in the order the keys first occurred; a
        key that nets to zero sends nothing.  An assert and a retract of one
        row in one settle (a path explored and withdrawn before the settle
        ended) would cost the receiver an insertion round and a deletion
        round that undoes it; netting means it never crosses the wire, is
        never drawn for loss, and is never traced.

        ``record_change`` is held only while the settle runs.  It is a bound
        method of the owner's trace (or of the shard worker that owns this
        executor), so keeping it could make the owner a reference cycle,
        left for the cyclic garbage collector to find long after the engine
        was dropped — holding a cold convergence's tables, megabytes of
        them, until it does.  See :meth:`_settle` for the rounds.
        """

        outbox: dict[tuple, list] = {}
        self.record_change, self._outbox = record_change, outbox
        try:
            self._settle(node, ops, now)
        finally:
            self.record_change = self._outbox = None
        src = node.id
        for (dst, predicate, _), (asserts, retracts, values) in outbox.items():
            net = asserts - retracts
            kind = "assert" if net > 0 else "retract"
            for _ in range(abs(net)):
                send(src, dst, predicate, values, kind)
        if obs_metrics.ENABLED:
            netted = sum(2 * min(a, r) for a, r, _ in outbox.values())
            if netted:
                obs_metrics.inc("engine.sends_netted", netted)

    def _settle(self, node: Node, ops, now: float) -> None:
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
        """

        queue: deque[Op] = deque(ops)
        changed: set[str] = set()
        deleted: set[str] = set()
        #: rows inserted or removed since the last aggregate pass, of the
        #: predicates group plans read: they name the groups to re-fold
        moved: dict[str, list[tuple]] = {}
        #: sweepable predicate → primary keys a deletion round handled
        #: since the predicate was last checked
        touched: dict[str, set[tuple]] = {}
        rounds = 0
        while queue or changed:
            if not queue:
                _, aggregate = self.triggered_rules(changed)
                changed = set()
                for rule in aggregate:
                    self._recompute_view(node, rule, moved, queue)
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
            # the leading run of inserts cannot follow a retraction of the
            # same tuple, so it is taken without cancellation keys — the
            # whole round, for a seeding flush or an assert-only message wave
            ins_ops: list[Op] = []
            take, popleft = ins_ops.append, queue.popleft
            while queue and queue[0][0] == "insert":
                take(popleft())
            del_ops: list[Op] = []
            if queue:
                # cancellation keys hash ``(predicate, row)`` as it is; a row
                # holding an unhashable value falls back to its row_key
                seen_del: set[tuple[str, tuple]] = set()
                seen_ins: set[tuple[str, tuple]] = set()
                for _, predicate, values in ins_ops:
                    try:
                        seen_ins.add((predicate, values))
                    except TypeError:
                        seen_ins.add((predicate, row_key(tuple(values))))
                while queue:
                    kind, predicate, values = queue[0]
                    key = (predicate, values)
                    opposite = seen_del if kind == "insert" else seen_ins
                    try:
                        cut = key in opposite
                    except TypeError:
                        key = (predicate, row_key(tuple(values)))
                        cut = key in opposite
                    if cut:
                        break
                    if kind == "insert":
                        seen_ins.add(key)
                        ins_ops.append(queue.popleft())
                    else:
                        seen_del.add(key)
                        del_ops.append(queue.popleft())
            if del_ops or ins_ops:
                rounds += 1
            if del_ops:
                removed = self._deletion_subround(node, del_ops, queue, now, touched)
                changed.update(removed)
                deleted.update(removed)
                for predicate in self._view_reads.intersection(removed):
                    moved.setdefault(predicate, []).extend(removed[predicate])
            if ins_ops:
                inserted = self._insertion_subround(node, ins_ops, queue, now)
                changed.update(inserted)
                for predicate in self._view_reads.intersection(inserted):
                    moved.setdefault(predicate, []).extend(inserted[predicate])
        for predicate, keys in touched.items():
            # touched, but its sweep never came due (no body predicate lost
            # a row): check the keys now; a dirty one is left as the full
            # sweep would leave it, and remembered
            if (
                predicate not in self.protected
                and predicate not in node.unswept
                and not self._keys_consistent(node, predicate, keys)
            ):
                node.unswept.add(predicate)
        if rounds and obs_metrics.ENABLED:
            obs_metrics.observe("engine.fixpoint_rounds", rounds)

    def _sweep_due(self, deleted: set[str]):
        """The sweepable predicates whose check is due: unprotected, and
        reading a predicate that lost rows."""

        for predicate, rules in self._sweep_rules.items():
            if predicate not in self.protected and not self._sweep_bodies[
                predicate
            ].isdisjoint(deleted):
                yield predicate, rules

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
        for predicate, _ in self._sweep_due(deleted):
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

        Each deriving rule is derived under ``keys`` alone
        (:meth:`_derive_under`).  ``False`` without looking when the
        predicate has no seed plan.
        """

        plans = self._sweep_plans.get(predicate)
        if plans is None:
            return False
        if not keys:
            return True
        table = node.db.table(predicate)
        key_of = table.key_of
        node_id = node.id
        #: touched primary key → the rows derivable under it
        derivable: dict[tuple, set[tuple]] = {}
        for rule, seeds in plans:
            location = rule.head.location
            for values in self._derive_under(node, rule, seeds, keys, key_of):
                if location is None or values[location] == node_id:
                    derivable.setdefault(key_of(values), set()).add(row_key(values))
        for key in keys:
            stored = table.lookup(table.keys, key)
            if stored:
                if row_key(stored[0]) not in derivable.get(key, ()):
                    return False
            elif key in derivable:
                return False
        return True

    @staticmethod
    def _derive_under(
        node: Node,
        rule: Rule,
        seeds: tuple[KeySeed, ...],
        keys,
        key_of: Callable[[tuple], tuple],
    ) -> list[tuple]:
        """The rows ``rule`` derives at ``node`` whose ``key_of`` is one of
        ``keys``, at binding multiplicity, without deriving the rest.

        The one key-scoped derive, behind the scoped sweep check, group
        re-folds of aggregates and keyed refills.  It enters the rule
        through one of its seeds (:meth:`_seeds`), preferring one whose
        lookup is free: the seed predicate's rows that agree with a key go
        in as the ``delta`` of an ordinary ``derive``, whose rows are then
        filtered to ``keys``.  Rows come in the order ``keys`` iterates,
        then lookup order.  Nothing fires when no seed row agrees.
        """

        table = node.db.table
        for seed in seeds:
            source = table(seed.predicate)
            if source.has_lookup(seed.positions):
                break
        else:
            seed = seeds[0]
            source = table(seed.predicate)
        positions, slots = seed.positions, seed.slots
        if seed.whole:
            probes = keys
        else:
            probes = dict.fromkeys(tuple([key[slot] for slot in slots]) for key in keys)
        lookup = source.lookup
        rows = [row for values in probes for row in lookup(positions, values)]
        if not rows:
            return []
        view = DeltaIndex({seed.predicate: rows}, distinct=True)
        return [values for values in node.derive(rule, delta=view) if key_of(values) in keys]

    def _consistency_sweep(
        self, node: Node, deleted: set[str], queue, now: float
    ) -> bool:
        """Repair purely-local derived predicates after a deletion cascade.

        For every sweepable head predicate (see :meth:`_purely_local`)
        whose deriving rules read a predicate that lost rows this settle,
        recompute the locally-derivable row set and diff it against the
        stored table: stored-but-underivable rows are force-retracted
        (``purge`` ops — recorded as ``retract``), derivable rows whose
        primary key went empty are re-asserted.  Stored rows that *are*
        derivable are left alone (so equal-cost tie winners are not
        churned), and predicates carrying injected base facts
        (:meth:`protect`) are skipped.  Sound at settle points because a
        purely-local predicate's entire support is in this node's tables.
        Enqueued ops run through the normal rounds, so cascades (and their
        own sweeps) follow until the node is exactly consistent.
        """

        progressed = False
        for predicate, rules in self._sweep_due(deleted):
            table = node.db.table(predicate)
            derivable: dict[tuple, tuple] = {}
            for rule in rules:
                location = rule.head.location
                for values in node.derive(rule):
                    destination = values[location] if location is not None else None
                    if destination is None or destination == node.id:
                        derivable[row_key(values)] = values
            stored = {row_key(row): row for row in table.rows()}
            for key, row in stored.items():
                if key not in derivable:
                    queue.append(("purge", predicate, row))
                    progressed = True
            for key, row in derivable.items():
                if key not in stored and table.current(row) is None:
                    queue.append(("insert", predicate, row))
                    progressed = True
        return progressed

    def _deletion_subround(
        self, node: Node, del_ops, requeue, now: float, touched: dict[str, set[tuple]]
    ) -> dict[str, list[tuple]]:
        """One deletion round: decide, fire old-database joins, remove.

        Counted retracts release one support, forced deletes/expiries match
        the stored row; the retraction joins fire while the condemned rows
        are still stored (the deletion delta joins against the *old*
        database) and only then are the rows removed.  Every op on a
        sweepable predicate records its primary key in ``touched`` — the
        keys the settle-end check (:meth:`_sweep_is_clean`) re-derives.
        Returns the removed rows by predicate.
        """

        removed: dict[str, list[tuple]] = {}
        if del_ops:
            decided: list[tuple[str, Table, tuple, str]] = []
            displacing: set[tuple[str, tuple]] = set()
            seen: set[tuple[str, tuple]] = set()
            pending_inserts: Optional[set[tuple]] = None
            sweepable = self._sweep_rules
            run_predicate = None
            for kind, predicate, values in del_ops:
                if predicate != run_predicate:
                    # resolve the table once per same-predicate run of ops
                    run_predicate = predicate
                    table = node.db.table(predicate)
                    keys_touched = (
                        touched.setdefault(predicate, set())
                        if predicate in sweepable
                        else None
                    )
                row = tuple(values)
                if keys_touched is not None:
                    keys_touched.add(table.key_of(row))
                if kind == "retract":
                    released = table.release(row)
                    if released is None:
                        if pending_inserts is None:
                            pending_inserts = {
                                (op[1], row_key(tuple(op[2])))
                                for op in requeue
                                if op[0] == "insert"
                            }
                        if (predicate, row_key(row)) in pending_inserts:
                            # the retracted row is not the stored one under
                            # its key, but its insertion is still pending in
                            # this settle: a keyed displacement re-queued the
                            # insert behind us (jumping it over this
                            # retract), so the retract must defer until the
                            # insert lands or the pair cancels — dropping it
                            # as stale would let the re-insert resurrect a
                            # withdrawn derivation
                            requeue.append((kind, predicate, values))
                        # otherwise: stale retraction of an absent/replaced
                        # row, nothing stored to release
                        continue
                    if not released:
                        continue
                elif kind == "expire":
                    if not table.row_expired(row, now):
                        continue  # refreshed since the expiry scan queued it
                elif table.current(row) != row:
                    continue  # forced delete of a row that is gone/replaced
                if kind == "displace":
                    # the displacing insertion is already queued and will
                    # occupy the key: refilling would re-derive both tie
                    # candidates and livelock
                    displacing.add((predicate, table.key_of(row)))
                key = (predicate, row)
                try:
                    repeated = key in seen
                except TypeError:
                    key = (predicate, row_key(row))
                    repeated = key in seen
                if repeated:
                    continue
                seen.add(key)
                removed.setdefault(predicate, []).append(row)
                decided.append(
                    (
                        predicate,
                        table,
                        row,
                        # displacements and sweep purges remove *derived*
                        # rows: their trace kind is retract
                        "retract" if kind in ("displace", "purge") else kind,
                    )
                )
            if removed:
                plain, _ = self.triggered_rules(removed)
                view = DeltaIndex(removed, distinct=True)
                retractions = [(rule, node.derive(rule, delta=view)) for rule in plain]
                refill: dict[str, set[tuple]] = {}
                stats = node.stats
                for predicate, table, row, kind in decided:
                    marked = node.displaced.get(predicate)
                    if marked:
                        key = table.key_of(row)
                        if key in marked and (predicate, key) not in displacing:
                            marked.discard(key)
                            refill.setdefault(predicate, set()).add(key)
                    if table.delete(row):
                        stats.tuples_deleted += 1
                    self.record_change(now, node.id, predicate, row, kind)
                if obs_metrics.ENABLED:
                    obs_metrics.observe("engine.retraction_cascade", len(decided))
                for rule, rows in retractions:
                    self._dispatch(node, rule, rows, requeue, retract=True)
                # rows leaving a negated predicate enable blocked bindings
                self._fire_negation_deltas(node, removed, requeue, retracting=False)
                for predicate, keys in refill.items():
                    self._refill(node, predicate, keys, requeue)
        return removed

    def _refill(self, node: Node, predicate: str, keys: set[tuple], requeue) -> None:
        """Re-derive once-displaced keys whose stored row is now gone (the
        displaced alternatives' support counts were destroyed): queue every
        locally stored row derivable under them.

        Each deriving rule is derived under ``keys`` alone
        (:meth:`_derive_under`), keys in :func:`order_key` order; a
        predicate without a key plan derives its rules over the node.
        """

        table = node.db.table(predicate)
        key_of = table.key_of
        plans = self._key_plans.get(predicate) or [
            (rule, None) for rule in self._head_rules.get(predicate, ())
        ]
        ordered = dict.fromkeys(sorted(keys, key=order_key))
        for rule, seeds in plans:
            location = rule.head.location
            if seeds is None:
                rows = node.derive(rule)
            else:
                rows = self._derive_under(node, rule, seeds, ordered, key_of)
            for values in rows:
                destination = values[location] if location is not None else None
                if destination is not None and destination != node.id:
                    continue  # only locally stored rows refill
                if key_of(values) in keys and table.current(values) is None:
                    requeue.append(("insert", predicate, values))

    def _insertion_subround(
        self, node: Node, ins_ops, requeue, now: float
    ) -> dict[str, list[tuple]]:
        """One insertion round: apply, fire insertion deltas, dispatch.

        Keyed displacements are rerouted through the deletion path first
        (``requeue``: a ``displace`` of the old row, then the retried
        insert), preserving FIFO order.  Returns the inserted rows by
        predicate.
        """

        delta: dict[str, list[tuple]] = {}
        if ins_ops:
            db = node.db
            stats = node.stats
            node_id = node.id
            record_change = self.record_change
            run_predicate = None
            for _, predicate, values in ins_ops:
                if predicate != run_predicate:
                    # ops come in same-predicate runs (a configuration
                    # burst, a message wave): resolve the table per run
                    run_predicate = predicate
                    table = db.table(predicate)
                    upsert = table.upsert_unless_displacing
                    kind = "replace" if table.keys else "insert"
                row = tuple(values)
                inserted, occupant = upsert(row, now)
                if occupant is not None:
                    # keyed displacement (e.g. a link cost change): retract
                    # the displaced row's consequences before re-inserting,
                    # and remember the key for refills (see deletion round)
                    node.displaced.setdefault(predicate, set()).add(
                        table.key_of(row)
                    )
                    requeue.append(("displace", predicate, occupant))
                    requeue.append(("insert", predicate, row))
                elif inserted:
                    stats.tuples_inserted += 1
                    record_change(now, node_id, predicate, row, kind)
                    delta.setdefault(predicate, []).append(row)
            if delta:
                if obs_metrics.ENABLED:
                    obs_metrics.observe(
                        "engine.delta_batch_size", sum(len(v) for v in delta.values())
                    )
                plain, _ = self.triggered_rules(delta)
                view = DeltaIndex(delta, distinct=True)
                for rule in plain:
                    self._dispatch(node, rule, node.derive(rule, delta=view), requeue)
                # rows entering a negated predicate block bindings that
                # relied on their absence
                self._fire_negation_deltas(node, delta, requeue, retracting=True)
        return delta

    def _fire_negation_deltas(
        self,
        node: Node,
        changed: Mapping[str, list[tuple]],
        queue,
        *,
        retracting: bool,
    ) -> None:
        """Fire negation-delta variants for changed negated predicates."""

        for predicate, rows in changed.items():
            variants = self._negation_triggers.get(predicate)
            if not variants:
                continue
            view = DeltaIndex({predicate + NEGATION_DELTA_SUFFIX: rows}, distinct=True)
            for variant in variants:
                self._dispatch(
                    node, variant, node.derive(variant, delta=view), queue,
                    retract=retracting,
                )

    def _recompute_view(
        self, node: Node, rule: Rule, moved: Mapping[str, list[tuple]], queue
    ) -> None:
        """Bring aggregate ``rule``'s output at ``node`` up to date with its
        body and emit the difference from the node's memo.

        The memo maps each group key to the group's row.  When the rule has
        a group plan and every moved body row maps to its groups, only the
        groups those rows can change (:meth:`_moved_groups`) are re-folded
        (:meth:`_view_diff`); otherwise — and for a node's first recompute,
        which builds the memo — the rule is re-fired whole.  Either way the
        groups whose row changed are emitted in :func:`order_key` order of
        their keys, removals first so a keyed aggregate table retracts the
        stale group value before the replacement asserts: both paths emit
        the same ops, in an order set by the data alone.
        """

        memo = node.view_memo.get(id(rule))
        groups = None if memo is None else self._moved_groups(rule, moved, memo)
        removed, added, fresh = self._view_diff(node, rule, memo or {}, groups)
        if groups is None:
            node.view_memo[id(rule)] = fresh
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
        if removed:
            self._dispatch(node, rule, removed, queue, retract=True)
        if added:
            self._dispatch(node, rule, added, queue)

    def _moved_groups(
        self, rule: Rule, moved: Mapping[str, list[tuple]], memo: Mapping[tuple, tuple]
    ) -> Optional[set[tuple]]:
        """The group keys of aggregate ``rule`` that ``moved`` rows can
        change, or ``None`` when the whole rule must be re-fired (no group
        plan, or a moved predicate read by a literal that does not bind the
        group).  A row whose value the group's ``memo`` value outranks
        (:class:`ViewPlan`) names no group."""

        plan = self._view_plans.get(id(rule))
        if plan is None:
            return None
        outranked, held_at = plan.outranked, plan.value_at
        groups: set[tuple] = set()
        for predicate, readers in plan.group_of.items():
            rows = moved.get(predicate)
            if not rows:
                continue
            if readers is None:
                return None
            for getter, value_at in readers:
                if outranked is None or value_at is None:
                    groups.update(map(getter, rows))
                    continue
                for row in rows:
                    group = getter(row)
                    held = memo.get(group)
                    if held is None or not outranked(row[value_at], held[held_at]):
                        groups.add(group)
        return groups

    def _view_diff(
        self,
        node: Node,
        rule: Rule,
        memo: Mapping[tuple, tuple],
        groups: Optional[set[tuple]],
    ) -> tuple[list[tuple], list[tuple], dict[tuple, tuple]]:
        """``(removed, added, fresh)`` for aggregate ``rule`` at ``node``:
        ``fresh`` maps each of ``groups`` that has bindings (every group,
        when ``groups`` is ``None``) to its row, and ``removed`` / ``added``
        are the memo rows and fresh rows of the groups whose row changed,
        in :func:`order_key` order of the group keys.  Reads the memo,
        changes nothing.

        A scoped re-fold derives the rule's plain-head variant under
        ``groups`` (:meth:`_derive_under`) and folds the bindings with
        ``aggregate_rows``, exactly as a whole firing folds all of them.
        """

        head = rule.head
        if groups is None:
            fresh = group_rows(head, node.fire(rule))
            candidates: Iterable[tuple] = memo.keys() | fresh.keys()
        elif not groups:
            return [], [], {}
        else:
            plan = self._view_plans[id(rule)]
            group_key = plan.group_key
            bindings = self._derive_under(node, plan.bindings, plan.seeds, groups, group_key)
            fresh = {group_key(row): row for row in aggregate_rows(head, bindings)}
            candidates = groups
        changed = [group for group in candidates if memo.get(group) != fresh.get(group)]
        if len(changed) > 1:
            changed.sort(key=order_key)
        removed = [memo[group] for group in changed if group in memo]
        added = [fresh[group] for group in changed if group in fresh]
        return removed, added, fresh

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _dispatch(
        self, node: Node, rule: Rule, rows: list[tuple], queue, *, retract: bool = False
    ) -> None:
        """Route a rule's derived head rows: local heads re-enter the node's
        delta queue as inserts, remote heads count as asserts in the
        settle's outbox — or, with ``retract``, lost derivations become
        counted retract ops and count as retractions.

        Outbox entries are ``[asserts, retracts, row]`` keyed by ``(dst,
        predicate, row)``; like the cancellation keys in :meth:`_settle`, a
        row holding an unhashable value is keyed by its ``row_key`` and
        keeps its original values for the send."""

        op_kind, side = ("retract", 1) if retract else ("insert", 0)
        predicate = rule.head.predicate
        location = rule.head.location
        if location is None:
            queue.extend([(op_kind, predicate, values) for values in rows])
            return
        node_id = node.id
        outbox = self._outbox
        for values in rows:
            destination = values[location]
            if destination is None or destination == node_id:
                queue.append((op_kind, predicate, values))
                continue
            key = (destination, predicate, values)
            try:
                entry = outbox.get(key)
            except TypeError:
                key = (destination, predicate, row_key(tuple(values)))
                entry = outbox.get(key)
            if entry is None:
                outbox[key] = entry = [0, 0, values]
            entry[side] += 1

    def triggered_rules(
        self, delta
    ) -> tuple[tuple[Rule, ...], tuple[Rule, ...]]:
        """Rules triggered by any delta predicate, deduplicated and split
        into (non-aggregate, aggregate) in program order.

        Memoized per delta-predicate set: delivery rounds repeat the same
        handful of predicate combinations, so the dedup/sort happens once
        per combination for the whole run instead of once per round.
        """

        key = frozenset(delta)
        cached = self._trigger_cache.get(key)
        if cached is None:
            seen: dict[int, Rule] = {}
            for predicate in key:
                for rule in self._triggers.get(predicate, ()):
                    seen.setdefault(id(rule), rule)
            ordered = sorted(seen.values(), key=lambda r: self._rule_order[id(r)])
            cached = (
                tuple(r for r in ordered if not r.head.has_aggregate),
                tuple(r for r in ordered if r.head.has_aggregate),
            )
            self._trigger_cache[key] = cached
        return cached
