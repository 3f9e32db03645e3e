"""In-process coverage of :class:`repro.serving.service.RouteService`:
update application, query answers, what-if isolation, and validation."""

import json
from dataclasses import replace

import pytest

from repro.jsonl import read_jsonl
from repro.obs import metrics as obs_metrics
from repro.scenarios import generate_scenario
from repro.serving import ProtocolError, RouteService, ServerConfig
from repro.serving.service import build_serving_program


@pytest.fixture()
def service():
    svc = RouteService(ServerConfig(family="tree", size=12, snapshot_every=0))
    yield svc
    svc.close()


class TestBoot:
    def test_boots_settled_with_routes(self, service):
        assert service.settled
        assert service.recovered_from == "boot"
        routes = service.query("routes", {})
        assert routes["count"] > 0
        assert routes["seq"] == 0

    def test_soft_state_override_unknown_predicate(self):
        config = ServerConfig(soft_state={"nope": 5.0})
        with pytest.raises(Exception, match="nope"):
            build_serving_program(config)

    def test_monitors_attached(self, service):
        status = service.query("status", {})
        kinds = {m["monitor"] for m in status["monitors"]}
        assert kinds == set(ServerConfig().monitors)
        assert status["monitors_ok"]


class TestUpdates:
    def test_link_fail_withdraws_and_restore_recovers(self, service):
        before = service.query("best_path", {"src": 0, "dst": 1})
        assert before["found"]
        ack = service.apply_update("link_fail", {"src": 0, "dst": 1})
        assert ack["seq"] == 1 and ack["settled"]
        assert not service.query("best_path", {"src": 0, "dst": 1})["found"]
        service.apply_update("link_restore", {"src": 0, "dst": 1})
        after = service.query("best_path", {"src": 0, "dst": 1})
        assert after["found"] and after["path"] == before["path"]

    def test_cost_change_shifts_best_metric(self, service):
        before = service.query("best_path", {"src": 0, "dst": 1})
        service.apply_update(
            "cost_change", {"src": 0, "dst": 1, "cost": before["metric"] + 5}
        )
        after = service.query("best_path", {"src": 0, "dst": 1})
        assert after["metric"] != before["metric"]

    def test_set_then_del_fact_round_trips_fingerprint_forward(self, service):
        fp0 = service.query("fingerprint", {})["fingerprint"]
        service.apply_update(
            "set_fact", {"predicate": "link", "values": [0, 5, 1.5]}
        )
        assert service.query("table", {"predicate": "link", "node": 0})["count"] > 0
        service.apply_update(
            "del_fact", {"predicate": "link", "values": [0, 5, 1.5]}
        )
        # state changed (the fingerprint covers the whole change stream)
        assert service.query("fingerprint", {})["fingerprint"] != fp0
        assert service.seq == 2

    def test_sim_time_advances_deterministically(self, service):
        t0 = service.query("status", {})["sim_time"]
        service.apply_update("link_fail", {"src": 0, "dst": 1})
        t1 = service.query("status", {})["sim_time"]
        assert t1 > t0

    def test_refresh_verb_applies_on_soft_state_program(self):
        svc = RouteService(
            ServerConfig(family="tree", size=8, soft_state={"link": 30.0})
        )
        try:
            ack = svc.apply_update("refresh", {})
            assert ack["settled"]
        finally:
            svc.close()


class TestShardedCounters:
    """A sharded daemon's settles end their segment as ``run()`` does: the
    worker-kept node counters come home and reach the metrics."""

    @staticmethod
    def counters(monkeypatch, shards: int) -> tuple:
        engine_config = RouteService._engine_config
        monkeypatch.setattr(
            RouteService,
            "_engine_config",
            lambda self: replace(engine_config(self), shard_transport="inline"),
        )
        obs_metrics.registry().drain()
        svc = RouteService(
            ServerConfig(
                family="tree", size=8, policy="shortest_path", shards=shards, snapshot_every=0
            )
        )
        try:
            svc.apply_update("link_fail", {"src": 0, "dst": 1})
            svc.apply_update("link_restore", {"src": 0, "dst": 1})
            stats = {node: svc.engine.node(node).stats.as_dict() for node in svc.engine.nodes}
            metrics = svc.query("metrics", {})["metrics"]["counters"]
            return stats, metrics.get("engine.rule_firings"), metrics["engine.events"]
        finally:
            svc.close()

    def test_two_shards_count_what_one_counts(self, monkeypatch):
        stats, firings, events = self.counters(monkeypatch, 1)
        assert firings == sum(node["rule_firings"] for node in stats.values()) > 0
        assert self.counters(monkeypatch, 2) == (stats, firings, events)


class TestQueries:
    def test_best_path_missing_route(self, service):
        service.apply_update("link_fail", {"src": 0, "dst": 1})
        answer = service.query("best_path", {"src": 0, "dst": 1})
        assert answer == {"found": False, "src": 0, "dst": 1, "seq": 1}

    def test_routes_node_filter(self, service):
        all_routes = service.query("routes", {})
        node_routes = service.query("routes", {"node": 0})
        assert 0 < node_routes["count"] < all_routes["count"]
        assert all(r["src"] == 0 for r in node_routes["routes"])

    def test_table_rows_sorted_json_shaped(self, service):
        table = service.query("table", {"predicate": "link"})
        assert table["count"] == len(table["rows"])
        assert all(isinstance(row, list) for row in table["rows"])

    def test_ping(self, service):
        assert service.query("ping", {})["pong"] is True

    def test_status_counts(self, service):
        status = service.query("status", {})
        assert status["nodes"] == 12
        assert status["links_up"] > 0
        assert status["shards"] == 1
        assert status["settled"]

    def test_pending_events_report_the_backlog(self):
        """Acks and ``status`` count the queued non-maintenance events in
        settle-budget units: a backlog exactly when a settle ran out of
        budget, none once settled — the soft-state expiry timer a settled
        daemon keeps queued is not counted."""

        budgeted = RouteService(
            ServerConfig(family="tree", size=12, snapshot_every=0, settle_max_events=40)
        )
        try:
            acks = [
                budgeted.apply_update("link_fail", {"src": 0, "dst": 1}),
                budgeted.apply_update("cost_change", {"src": 1, "dst": 3, "cost": 4}),
            ]
            assert not acks[-1]["settled"]
            for ack in acks:
                assert (ack["pending_events"] > 0) == (not ack["settled"])
            status = budgeted.query("status", {})
            assert status["pending_events"] == acks[-1]["pending_events"]
        finally:
            budgeted.close()
        soft = RouteService(ServerConfig(family="tree", size=8, soft_state={"link": 30.0}))
        try:
            ack = soft.apply_update("link_fail", {"src": 0, "dst": 1})
            assert ack["settled"] and ack["pending_events"] == 0
            assert "expiry" in soft.engine.scheduler.pending_kinds()
            assert soft.query("status", {})["pending_events"] == 0
        finally:
            soft.close()


class TestWhatIf:
    def test_fork_answers_without_touching_live_state(self, service):
        fp = service.query("fingerprint", {})["fingerprint"]
        result = service.query(
            "what_if",
            {
                "updates": [{"verb": "link_fail", "args": {"src": 0, "dst": 1}}],
                "query": {"verb": "best_path", "args": {"src": 0, "dst": 1}},
            },
        )
        assert result["answer"]["found"] is False
        assert result["hypothetical"] == 1
        # live engine untouched
        assert service.query("best_path", {"src": 0, "dst": 1})["found"]
        assert service.query("fingerprint", {})["fingerprint"] == fp

    def test_fork_sees_accepted_history(self, service):
        service.apply_update("link_fail", {"src": 0, "dst": 1})
        result = service.query(
            "what_if",
            {
                "updates": [{"verb": "link_restore", "args": {"src": 0, "dst": 1}}],
                "query": {"verb": "best_path", "args": {"src": 0, "dst": 1}},
            },
        )
        assert result["base_seq"] == 1
        assert result["answer"]["found"] is True

    def test_fork_applies_only_the_hypothetical_updates(self, service, monkeypatch):
        """The fork starts at the live state: the accepted updates are not
        applied again, only the hypothetical ones."""

        for verb in ("link_fail", "link_restore", "link_fail"):
            service.apply_update(verb, {"src": 0, "dst": 1})
        applied = []
        apply = RouteService._apply

        def spy(self, verb, args):
            applied.append(verb)
            return apply(self, verb, args)

        monkeypatch.setattr(RouteService, "_apply", spy)
        result = service.query(
            "what_if",
            {
                "updates": [{"verb": "link_restore", "args": {"src": 0, "dst": 1}}],
                "query": {"verb": "best_path", "args": {"src": 0, "dst": 1}},
            },
        )
        assert applied == ["link_restore"]
        assert result["base_seq"] == 3 and result["answer"]["seq"] == 4
        assert result["answer"]["found"] is True
        assert not hasattr(service, "history")

    def test_unsettled_daemon_answers_like_a_replay(self, tmp_path):
        """A daemon whose settles run out of budget forks with its pending
        events: ``what_if`` answers as a fresh daemon that replays the ledger
        and then the hypothetical updates."""

        base = dict(family="tree", size=12, snapshot_every=0, settle_max_events=40)
        hypothetical = [{"verb": "link_restore", "args": {"src": 0, "dst": 1}}]
        questions = [
            {"verb": "routes", "args": {}},
            {"verb": "best_path", "args": {"src": 0, "dst": 1}},
            {"verb": "fingerprint", "args": {}},
        ]
        live = RouteService(ServerConfig(**base, state_dir=str(tmp_path / "state")))
        try:
            live.apply_update("link_fail", {"src": 0, "dst": 1})
            live.apply_update("cost_change", {"src": 1, "dst": 3, "cost": 4})
            assert not live.settled
            before = live.query("fingerprint", {})
            answers = [
                live.query("what_if", {"updates": hypothetical, "query": question})
                for question in questions
            ]
            assert live.query("fingerprint", {}) == before
            ledger = [(r["verb"], r["args"]) for r in read_jsonl(live.ledger_path)]
        finally:
            live.close()
        control = RouteService(ServerConfig(**base))
        try:
            for verb, args in ledger:
                control.apply_update(verb, args)
            for update in hypothetical:
                control.apply_update(update["verb"], update["args"])
            for question, answer in zip(questions, answers):
                assert answer["answer"] == control.query(question["verb"], question["args"])
        finally:
            control.close()

    def test_nested_what_if_rejected(self, service):
        with pytest.raises(ProtocolError):
            service.query(
                "what_if", {"updates": [], "query": {"verb": "what_if", "args": {}}}
            )

    def test_fork_work_is_not_counted_as_live(self):
        """The daemon's ``metrics`` count what the live engine did: a
        ``what_if`` is one live query, and its fork's updates, settles and
        query leave no trace there, also when the fork raises."""

        def counters():
            # a collector pass may land anywhere, the fork included
            return {
                name: value
                for name, value in obs_metrics.registry().snapshot()["counters"].items()
                if not name.startswith("engine.gc_")
            }

        svc = RouteService(ServerConfig(family="tree", size=8, snapshot_every=0))
        try:
            before = counters()
            result = svc.query(
                "what_if",
                {
                    "updates": [{"verb": "link_fail", "args": {"src": 0, "dst": 1}}],
                    "query": {"verb": "fingerprint", "args": {}},
                },
            )
            after = counters()
            with pytest.raises(ProtocolError):
                svc.query(
                    "what_if",
                    {
                        "updates": [{"verb": "link_fail", "args": {"src": 0, "dst": 1}}],
                        "query": {"verb": "what_if", "args": {}},
                    },
                )
            failed = counters()
        finally:
            svc.close()
        assert svc.seq == 0
        # which registry the fork records into never reaches its answer
        assert result == {
            "base_seq": 0,
            "hypothetical": 1,
            "answer": {
                "seq": 1,
                "fingerprint": "0cfc99d05d0a4c08c881cd27b2d851a5bdd0b4507b816a228bf5f6cf5bb689f7",
                "state_changes": 296,
                "messages": 88,
                "events": 162,
            },
        }
        queries = before.pop("serving.queries", 0)
        assert after.pop("serving.queries") == queries + 1
        assert failed.pop("serving.queries") == queries + 2
        assert after == before
        assert failed == before


class TestWhatIfMatchesReplay:
    """A fork loaded from the live capture answers exactly like a fresh
    service that replays the ledger and then the hypothetical updates."""

    QUERIES = [
        {"verb": "best_path", "args": {"src": 0, "dst": 10}},
        {"verb": "routes", "args": {}},
        {"verb": "fingerprint", "args": {}},
    ]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_policy_daemon_after_churn(self, tmp_path, shards):
        base = dict(family="power_law", size=16, topo_seed=1, policy="gao_rexford")
        links = sorted(
            (link.src, link.dst)
            for link in generate_scenario(
                "power_law", size=16, seed=1, policy="gao_rexford"
            ).topology.links()
            if link.src < link.dst
        )

        def update(verb, n, **extra):
            src, dst = links[n]
            return {"verb": verb, "args": {"src": src, "dst": dst, **extra}}

        accepted = [
            update("link_fail", 0),
            update("cost_change", 1, cost=7.5),
            update("cost_change", 2, cost=3.0),
            update("link_restore", 0),
            update("link_fail", 3),
            update("cost_change", 4, cost=9.0),
            update("link_restore", 3),
            update("cost_change", 1, cost=1.0),
        ]
        hypothetical = [update("link_fail", 5), update("cost_change", 6, cost=4.0)]
        live = RouteService(
            ServerConfig(
                **base, shards=shards, state_dir=str(tmp_path / "state"), snapshot_every=3
            )
        )
        try:
            for item in accepted:
                assert live.apply_update(item["verb"], item["args"])["settled"]
            before = live.query("fingerprint", {})
            live_routes = live.query("routes", {})["routes"]
            forked = []
            for question in self.QUERIES:
                forked.append(
                    live.query("what_if", {"updates": hypothetical, "query": question})
                )
                assert live.query("fingerprint", {}) == before
            ledger = [(r["verb"], r["args"]) for r in read_jsonl(live.ledger_path)]
        finally:
            live.close()
        # the hypotheticals bite: they withdraw the live 0 -> 10 route
        assert any((r["src"], r["dst"]) == (0, 10) for r in live_routes)
        assert not forked[0]["answer"]["found"]
        assert forked[1]["answer"]["routes"] != live_routes

        control = RouteService(ServerConfig(**base, snapshot_every=0))
        try:
            for verb, args in ledger:
                control.apply_update(verb, args)
            for item in hypothetical:
                control.apply_update(item["verb"], item["args"])
            for question, result in zip(self.QUERIES, forked):
                assert result["base_seq"] == len(accepted)
                assert result["answer"] == control.query(question["verb"], question["args"])
        finally:
            control.close()


class TestValidation:
    def test_unknown_node_rejected(self, service):
        with pytest.raises(ProtocolError, match="unknown node"):
            service.apply_update("link_fail", {"src": 99, "dst": 0})
        assert service.seq == 0

    def test_cost_change_requires_numeric_cost(self, service):
        with pytest.raises(ProtocolError, match="numeric"):
            service.apply_update("cost_change", {"src": 0, "dst": 1, "cost": "x"})

    def test_set_fact_requires_located_values(self, service):
        with pytest.raises(ProtocolError, match="located"):
            service.apply_update("set_fact", {"predicate": "link", "values": [99, 0, 1]})

    @pytest.mark.parametrize("verb", ["set_fact", "del_fact"])
    def test_fact_of_a_derived_predicate_is_refused_before_the_wal(self, tmp_path, verb):
        config = ServerConfig(
            state_dir=str(tmp_path), family="tree", size=6, policy="gao_rexford"
        )
        svc = RouteService(config)
        try:
            svc.apply_update("link_fail", {"src": 0, "dst": 1})
            wal = svc.ledger_path.read_bytes()
            row = [0, 1000, [0, 1, 1000], 1, 0, 1]
            with pytest.raises(ProtocolError, match="'route' refused: rule pv1 derives it"):
                svc.apply_update(verb, {"predicate": "route", "values": row})
            assert svc.seq == 1
            assert svc.ledger_path.read_bytes() == wal
        finally:
            svc.close()

    def test_refused_ledger_record_stops_boot_before_replay(self, tmp_path):
        """A ledger written before facts went to base predicates only may
        hold a fact of a derived predicate: boot names the record instead
        of replaying the ledger up to it."""

        from repro.serving.service import LEDGER_NAME, ServiceError

        records = [
            {"seq": 1, "verb": "link_fail", "args": {"src": 0, "dst": 1}},
            {"seq": 2, "verb": "set_fact",
             "args": {"predicate": "path", "values": [0, 1, [0, 1], 1]}},
        ]
        (tmp_path / LEDGER_NAME).write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        config = ServerConfig(state_dir=str(tmp_path), family="tree", size=6)
        with pytest.raises(
            ServiceError, match=r"ledger seq 2 \(set_fact\) is refused: .*'path' refused"
        ):
            RouteService(config)

    def test_unknown_query_verb(self, service):
        with pytest.raises(ProtocolError, match="unknown query verb"):
            service.query("nonsense", {})


class TestTupleNodeIds:
    def test_grid_node_ids_survive_json_round_trip(self):
        svc = RouteService(ServerConfig(family="grid", size=9, snapshot_every=0))
        try:
            answer = svc.query("best_path", {"src": [0, 0], "dst": [2, 2]})
            assert answer["found"]
            ack = svc.apply_update("link_fail", {"src": [0, 0], "dst": [0, 1]})
            assert ack["settled"]
        finally:
            svc.close()


class TestBootLintGuard:
    """``fvn-serve serve`` refuses statically-rejected programs at boot
    (docs/ANALYSIS.md) unless ``allow_unsafe`` overrides the guard."""

    #: remote negation: bestPathCost is tested at @D from a rule local to
    #: @S — diagnostic NDL304, an error-severity finding
    UNSAFE_RULE = "u1 unsafe(@S) :- link(@S,D,C), !bestPathCost(@D,S,C).\n"

    @pytest.fixture()
    def unsafe_program(self, monkeypatch):
        from repro.ndlog.parser import parse_program
        from repro.protocols.pathvector import PATH_VECTOR_SOURCE
        import repro.serving.service as service_mod

        program = parse_program(
            PATH_VECTOR_SOURCE + self.UNSAFE_RULE, "unsafe-serving"
        )
        monkeypatch.setattr(
            service_mod, "build_serving_program", lambda config: program
        )
        return program

    def test_boot_refuses_unsafe_program(self, unsafe_program):
        from repro.serving.service import ServiceError

        with pytest.raises(ServiceError, match="NDL304"):
            RouteService(ServerConfig(family="tree", size=8, snapshot_every=0))

    def test_allow_unsafe_overrides_the_guard(self, unsafe_program):
        svc = RouteService(
            ServerConfig(family="tree", size=8, snapshot_every=0, allow_unsafe=True)
        )
        try:
            assert svc.settled
            assert svc.query("routes", {})["count"] > 0
        finally:
            svc.close()

    def test_cli_flag_threads_through(self):
        from repro.serving.cli import _build_parser

        args = _build_parser().parse_args(["serve", "--allow-unsafe"])
        assert args.allow_unsafe is True
        assert _build_parser().parse_args(["serve"]).allow_unsafe is False
