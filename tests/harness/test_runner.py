"""Campaign runner: determinism, resumability, multi-process equivalence."""

import json

from repro.harness import (
    CampaignSpec,
    RunRecord,
    diff_campaigns,
    execute_run,
    run_campaign,
)
from repro.harness.records import LEDGER_NAME, RESULTS_NAME, SUMMARY_NAME


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="unit",
        families=("tree",),
        sizes=(10,),
        policies=("none",),
        seeds=(0, 1, 2, 3),
        churn_events=(0, 2),
        loss=(0.0,),
        until=15.0,
        max_events=50_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestExecuteRun:
    def test_record_contents_and_seeds(self):
        descriptor = small_spec().expand()[0]
        record = RunRecord.from_dict(execute_run(descriptor.to_dict()))
        assert record.run_id == descriptor.run_id
        assert record.quiescent
        assert record.route_count == 10 * 9
        assert record.stale_routes == 0 and record.missing_routes == 0
        assert record.seeds == {
            "engine_config": 0,
            "channel": 0,
            "scenario": 0,
        }
        assert [m["monitor"] for m in record.monitors] == [
            "route_validity",
            "best_agreement",
            "cycle_freedom",
            "soft_state_bounds",
        ]
        assert record.monitors_ok
        assert record.wall_time > 0

    def test_execute_run_is_deterministic_modulo_wall_time(self):
        descriptor = small_spec(churn_events=(2,), loss=(0.1,)).expand()[1]
        a = RunRecord.from_dict(execute_run(descriptor.to_dict()))
        b = RunRecord.from_dict(execute_run(descriptor.to_dict()))
        assert a.deterministic_dict() == b.deterministic_dict()

    def test_policy_runs_use_policy_program(self):
        descriptor = small_spec(
            policies=("shortest_path",), seeds=(0,), churn_events=(0,)
        ).expand()[0]
        record = RunRecord.from_dict(execute_run(descriptor.to_dict()))
        assert record.quiescent and record.route_count == 10 * 9

    def test_soft_state_override_reaches_the_program(self):
        from repro.harness import build_program
        from repro.harness.spec import RunDescriptor

        descriptor = small_spec(soft_state={"link": 5.0}).expand()[0]
        program = build_program(RunDescriptor.from_dict(descriptor.to_dict()))
        assert program.materialized["link"].lifetime == 5.0
        assert program.materialized["path"].lifetime == float("inf")

    def test_programs_share_one_parse_but_not_their_overrides(self):
        from repro.dn import DistributedEngine, Topology
        from repro.harness import build_program
        from repro.ndlog import codegen

        soft, other, plain = (
            build_program(small_spec(soft_state=override).expand()[0])
            for override in ({"link": 5.0}, {"link": 9.0, "path": 2.0}, {})
        )
        assert [p.materialized["link"].lifetime for p in (soft, other, plain)] == [
            5.0, 9.0, float("inf"),
        ]
        assert soft.materialized["path"].lifetime == float("inf")
        assert other.materialized["path"].lifetime == 2.0
        # one parse behind all three (the rules are the same objects), but
        # every container a run may mutate is its own
        assert all(a is b for a, b in zip(soft.rules, plain.rules))
        assert soft.rules is not plain.rules and soft.facts is not plain.facts
        plain.rules.clear()
        assert build_program(small_spec().expand()[0]).rules
        # and the shared rules keep hitting the codegen source cache: a
        # second engine over a rebuilt program compiles nothing new
        topology = Topology.from_edges([("a", "b")])
        DistributedEngine(build_program(small_spec().expand()[0]), topology)
        compiled = len(codegen._CODEGEN_CACHE)
        DistributedEngine(build_program(small_spec().expand()[0]), topology)
        assert len(codegen._CODEGEN_CACHE) == compiled


class TestCampaigns:
    def test_campaign_writes_all_artifacts(self, tmp_path):
        spec = small_spec(seeds=(0, 1), churn_events=(0,))
        result = run_campaign(spec, tmp_path / "out")
        assert result.run_count == 2 and result.executed == 2 and result.resumed == 0
        for name in (LEDGER_NAME, RESULTS_NAME, SUMMARY_NAME, "spec.json"):
            assert (tmp_path / "out" / name).exists()
        summary = json.loads((tmp_path / "out" / SUMMARY_NAME).read_text())
        assert summary["runs"] == 2 and summary["quiescent"] == 2

    def test_results_are_byte_identical_across_reruns(self, tmp_path):
        spec = small_spec(seeds=(0, 1), churn_events=(2,), loss=(0.05,))
        run_campaign(spec, tmp_path / "a")
        run_campaign(spec, tmp_path / "b")
        assert (tmp_path / "a" / RESULTS_NAME).read_bytes() == (
            tmp_path / "b" / RESULTS_NAME
        ).read_bytes()
        assert diff_campaigns(tmp_path / "a", tmp_path / "b") == []

    def test_multiprocess_results_equal_single_process(self, tmp_path):
        spec = small_spec(seeds=(0, 1, 2), churn_events=(0,))
        run_campaign(spec, tmp_path / "seq", workers=1)
        run_campaign(spec, tmp_path / "par", workers=2)
        assert (tmp_path / "seq" / RESULTS_NAME).read_bytes() == (
            tmp_path / "par" / RESULTS_NAME
        ).read_bytes()

    def test_policy_churn_loss_sweep_identical_across_workers(self, tmp_path):
        """Every family, both policy kinds, a churn axis and a lossy channel,
        with the fresh-fixpoint diff off as in throughput sweeps: a 2-worker
        pool writes the 1-worker ``results.jsonl`` byte for byte, and every
        record carries its monitor reports."""

        spec = small_spec(
            families=("tree", "power_law", "waxman"),
            policies=("shortest_path", "gao_rexford"),
            seeds=(0,),
            loss=(0.01,),
            record_stale_routes=False,
        )
        results = {}
        for workers in (1, 2):
            result = run_campaign(spec, tmp_path / f"w{workers}", workers=workers)
            assert result.run_count == spec.run_count == 12
            assert all(record.monitors for record in result.records)
            results[workers] = (tmp_path / f"w{workers}" / RESULTS_NAME).read_bytes()
        assert results[2] == results[1]

    def test_killed_campaign_resumes_where_it_stopped(self, tmp_path):
        spec = small_spec(churn_events=(0,))  # 4 runs
        full = run_campaign(spec, tmp_path / "full")
        # simulate a kill after two runs: keep a truncated ledger only
        out = tmp_path / "resumed"
        out.mkdir()
        ledger_lines = (tmp_path / "full" / LEDGER_NAME).read_text().splitlines()
        (out / LEDGER_NAME).write_text("\n".join(ledger_lines[:2]) + "\n")
        resumed = run_campaign(spec, out)
        assert resumed.resumed == 2 and resumed.executed == 2
        assert (out / RESULTS_NAME).read_bytes() == (
            tmp_path / "full" / RESULTS_NAME
        ).read_bytes()
        assert full.summary["runs"] == resumed.summary["runs"] == 4

    def test_torn_ledger_line_is_reexecuted(self, tmp_path):
        spec = small_spec(seeds=(0, 1), churn_events=(0,))
        run_campaign(spec, tmp_path / "out")
        ledger = tmp_path / "out" / LEDGER_NAME
        lines = ledger.read_text().splitlines()
        # a hard kill mid-write leaves a torn trailing line
        ledger.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_campaign(spec, tmp_path / "out")
        assert resumed.resumed == 1 and resumed.executed == 1
        assert len(resumed.records) == 2

    def test_fresh_discards_previous_artifacts(self, tmp_path):
        spec = small_spec(seeds=(0,), churn_events=(0,))
        run_campaign(spec, tmp_path / "out")
        result = run_campaign(spec, tmp_path / "out", resume=False)
        assert result.resumed == 0 and result.executed == 1

    def test_spec_edits_invalidate_matching_run_ids(self, tmp_path):
        # run_ids encode only the grid coordinates; editing a shared field
        # like the sim-time budget must re-execute, not resume stale results
        out = tmp_path / "out"
        first = run_campaign(small_spec(seeds=(0, 1), churn_events=(0,)), out)
        assert first.executed == 2
        edited = run_campaign(
            small_spec(seeds=(0, 1), churn_events=(0,), until=12.0), out
        )
        assert edited.resumed == 0 and edited.executed == 2
        # unchanged spec still resumes everything
        again = run_campaign(
            small_spec(seeds=(0, 1), churn_events=(0,), until=12.0), out
        )
        assert again.resumed == 2 and again.executed == 0

    def test_program_change_reexecutes_every_run(self, tmp_path, monkeypatch):
        """Resume checks the program as well as the params: after a change
        to ``r2``'s cost term no ledger record is resumed, and the campaign
        writes what a fresh campaign of the changed program writes."""

        import repro.harness.runner as runner

        # several paths per pair, so the changed costs change the routes
        spec = small_spec(families=("power_law",), seeds=(0, 1), churn_events=(0,))
        out = tmp_path / "out"
        first = run_campaign(spec, out)
        before = (out / RESULTS_NAME).read_bytes()
        assert first.executed == 2 and all(r.program_digest for r in first.records)
        monkeypatch.setattr(
            runner,
            "PATH_VECTOR_SOURCE",
            runner.PATH_VECTOR_SOURCE.replace("C=C1+C2,", "C=C1+C2+C2,"),
        )
        resumed = run_campaign(spec, out)
        assert resumed.resumed == 0 and resumed.executed == 2
        fresh = run_campaign(spec, tmp_path / "fresh")
        assert (out / RESULTS_NAME).read_bytes() == (
            tmp_path / "fresh" / RESULTS_NAME
        ).read_bytes() != before
        assert {r.program_digest for r in resumed.records} == {
            r.program_digest for r in fresh.records
        } != {r.program_digest for r in first.records}
        # the changed program's own records resume
        again = run_campaign(spec, out)
        assert again.resumed == 2 and again.executed == 0

    def test_program_digest_is_ledger_only(self, tmp_path):
        result = run_campaign(small_spec(seeds=(0,), churn_events=(0,)), tmp_path)
        (line,) = (tmp_path / RESULTS_NAME).read_text().splitlines()
        assert "program_digest" not in json.loads(line)
        ledger = json.loads((tmp_path / LEDGER_NAME).read_text().splitlines()[0])
        assert ledger["program_digest"] == result.records[0].program_digest

    def test_stale_ledger_entries_from_other_specs_are_ignored(self, tmp_path):
        spec = small_spec(seeds=(0,), churn_events=(0,))
        out = tmp_path / "out"
        out.mkdir()
        bogus = {"run_id": "9999-other", "index": 9999}
        (out / LEDGER_NAME).write_text(json.dumps(bogus) + "\n")
        result = run_campaign(spec, out)
        assert result.executed == 1 and result.resumed == 0
        assert [r.run_id for r in result.records] == [spec.expand()[0].run_id]

    def test_lossy_churned_campaign_retraction_vs_lost_retractions(self, tmp_path):
        """The headline contrast, at campaign scale: on a reliable channel
        retraction reaches the fresh fixpoint (no stale routes); on a lossy
        one, lost retract messages leave stale hard state that the monitors
        flag when churn strikes.  An engine-axis override this program never
        exercises (it has no soft-state table to scan) changes nothing a
        record measures."""

        spec = small_spec(
            seeds=(0, 1),
            churn_events=(2,),
            churn_restore_delay=None,  # failures are permanent: staleness shows
            loss=(0.0, 0.3),
            engine=({}, {"expiry_scan_interval": 0.5}),
        )
        result = run_campaign(spec, tmp_path / "out")
        cells = {}
        for record in result.records:
            key = (record.params["loss"], record.params["engine_index"])
            cells.setdefault(key, []).append(record)
        reliable = cells[(0.0, 0)] + cells[(0.0, 1)]
        lossy = cells[(0.3, 0)] + cells[(0.3, 1)]
        assert all(r.stale_routes == 0 for r in reliable)
        assert all(r.monitors_ok for r in reliable)
        assert any(r.stale_routes > 0 for r in lossy)
        assert any(not r.monitors_ok for r in lossy)
        # runtime monitors saw the violation when churn struck, not at the end
        flagged = [r for r in lossy if not r.monitors_ok]
        assert all(
            r.first_violation_time is not None
            and r.first_violation_time < r.finished_at
            for r in flagged
        )

        def measured(record):
            out = record.deterministic_dict()
            for key in ("run_id", "index", "params"):
                out.pop(key)
            return out

        for loss in (0.0, 0.3):
            assert [measured(r) for r in cells[(loss, 0)]] == [
                measured(r) for r in cells[(loss, 1)]
            ]
