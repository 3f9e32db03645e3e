"""Campaign crash containment: a worker process dying mid-campaign is
recorded as a crashed RunRecord in a complete, resumable ledger instead of
aborting the whole campaign with BrokenProcessPool."""

import json

import pytest

from repro.harness.records import LEDGER_NAME, RunRecord, read_ledger, summarize
from repro.harness.runner import CRASH_RUN_ENV, run_campaign
from repro.harness.spec import CampaignSpec


@pytest.fixture()
def spec():
    return CampaignSpec.from_dict(
        {
            "name": "crash-containment",
            "families": ["tree"],
            "sizes": [8],
            "seeds": [0, 1, 2, 3],
        }
    )


class TestPoolCrashContainment:
    def test_worker_death_contained_and_resumable(self, spec, tmp_path, monkeypatch):
        victim = spec.expand()[1].run_id
        monkeypatch.setenv(CRASH_RUN_ENV, victim)
        result = run_campaign(spec, tmp_path, workers=2)

        # the campaign completed with every run accounted for
        assert result.run_count == 4
        crashed = [r for r in result.records if r.status == "crashed"]
        assert [r.run_id for r in crashed] == [victim]
        assert "worker process died" in crashed[0].error
        assert result.summary["crashed"] == 1
        # the ledger is complete: one line per run, crashed one included
        ledger = read_ledger(tmp_path / LEDGER_NAME)
        assert set(ledger) == {d.run_id for d in spec.expand()}

        # resume re-executes only the crashed run, which now succeeds
        monkeypatch.delenv(CRASH_RUN_ENV)
        resumed = run_campaign(spec, tmp_path, workers=2)
        assert resumed.resumed == 3
        assert resumed.executed == 1
        assert all(r.status == "ok" for r in resumed.records)

    def test_inline_exception_contained(self, spec, tmp_path, monkeypatch):
        import repro.harness.runner as runner

        victim = spec.expand()[2].run_id
        real_execute = runner.execute_run

        def flaky(descriptor_data, *args):
            if descriptor_data["run_id"] == victim:
                raise RuntimeError("synthetic in-run failure")
            return real_execute(descriptor_data, *args)

        monkeypatch.setattr(runner, "execute_run", flaky)
        result = run_campaign(spec, tmp_path, workers=1)
        crashed = [r for r in result.records if r.status == "crashed"]
        assert [r.run_id for r in crashed] == [victim]
        assert "synthetic in-run failure" in crashed[0].error
        assert result.summary["crashed"] == 1


class TestRecordCompat:
    def test_old_ledger_lines_default_status_ok(self, tmp_path):
        record = RunRecord.crashed("r1", 0, {"family": "tree"}, "boom")
        old_style = record.to_dict()
        del old_style["status"]
        del old_style["error"]
        parsed = RunRecord.from_dict(old_style)
        assert parsed.status == "ok"
        assert parsed.error is None

    def test_crashed_record_round_trips_through_ledger(self, tmp_path):
        from repro.harness.records import append_ledger

        path = tmp_path / LEDGER_NAME
        record = RunRecord.crashed("r9", 3, {"family": "tree"}, "Traceback: ...")
        append_ledger(path, record)
        loaded = read_ledger(path)["r9"]
        assert loaded.status == "crashed"
        assert loaded.error == "Traceback: ..."
        assert loaded.monitors_ok is False

    def test_summarize_counts_crashed(self):
        params = {
            "family": "tree",
            "size": 8,
            "policy": None,
            "churn_events": 0,
            "loss": 0.0,
            "engine_index": 0,
        }
        ok = RunRecord.from_dict(
            json.loads(
                json.dumps(
                    {
                        **RunRecord.crashed("ok1", 0, params, "unused").to_dict(),
                        "status": "ok",
                        "error": None,
                        "quiescent": True,
                    }
                )
            )
        )
        bad = RunRecord.crashed("bad1", 1, params, "boom")
        summary = summarize([ok, bad])
        assert summary["runs"] == 2
        assert summary["crashed"] == 1
        assert summary["quiescent"] == 1
