"""Cells: a campaign's no-churn run and a churned sibling share one
pre-churn convergence, and every record stays the one its run makes alone.

The runs of a cell differ only in ``churn_events`` (and their ids), so up
to the first churn event they make the same steps; the runner records the
no-churn run there and runs the churned one on, on the same engine.  Each
grid here compares ``run_campaign`` records, inline and on a 2-worker pool,
with per-run ``execute_run`` records, field by field except ``wall_time``;
with ``obs`` the counters the run's work fixes must agree too, because the
prefix counts in every record that used it.
"""

import pytest

import repro.harness.runner as runner
from repro.harness import CampaignSpec, execute_run, run_campaign
from repro.harness.records import read_ledger
from repro.harness.runner import CRASH_RUN_ENV, cells

BASE = dict(
    sizes=(10,),
    seeds=(0,),
    churn_events=(0, 2),
    churn_restore_delay=1.0,
    until=30.0,
    max_events=150_000,
)

#: grid name → spec overrides; every one has cells that share a prefix
GRIDS = {
    "families_policies_loss": dict(
        families=("tree", "power_law", "waxman"),
        policies=("shortest_path", "gao_rexford"),
        loss=(0.0, 0.01),
    ),
    "plain_path_vector": dict(families=("tree", "waxman"), sizes=(8,), policies=("none",)),
    "churn_0_2_4": dict(
        families=("tree", "waxman"), policies=("gao_rexford",), churn_events=(0, 2, 4), loss=(0.01,)
    ),
    "shards": dict(families=("tree",), policies=("shortest_path",), loss=(0.01,), shards=(1, 2)),
    "static_proofs": dict(
        families=("tree",),
        policies=("shortest_path", "gao_rexford"),
        loss=(0.0, 0.01),
        static_proofs=True,
    ),
    "no_stale_routes": dict(
        families=("power_law",), policies=("gao_rexford",), loss=(0.01,), record_stale_routes=False
    ),
    "obs": dict(
        families=("tree", "waxman"), policies=("gao_rexford",), loss=(0.01,), shards=(1, 2), obs=True
    ),
}


def make_spec(name: str, **overrides) -> CampaignSpec:
    return CampaignSpec(name=name, **{**BASE, **overrides})


def alone(spec: CampaignSpec) -> dict[str, dict]:
    return {
        d.run_id: execute_run(d.to_dict(), spec.static_proofs, spec.obs) for d in spec.expand()
    }


def comparable(record: dict) -> dict:
    return {key: value for key, value in record.items() if key not in ("wall_time", "obs")}


def fixed_counters(record: dict) -> dict:
    """The obs counters the run's work fixes.  Collector passes and times
    vary between identical runs; ``shard.requests`` counts coordinator
    calls, and a shared prefix ends one segment more than a lone run."""

    counters = record["obs"]["metrics"]["counters"]
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("engine.gc_") and name != "shard.requests"
    }


@pytest.fixture()
def shared_prefixes(monkeypatch) -> list[str]:
    """The no-churn runs recorded off a shared prefix (inline campaigns)."""

    recorded: list[str] = []
    real = runner._Execution.record_prefix

    def counting(self, descriptor, started, obs):
        recorded.append(descriptor.run_id)
        return real(self, descriptor, started, obs)

    monkeypatch.setattr(runner._Execution, "record_prefix", counting)
    return recorded


def pairs(spec: CampaignSpec) -> list[list]:
    return [cell for cell in cells(spec.expand()) if len(cell) == 2]


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_records_equal_lone_runs(grid, tmp_path, shared_prefixes):
    spec = make_spec(grid, **GRIDS[grid])
    expected = alone(spec)
    for workers in (1, 2):
        result = run_campaign(spec, tmp_path / f"w{workers}", workers=workers)
        assert [r.run_id for r in result.records] == [d.run_id for d in spec.expand()]
        for record in result.records:
            got = record.to_dict()
            assert record.status == "ok", record.error
            assert comparable(got) == comparable(expected[record.run_id]), (workers, record.run_id)
            if spec.obs:
                assert fixed_counters(got) == fixed_counters(expected[record.run_id])
                requests = got["obs"]["metrics"]["counters"].get("shard.requests", 0)
                alone_requests = expected[record.run_id]["obs"]["metrics"]["counters"].get(
                    "shard.requests", 0
                )
                assert requests >= alone_requests
    # every pair of the grid shared its prefix (counted on the inline campaign)
    assert sorted(shared_prefixes) == sorted(calm.run_id for calm, _ in pairs(spec))


def test_prefix_counts_in_both_records(tmp_path):
    """The events a shared prefix processed are in the no-churn record and
    in the churned record alike, as when each ran alone."""

    spec = make_spec("events", families=("tree",), policies=("gao_rexford",), loss=(0.01,))
    records = {r.run_id: r for r in run_campaign(spec, tmp_path).records}
    ((calm, churned),) = pairs(spec)
    assert records[churned.run_id].events > records[calm.run_id].events > 0
    assert records[calm.run_id].quiescent
    assert records[calm.run_id].finished_at < spec.churn_start


FALLBACKS = {
    # the first link fails while routes are still spreading
    "churn_before_quiescence": dict(churn_start=0.005),
    # the refresh timer keeps the queue from ever draining
    "refresh_interval": dict(refresh_interval=0.5, until=3.0),
    # the run ends before it converges, long before any churn
    "until_before_quiescence": dict(until=0.01),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallbacks_equal_lone_runs(case, tmp_path, shared_prefixes):
    spec = make_spec(
        case,
        families=("tree", "waxman"),
        policies=("gao_rexford",),
        loss=(0.01,),
        **FALLBACKS[case],
    )
    expected = alone(spec)
    for workers in (1, 2):
        result = run_campaign(spec, tmp_path / f"w{workers}", workers=workers)
        for record in result.records:
            assert comparable(record.to_dict()) == comparable(expected[record.run_id])
    assert shared_prefixes == []


def test_until_before_churn_shares_a_converged_prefix(tmp_path, shared_prefixes):
    """Converged before ``until``, which comes before the first churn event:
    the no-churn run is recorded at quiescence, and the churned run ends at
    ``until`` with its churn still queued, as it does alone."""

    spec = make_spec(
        "until_before_churn", families=("tree",), policies=("gao_rexford",), loss=(0.01,),
        until=0.5,
    )
    expected = alone(spec)
    result = run_campaign(spec, tmp_path)
    for record in result.records:
        assert comparable(record.to_dict()) == comparable(expected[record.run_id])
    ((calm, churned),) = pairs(spec)
    assert shared_prefixes == [calm.run_id]
    by_id = {r.run_id: r for r in result.records}
    assert by_id[calm.run_id].quiescent
    assert not by_id[churned.run_id].quiescent and by_id[churned.run_id].finished_at == 0.5


def test_cells_pair_each_no_churn_run_with_its_first_churned_sibling():
    spec = make_spec(
        "grouping", families=("tree",), policies=("shortest_path",), churn_events=(0, 2, 4),
        seeds=(0, 1),
    )
    by_churn_seed = {(d.churn_events, d.seed): d for d in spec.expand()}
    assert cells(spec.expand()) == [
        [by_churn_seed[0, 0], by_churn_seed[2, 0]],
        [by_churn_seed[4, 0]],
        [by_churn_seed[0, 1], by_churn_seed[2, 1]],
        [by_churn_seed[4, 1]],
    ]
    # a churned run whose no-churn sibling already finished runs alone
    resumed = [d for d in spec.expand() if d.churn_events]
    assert all(len(cell) == 1 for cell in cells(resumed))


class TestCrashContainment:
    def spec(self) -> CampaignSpec:
        return make_spec(
            "shared-crash", families=("tree",), policies=("shortest_path",), loss=(0.01,),
            seeds=(0, 1),
        )

    def test_worker_death_blames_the_churned_run_only(self, tmp_path, monkeypatch):
        spec = self.spec()
        ((calm, victim), _) = pairs(spec)
        monkeypatch.setenv(CRASH_RUN_ENV, victim.run_id)
        result = run_campaign(spec, tmp_path, workers=2)

        status = {r.run_id: r.status for r in result.records}
        assert status.pop(victim.run_id) == "crashed"
        assert set(status.values()) == {"ok"}
        assert status[calm.run_id] == "ok"
        crashed = next(r for r in result.records if r.status == "crashed")
        assert "worker process died" in crashed.error
        assert set(read_ledger(tmp_path / "ledger.jsonl")) == {d.run_id for d in spec.expand()}

        monkeypatch.delenv(CRASH_RUN_ENV)
        resumed = run_campaign(spec, tmp_path, workers=2)
        assert (resumed.executed, resumed.resumed) == (1, 3)
        assert all(r.status == "ok" for r in resumed.records)
        assert comparable(
            next(r for r in resumed.records if r.run_id == victim.run_id).to_dict()
        ) == comparable(execute_run(victim.to_dict()))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_in_the_continuation_crashes_the_churned_run_only(
        self, tmp_path, monkeypatch, workers
    ):
        from repro.workloads.events import WorkloadScript

        def failing(self, engine):
            raise RuntimeError("synthetic churn failure")

        # churn is scheduled only when the churned run goes on from the prefix
        monkeypatch.setattr(WorkloadScript, "apply_to_engine", failing)
        spec = self.spec()
        calm = {calm.run_id: execute_run(calm.to_dict()) for calm, _ in pairs(spec)}
        result = run_campaign(spec, tmp_path, workers=workers)
        assert len(result.records) == 2 * len(calm) == 4
        for record in result.records:
            if record.run_id in calm:
                assert record.status == "ok"
                assert comparable(record.to_dict()) == comparable(calm[record.run_id])
            else:
                assert record.status == "crashed"
                assert "synthetic churn failure" in record.error

    def test_exception_recording_the_prefix_crashes_the_no_churn_run_only(
        self, tmp_path, monkeypatch
    ):
        def failing(self, descriptor, started, obs):
            raise RuntimeError("synthetic record failure")

        monkeypatch.setattr(runner._Execution, "record_prefix", failing)
        spec = self.spec()
        churned = {churned.run_id: execute_run(churned.to_dict()) for _, churned in pairs(spec)}
        result = run_campaign(spec, tmp_path)
        for record in result.records:
            if record.run_id in churned:
                assert record.status == "ok"
                assert comparable(record.to_dict()) == comparable(churned[record.run_id])
            else:
                assert record.status == "crashed"
                assert "synthetic record failure" in record.error
