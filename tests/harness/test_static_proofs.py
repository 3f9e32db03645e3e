"""Static obligation discharge wired into the campaign harness.

The acceptance contract: with ``static_proofs = true`` monotone runs (no
churn, no loss) skip their statically-proven monitors, every run's ledger
record carries replay-checkable proof provenance, and ``results.jsonl``
is byte-identical to the fully runtime-monitored campaign.  Runs with
deletions keep runtime monitoring — reconvergence can transiently flag
invariants that provably hold at settled states, and those transient
observations must not be lost.
"""

import json

from repro.harness import CampaignSpec, execute_run, run_campaign
from repro.harness.records import LEDGER_NAME, RESULTS_NAME

PROVEN = ["best_agreement", "route_validity"]


def spec(**overrides) -> CampaignSpec:
    base = dict(
        name="static-unit",
        families=("tree",),
        sizes=(12,),
        policies=("none",),
        seeds=(0, 1),
        churn_events=(0, 2),
        loss=(0.0,),
        until=20.0,
        max_events=100_000,
        monitors=("route_validity", "best_agreement", "cycle_freedom"),
    )
    base.update(overrides)
    return CampaignSpec(**base)


def monotone_descriptor():
    return spec(churn_events=(0,), seeds=(0,)).expand()[0]


class TestExecuteRunWithProofs:
    def test_monotone_run_skips_proven_monitors(self):
        descriptor = monotone_descriptor()
        record = execute_run(descriptor.to_dict(), True)
        provenance = record["static_proofs"]
        assert provenance["proven_monitors"] == PROVEN
        assert provenance["skipped_monitors"] == PROVEN
        # skipped monitors surface the canonical clean report, in spec order
        assert [m["monitor"] for m in record["monitors"]] == list(descriptor.monitors)
        reports = {m["monitor"]: m for m in record["monitors"]}
        for kind in PROVEN:
            assert reports[kind]["violations"] == 0
            assert reports[kind]["examples"] == []
        assert record["monitors_ok"]

    def test_churn_run_keeps_runtime_monitors(self):
        descriptor = spec(churn_events=(2,), seeds=(0,)).expand()[0]
        record = execute_run(descriptor.to_dict(), True)
        provenance = record["static_proofs"]
        # proofs are recorded, but deletions disable the skip
        assert provenance["proven_monitors"] == PROVEN
        assert provenance["skipped_monitors"] == []

    def test_records_identical_to_dynamic_modulo_provenance(self):
        from repro.harness.records import RunRecord

        for descriptor in spec(seeds=(0,)).expand():
            dynamic = RunRecord.from_dict(execute_run(descriptor.to_dict()))
            static = RunRecord.from_dict(execute_run(descriptor.to_dict(), True))
            assert dynamic.static_proofs is None
            assert static.static_proofs is not None
            assert dynamic.deterministic_dict() == static.deterministic_dict()

    def test_proof_scripts_in_ledger_replay(self):
        from repro.fvn.discharge import replay_proof
        from repro.protocols import path_vector_program

        record = execute_run(monotone_descriptor().to_dict(), True)
        program = path_vector_program()
        replayed = 0
        for proof in record["static_proofs"]["proofs"]:
            if proof["proved"]:
                assert replay_proof(program, proof["property"], proof["script"])
                replayed += 1
        assert replayed >= 1


class TestCampaignByteIdentity:
    def test_results_byte_identical_and_ledger_carries_proofs(self, tmp_path):
        dynamic_dir = tmp_path / "dynamic"
        static_dir = tmp_path / "static"
        run_campaign(spec(static_proofs=False), dynamic_dir)
        run_campaign(spec(static_proofs=True), static_dir)

        dynamic_bytes = (dynamic_dir / RESULTS_NAME).read_bytes()
        static_bytes = (static_dir / RESULTS_NAME).read_bytes()
        assert dynamic_bytes == static_bytes

        static_records = [
            json.loads(line)
            for line in (static_dir / LEDGER_NAME).read_text().splitlines()
        ]
        assert static_records
        for record in static_records:
            provenance = record["static_proofs"]
            assert provenance["proven_monitors"] == PROVEN
            monotone = record["params"]["churn_events"] == 0
            assert provenance["skipped_monitors"] == (PROVEN if monotone else [])
        assert any(r["static_proofs"]["skipped_monitors"] for r in static_records)

        dynamic_records = [
            json.loads(line)
            for line in (dynamic_dir / LEDGER_NAME).read_text().splitlines()
        ]
        assert all(r["static_proofs"] is None for r in dynamic_records)

    def test_spec_round_trips_static_proofs(self):
        loaded = CampaignSpec.from_dict(spec(static_proofs=True).to_dict())
        assert loaded.static_proofs is True
        assert spec().static_proofs is False
