"""Static obligation discharge: proofs, replay provenance, classification.

The acceptance contract: on the plain path-vector program the
``route_validity`` and ``best_agreement`` monitors are statically proven
with replayable scripts, ``cycle_freedom`` stays runtime-monitored, and
policies whose algebras do not discharge keep everything at runtime.
"""

import json

import pytest

from repro.dn.monitors import clean_report
from repro.fvn.discharge import (
    RUNTIME_MONITORED,
    STATICALLY_PROVEN,
    algebra_for_policy,
    classify_monitors,
    discharge_program,
    property_suite_for,
    replay_proof,
)
from repro.protocols import path_vector_program
from repro.protocols.policy import policy_path_vector_program


@pytest.fixture(scope="module")
def pv_report():
    return discharge_program(path_vector_program())


class TestDischarge:
    def test_pathvector_monitors_proven(self, pv_report):
        assert pv_report.proven_monitors == ("best_agreement", "route_validity")
        assert pv_report.algebra_well_behaved
        assert pv_report.algebra_obligations_discharged
        assert all(ob["discharged"] for ob in pv_report.algebra_obligations)

    def test_cycle_freedom_not_proved(self, pv_report):
        proof = pv_report.proof_for("pathCycleFree")
        assert proof is not None and not proof.proved
        assert proof.script == ()

    def test_proved_properties_carry_scripts(self, pv_report):
        for proof in pv_report.proofs:
            if proof.proved:
                assert proof.script
                assert proof.script[-1][0] == "grind"
                assert proof.interactive_steps == len(proof.script) - 1

    def test_report_is_json_serializable(self, pv_report):
        payload = json.loads(json.dumps(pv_report.to_dict()))
        assert payload["proven_monitors"] == ["best_agreement", "route_validity"]

    def test_cache_returns_same_report(self, pv_report):
        assert discharge_program(path_vector_program()) is pv_report

    def test_policy_program_has_empty_suite(self):
        assert property_suite_for(policy_path_vector_program()) == []
        report = discharge_program(policy_path_vector_program(), policy="gao_rexford")
        assert report.proven_monitors == ()

    def test_undischarged_algebra_keeps_monitors_at_runtime(self):
        report = discharge_program(path_vector_program(), policy="random_pref")
        # the proofs still close, but the bgp algebra is not well-behaved
        assert any(p.proved for p in report.proofs)
        assert not report.algebra_obligations_discharged
        assert report.proven_monitors == ()

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="nope"):
            algebra_for_policy("nope")


class TestReplay:
    def test_recorded_scripts_replay(self, pv_report):
        program = path_vector_program()
        for proof in pv_report.proofs:
            if proof.proved:
                assert replay_proof(program, proof.property, proof.script), (
                    proof.property
                )

    def test_truncated_script_does_not_close(self, pv_report):
        program = path_vector_program()
        proof = next(p for p in pv_report.proofs if p.proved)
        assert not replay_proof(program, proof.property, proof.script[:-1])

    def test_unknown_property_replays_false(self):
        assert not replay_proof(path_vector_program(), "nope", (("grind", {}),))

    def test_scripts_survive_json_round_trip(self, pv_report):
        program = path_vector_program()
        proof = next(p for p in pv_report.proofs if p.proved)
        script = json.loads(json.dumps(list(proof.script)))
        assert replay_proof(program, proof.property, script)


class TestClassification:
    def test_classify_monitors(self):
        kinds = classify_monitors(
            path_vector_program(),
            ("route_validity", "best_agreement", "cycle_freedom"),
        )
        assert kinds == {
            "route_validity": STATICALLY_PROVEN,
            "best_agreement": STATICALLY_PROVEN,
            "cycle_freedom": RUNTIME_MONITORED,
        }

    def test_clean_report_shape(self):
        report = clean_report("route_validity")
        assert report == {
            "monitor": "route_validity",
            "first_violation_time": None,
            "violations": 0,
            "active_at_end": 0,
            "examples": [],
        }

    def test_clean_report_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown monitor kind"):
            clean_report("nope")
