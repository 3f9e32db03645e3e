"""One program identity: :func:`repro.ndlog.codegen.program_digest`.

The digest is a function of the program text alone — equal across builds,
parses, pickles and hash seeds — and moves under any change to what runs:
a rule term, a soft-state lifetime, a fact.  The settle cache and the
discharge cache are keyed by it, and an engine refuses to restore a
capture taken under another program.  An engine digests once: its
executor, shared by a sharded engine's workers, takes the engine's digest.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dn import create_engine
from repro.dn.engine import DistributedEngine, EngineConfig, restore_engine
from repro.fvn import discharge
from repro.harness import CampaignSpec
from repro.harness.runner import build_program
from repro.ndlog import codegen
from repro.ndlog.ast import Fact, NDlogError
from repro.ndlog.codegen import program_digest
from repro.ndlog.localization import localize_program
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.protocols.policy import policy_path_vector_program, policy_path_vector_source
from repro.scenarios import generate_scenario

SRC = Path(__file__).resolve().parents[2] / "src"

#: the plain path-vector program with one term of ``r2``'s cost changed
CHANGED_SOURCE = PATH_VECTOR_SOURCE.replace("C=C1+C2,", "C=C1+C2+C2,")


def descriptor(**overrides):
    spec = CampaignSpec(name="digest", sizes=(6,), **overrides)
    return spec.expand()[0]


class TestEqual:
    def test_two_builds(self):
        assert program_digest(build_program(descriptor())) == program_digest(
            build_program(descriptor())
        )

    def test_two_parses(self):
        source = policy_path_vector_source()
        assert program_digest(parse_program(source, "p")) == program_digest(
            parse_program(source, "p")
        )

    def test_pickle_round_trip(self):
        program = localize_program(parse_program(policy_path_vector_source(), "p")).program
        assert program_digest(pickle.loads(pickle.dumps(program))) == program_digest(program)

    def test_two_hash_seeds(self):
        script = (
            "from repro.ndlog.codegen import program_digest\n"
            "from repro.ndlog.localization import localize_program\n"
            "from repro.protocols.policy import policy_path_vector_program\n"
            "print(program_digest(localize_program(policy_path_vector_program()).program))\n"
        )
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_the_engine_digests_its_localized_program(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, generate_scenario("tree", size=4).topology)
        assert engine.program_digest == program_digest(localize_program(program).program)
        # the settle cache is keyed by the same digest
        assert engine.program_digest in codegen._SETTLE_CACHE


@pytest.mark.parametrize("shards, transport", [(1, "inline"), (2, "inline"), (2, "process")])
def test_one_digest_per_engine(monkeypatch, shards, transport):
    digested = []
    text = codegen.program_text

    def counted(program):
        digested.append(program.name)
        return text(program)

    monkeypatch.setattr(codegen, "program_text", counted)
    program = policy_path_vector_program()
    config = EngineConfig(seed=0, shards=shards, shard_transport=transport)
    engine = create_engine(program, generate_scenario("tree", size=8).topology, config=config)
    try:
        assert digested == ["policy_pathvector_localized"]
    finally:
        engine.close()


class TestDiffers:
    def test_one_rule_term(self):
        assert program_digest(parse_program(CHANGED_SOURCE, "pv")) != program_digest(
            parse_program(PATH_VECTOR_SOURCE, "pv")
        )

    def test_soft_state_lifetime_override(self):
        assert program_digest(
            build_program(descriptor(soft_state={"path": 30.0}))
        ) != program_digest(build_program(descriptor()))

    def test_added_fact(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        before = program_digest(program)
        program.add_fact(Fact("link", (0, 1, 1)))
        assert program_digest(program) != before


def test_restore_refuses_a_capture_of_another_program():
    topology = generate_scenario("tree", size=6).topology
    engine = DistributedEngine(
        parse_program(PATH_VECTOR_SOURCE, "pv"), topology, config=EngineConfig(seed=0)
    )
    engine.run()
    capture = pickle.loads(pickle.dumps(engine.capture()))
    changed = parse_program(CHANGED_SOURCE, "pv")
    with pytest.raises(NDlogError) as raised:
        restore_engine(changed, capture, config=EngineConfig(seed=0))
    message = str(raised.value)
    assert engine.program_digest in message
    assert program_digest(localize_program(changed).program) in message
    # the same capture under the program it was taken with restores
    same = restore_engine(parse_program(PATH_VECTOR_SOURCE, "pv"), capture)
    assert same.trace.fingerprint() == engine.trace.fingerprint()


def test_discharge_caches_one_report_per_program(monkeypatch):
    monkeypatch.setattr(discharge, "_CACHE", {})
    programs = [parse_program(PATH_VECTOR_SOURCE, "pv"), parse_program(CHANGED_SOURCE, "pv")]
    reports = [discharge.discharge_program(program) for program in programs]
    assert set(discharge._CACHE) == {(program_digest(p), None) for p in programs}
    assert reports[0] is not reports[1]
    assert discharge.discharge_program(parse_program(CHANGED_SOURCE, "pv")) is reports[1]
