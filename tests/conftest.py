"""Shared fixtures for the test tree.

``Trace.fingerprint()`` has changed definition twice: to the streaming
``fp2`` fold, then to ``fp3``, the same fold over marshal bytes instead of
``repr``.  The original definition (v1) — hash every state change, then
every message, then the bookkeeping — survives only here, as the reference
the equality suites use to show that nothing observable was lost: two
executions are equal under v1 iff they are equal under fp3.

``retract_dropping_engine`` is the adversarial engine of the lossy-retraction
and monitor suites: its channel loses every ``retract`` message.

``rule_tier`` parametrizes a test over the two rule evaluators: generated
code (what every engine runs) and the reference interpreter it is checked
against.  Each parameter installs its evaluator as
``repro.ndlog.rules.RULE_ENGINE`` for the test's duration — the one
attribute every evaluator and engine builds its rule engine from (shard
workers fork with their engine's).  The two are trace-fingerprint-identical, so a claim that
holds on one must hold on the other.
"""

import hashlib

import pytest

from repro.dn.engine import DistributedEngine
from repro.dn.trace import Trace
from repro.ndlog import rules
from repro.ndlog.reference import ReferenceEngine


def _fingerprint_v1(trace: Trace) -> str:
    """The original (v1) fingerprint; needs the complete record lists."""

    assert not trace.compacted
    digest = hashlib.sha256()
    for c in trace.state_changes:
        digest.update(repr((c.time, c.node, c.predicate, c.values, c.kind)).encode())
    digest.update(b"|messages|")
    for m in trace.messages:
        digest.update(
            repr((m.time, m.src, m.dst, m.predicate, m.values, m.delivered, m.kind)).encode()
        )
    digest.update(
        repr(
            (trace.events_processed, trace.finished_at, trace.quiescent, sorted(trace.seeds.items()))
        ).encode()
    )
    return digest.hexdigest()


@pytest.fixture
def fingerprint_v1():
    return _fingerprint_v1


@pytest.fixture(scope="session")
def fp_pairs() -> tuple[dict, dict]:
    """Every (v1, fp3) pair ``fp_agreement`` saw this session: v1 → fp3 and
    fp3 → v1."""

    return {}, {}


@pytest.fixture(scope="module")
def fp_agreement(fp_pairs):
    """Check v1 ⇔ fp3 on every ``Trace.fingerprint()`` call of the module
    (module scope so hypothesis tests can use it).

    Each call on a complete (never compacted) trace also computes the v1
    value, and the pair must extend a one-to-one mapping that is shared by
    the whole session: equal v1 values never get different fp3 values and
    vice versa, across every run pair the equality suites build.  Yields
    the list of fp3 values checked so a test can assert it was not vacuous.
    """

    v1_to_fp3, fp3_to_v1 = fp_pairs
    real = Trace.fingerprint
    checked: list[str] = []

    def fingerprint(trace: Trace) -> str:
        value = real(trace)
        if not trace.compacted:
            old = _fingerprint_v1(trace)
            assert v1_to_fp3.setdefault(old, value) == value, "equal under v1, not under fp3"
            assert fp3_to_v1.setdefault(value, old) == old, "equal under fp3, not under v1"
            checked.append(value)
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Trace, "fingerprint", fingerprint)
        yield checked


class RetractDroppingEngine(DistributedEngine):
    """An engine whose channel loses every ``retract`` message — the
    adversarial worst case for distributed deletion."""

    def _send(self, src, sends):
        for send in sends:
            dst, predicate, values, kind = send
            if kind != "retract":
                super()._send(src, [send])
                continue
            self.nodes[src].stats.messages_sent += 1
            self.trace.record_message(
                self.scheduler.now, src, dst, predicate, values,
                delivered=False, kind=kind,
            )
            self.channel.dropped += 1


@pytest.fixture
def retract_dropping_engine():
    return RetractDroppingEngine


#: the rule engine class each ``rule_tier`` parameter installs
RULE_TIERS = {
    "codegen": rules.RuleEngine,
    "reference": ReferenceEngine,
}


@pytest.fixture(params=list(RULE_TIERS))
def rule_tier(request, monkeypatch) -> str:
    """Run the test on one rule evaluator; returns its name.  Narrow the set
    with ``@pytest.mark.parametrize("rule_tier", [...], indirect=True)``."""

    monkeypatch.setattr(rules, "RULE_ENGINE", RULE_TIERS[request.param])
    return request.param
