"""The daemon forgets what it has folded: after every settle its ``Trace``
holds less than one fingerprint block per stream, and a snapshot's size
tracks live state — 4x the updates, same bytes — while every count the
wire verbs report stays equal to an uncompacted control run's."""

import pytest

from repro.dn.trace import Trace, TraceCompacted
from repro.scenarios import generate_scenario
from repro.serving import RouteService, ServerConfig
from repro.serving.service import SNAPSHOT_NAME

SIZE = 16
CYCLE_LINKS = 4  # one pass = fail / restore / re-cost / re-cost back on each
#: N is long enough that the monitors' capped violation lists have filled,
#: so what could still grow from N to 4N is only history
N_PASSES = 4


def retained(view) -> int:
    """Records a trace view still holds (its ``len`` counts dropped ones)."""

    return len(view) - view.dropped


def link_cycle(passes: int) -> list[tuple[str, dict]]:
    topology = generate_scenario("tree", size=SIZE, seed=0).topology
    links = [link for link in topology.up_links() if link.src < link.dst][:CYCLE_LINKS]
    updates = []
    for _ in range(passes):
        for link in links:
            ends = {"src": link.src, "dst": link.dst}
            updates += [
                ("link_fail", ends),
                ("link_restore", ends),
                ("cost_change", {**ends, "cost": link.cost + 3}),
                ("cost_change", {**ends, "cost": link.cost}),
            ]
    return updates


def drive(updates, state_dir=None, *, check_bound=True) -> dict:
    """Apply ``updates``; returns what ``status`` / ``fingerprint`` report
    (and the snapshot size) after the last one."""

    service = RouteService(
        ServerConfig(
            family="tree",
            size=SIZE,
            state_dir=str(state_dir) if state_dir else None,
            snapshot_every=8,
        )
    )
    try:
        for verb, args in updates:
            assert service.apply_update(verb, args)["settled"]
            if check_bound:
                trace = service.engine.trace
                assert retained(trace.state_changes) < Trace.FOLD_BLOCK
                assert retained(trace.messages) < Trace.FOLD_BLOCK
        status = service.query("status", {})
        report = dict(service.query("fingerprint", {}))
        report["status_counts"] = (status["state_changes"], status["messages"], status["events"])
        if state_dir:
            report["snapshot_bytes"] = (state_dir / SNAPSHOT_NAME).stat().st_size
        return report
    finally:
        service.close()


@pytest.fixture(scope="module")
def control():
    """4N updates through a daemon that never compacts."""

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Trace, "compact", lambda trace: None)
        return drive(link_cycle(4 * N_PASSES), check_bound=False)


def test_trace_and_snapshot_do_not_grow_with_updates(tmp_path, control):
    short = drive(link_cycle(N_PASSES), tmp_path / "n")
    long = drive(link_cycle(4 * N_PASSES), tmp_path / "4n")
    assert long["seq"] == 4 * short["seq"] == 256
    assert long["state_changes"] > 3 * short["state_changes"]  # history did grow 4x…
    assert abs(long["snapshot_bytes"] - short["snapshot_bytes"]) <= 0.10 * short["snapshot_bytes"]
    # …and the counts and fingerprint the verbs report are the uncompacted run's
    del long["snapshot_bytes"]
    assert long == control
    assert control["state_changes"] > 20 * Trace.FOLD_BLOCK  # the bound above was not vacuous


def test_daemon_trace_refuses_history_queries(tmp_path):
    service = RouteService(ServerConfig(family="tree", size=SIZE, snapshot_every=0))
    try:
        trace = service.engine.trace
        assert trace.compacted
        with pytest.raises(TraceCompacted):
            trace.changes_for("path")
        with pytest.raises(TraceCompacted):
            list(trace.state_changes)
        # counters still answer
        assert trace.convergence_time() == trace.last_change_time() > 0.0
    finally:
        service.close()


def test_sharded_daemon_compacts_too():
    updates = link_cycle(1)[:8]
    single = drive(updates)
    service = RouteService(ServerConfig(family="tree", size=SIZE, shards=2, snapshot_every=0))
    try:
        for verb, args in updates:
            service.apply_update(verb, args)
            assert retained(service.engine.trace.state_changes) < Trace.FOLD_BLOCK
        assert service.query("fingerprint", {}) == {
            key: single[key] for key in ("seq", "fingerprint", "state_changes", "messages", "events")
        }
    finally:
        service.close()
