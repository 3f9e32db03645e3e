"""``serve``: a real serving daemon behind one client, closed loop.

The daemon is ``python -m repro.serving serve --family tree --size 28`` with
the default ``ServerConfig`` (3 monitors, ``snapshot_every=50``, WAL on).
One op is one update (``link_fail`` / ``link_restore`` / ``cost_change``)
acknowledged as settled; each is followed by 3 ``best_path`` reads and one
``routes`` read whose client-side latency is the read metric.  The next
request is sent only when the previous answer has arrived (one connection,
nothing queued), so a slower daemon receives less load.

The seed is the daemon's ``--topo-seed`` (link costs), the order in which
links get their fail/restore/re-cost/re-cost-back cycle, and the read
targets.  Every pass cycles over all 27 tree links, so the work does not
depend on which links a seed happens to pick.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.scenarios import generate_scenario
from repro.serving import ServingClient, ServingError

from .. import config
from ..calib import p50
from ..obs import counter, histogram
from ..oracle import LinkState, link_cycle
from ..runtime import Pass, child_env
from ..spans import OP

BOOT_TIMEOUT_S = 60.0


@dataclass
class State:
    state_dir: Path
    daemon: subprocess.Popen
    client: ServingClient
    links: LinkState
    script: list[tuple]
    rng: random.Random
    nodes: list[int]
    updates_sent: int = 0


def boot(state_dir: Path, cfg: dict, seed: int) -> tuple[subprocess.Popen, ServingClient, float]:
    """Start (or, on a used state dir, recover) the daemon; returns it with
    a connected client and the seconds until it answered a ping."""

    start = perf_counter()
    log = (state_dir.parent / "daemon.log").open("a")
    try:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "serve", "--state-dir", str(state_dir),
             "--family", cfg["family"], "--size", str(cfg["size"]), "--topo-seed", str(seed)],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT, cwd=config.REPO_ROOT,
        )
    finally:
        log.close()
    try:
        # from_state_dir polls server.json until it names a live pid, which
        # also skips the stale record a killed daemon leaves behind
        deadline = perf_counter() + BOOT_TIMEOUT_S
        while True:
            try:
                client = ServingClient.from_state_dir(state_dir, timeout=120)
                break
            except ServingError:
                if daemon.poll() is not None or perf_counter() > deadline:
                    raise
        client.query("ping")
    except BaseException:
        stop(daemon, None)
        raise
    return daemon, client, perf_counter() - start


def stop(daemon: subprocess.Popen, client) -> None:
    """Ask the daemon to stop; kill it if it does not; always reap it."""

    if client is not None:
        try:
            if daemon.poll() is None:
                client.stop()
        except ServingError:  # a dying daemon may drop the connection mid-stop
            pass
        client.close()
    try:
        daemon.wait(timeout=20)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()


def send_update(run: Pass, state: State, step: tuple) -> tuple[float, list[str]]:
    """One update op and the reads after it, checked against the oracle."""

    kind, src, dst, cost = step
    client, links, rng = state.client, state.links, state.rng
    args = {"src": src, "dst": dst}
    if kind == "cost_change":
        args["cost"] = cost
    start = perf_counter()
    with run.spans.span(OP, kind=kind):
        with run.spans.span("server_client.update"):
            ack = client.update(kind, **args)
    wall = perf_counter() - start
    state.updates_sent += 1
    links.apply(kind, src, dst, cost)

    reads = []
    for _ in range(config.SIZES["serve"]["reads"] - 1):
        a, b = rng.sample(state.nodes, 2)
        reads.append(("best_path", {"src": a, "dst": b}))
    reads.append(("routes", {"node": rng.choice(state.nodes)}))
    answers = []
    block = len(run.section.blocks) - 1
    for verb, query in reads:
        began = perf_counter()
        with run.spans.span("server_client.query", verb=verb):
            answers.append(client.call(verb, query))
        took = perf_counter() - began
        run.queries.append((took, block))
        run.section.add_busy(took)

    problems = []
    if not ack.get("settled") or ack.get("seq") != state.updates_sent:
        problems.append(f"{kind} {src}-{dst}: ack {ack!r}")
    want = links.shortest_costs()
    for (verb, query), answer in zip(reads, answers):
        if verb == "best_path":
            expected = want.get((query["src"], query["dst"]))
            got = answer["metric"] if answer["found"] else None
            if got != expected:
                problems.append(f"best_path {query}: metric {got!r}, oracle {expected!r}")
        else:
            got = {route["dst"]: route["metric"] for route in answer["routes"]}
            expected = {dst: c for (src, dst), c in want.items() if src == query["node"]}
            if got != expected:
                problems.append(f"routes {query}: {len(got)} routes differ from oracle's {len(expected)}")
    return wall, problems


def prepare(run: Pass) -> State:
    cfg = config.SIZES["serve"]
    rng = random.Random(run.seed)
    topology = generate_scenario(cfg["family"], size=cfg["size"], seed=run.seed).topology
    pairs = sorted(
        {tuple(sorted((link.src, link.dst))) + (link.cost,) for link in topology.links()}
    )
    links = LinkState(sorted(topology.nodes), pairs)
    script: list[tuple] = []
    while len(script) < run.n_ops + 4:
        order = links.pairs()
        rng.shuffle(order)
        for src, dst in order:
            script += link_cycle(src, dst, links.cost(src, dst))
    state_dir = run.tmp_dir() / "state"
    state_dir.mkdir()
    daemon, client, _ = boot(state_dir, cfg, run.seed)
    state = State(state_dir, daemon, client, links, script[4 : run.n_ops + 4], rng,
                  sorted(topology.nodes))
    try:
        # warm-up: one link's cycle makes the daemon compile its deletion
        # and negation-delta variants before anything is timed
        warm = Pass("serve", run.seed, 4, False, run.seconds)
        warm.section.start()
        for step in script[:4]:
            _, problems = send_update(warm, state, step)
            run.problems += problems
    except BaseException:
        teardown(state)
        raise
    return state


def measure(run: Pass, state: State) -> None:
    run.start_timing()
    for step in state.script:
        wall, problems = send_update(run, state, step)
        if not run.op_done(wall, problems):
            break
    run.section.finish()
    status = state.client.query("status")
    if status["seq"] != state.updates_sent or not status["settled"] or not status["monitors_ok"]:
        run.problems.append(
            f"final status: seq {status['seq']} of {state.updates_sent}, "
            f"settled {status['settled']}, monitors_ok {status['monitors_ok']}"
        )


def layers(run: Pass, state: State) -> None:
    """Decompose the daemon's time from its ``metrics`` verb and state dir,
    then SIGKILL it and time the recovery."""

    out = run.layer
    factor = run.layer_factor
    client = state.client
    snapshot = client.query("metrics")["metrics"]

    def stat(name: str, key: str) -> float:
        return histogram(snapshot, name, key)

    update_s = stat("serving.update_seconds", "sum")
    updates = counter(snapshot, "serving.updates")
    events = counter(snapshot, "engine.events")
    out["service.update_ms_p50"] = stat("serving.update_seconds", "p50") * 1e3 * factor
    out["service.settle_ms_p50"] = stat("serving.settle_seconds", "p50") * 1e3 * factor
    out["service.settle_share"] = stat("serving.settle_seconds", "sum") / update_s
    out["service.wal_append_us_p50"] = stat("serving.wal_append_seconds", "p50") * 1e6 * factor
    out["service.wal_share"] = stat("serving.wal_append_seconds", "sum") / update_s
    out["service.snapshot_ms_p50"] = stat("serving.snapshot_seconds", "p50") * 1e3 * factor
    out["service.snapshot_ms_max"] = stat("serving.snapshot_seconds", "max") * 1e3 * factor
    out["service.snapshot_share"] = stat("serving.snapshot_seconds", "sum") / update_s
    out["service.snapshots"] = stat("serving.snapshot_seconds", "count")
    out["service.query_us_p50"] = stat("serving.query_seconds", "p50") * 1e6 * factor
    out["service.ledger_bytes"] = (state.state_dir / "updates.jsonl").stat().st_size
    snapshot_file = state.state_dir / "snapshot.pkl"
    out["checkpoint.snapshot_bytes"] = snapshot_file.stat().st_size if snapshot_file.exists() else 0
    client_update_ms = p50(run.spans.durations("server_client.update")) * 1e3 * factor
    client_query_us = p50(run.spans.durations("server_client.query")) * 1e6 * factor
    out["server_client.update_wire_ms_p50"] = client_update_ms - out["service.update_ms_p50"]
    out["server_client.query_wire_us_p50"] = client_query_us - out["service.query_us_p50"]
    # the daemon's engine counters cover boot and warm-up too: per update
    settle_s = stat("serving.settle_seconds", "sum")
    out["engine.events_per_op"] = events / updates
    out["engine.us_per_event"] = settle_s * factor * 1e6 / events
    out["executor.flushes_per_op"] = counter(snapshot, "engine.flushes") / updates
    out["executor.rule_firings_per_op"] = counter(snapshot, "engine.rule_firings") / updates
    out["executor.fixpoint_rounds_p50"] = stat("engine.fixpoint_rounds", "p50")
    out["executor.delta_batch_p50"] = stat("engine.delta_batch_size", "p50")
    out["executor.retraction_cascade_p95"] = stat("engine.retraction_cascade", "p95")
    run.counts.update({k: v for k, v in out.items() if k.endswith("_per_op")})

    before = client.query("fingerprint")
    client.close()
    os.kill(state.daemon.pid, signal.SIGKILL)
    state.daemon.wait()
    state.daemon, state.client, recovery_s = boot(state.state_dir, config.SIZES["serve"], run.seed)
    out["service.recovery_s"] = recovery_s * factor
    after = state.client.query("fingerprint")
    if (after["fingerprint"], after["seq"]) != (before["fingerprint"], before["seq"]):
        run.problems.append("recovered daemon's fingerprint differs from the killed one's")


def teardown(state: State) -> None:
    stop(state.daemon, state.client)
