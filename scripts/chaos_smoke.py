#!/usr/bin/env python
"""CI chaos smoke: seeded faults against the sharded and serving runtimes.

Two legs, both driven by seeded :class:`~repro.dn.faults.FaultPlan`s so
every provoked failure is exactly reproducible:

1. **Sharded engine** — run a churn scenario on a process-sharded engine,
   in run segments so the workers take checkpoints, and arm the plan after
   the first checkpoint: it SIGKILLs shard workers and severs coordinator
   pipes mid-fixpoint, and every respawn resyncs from a checkpoint plus
   the requests logged since; require at least one checkpoint, the runtime
   invariant monitors green and the final ``Trace.fingerprint()``
   **byte-identical** to a fault-free control run.
2. **Serving daemon** — drive a live update stream through a socket
   daemon while the plan resets client connections before and after
   dispatch and tears a snapshot write; the client retries with request
   keys, and the smoke requires every update applied exactly once, the
   daemon surviving every disconnect, and the final fingerprint matching
   a fault-free control service fed the same updates — including after a
   restart that must recover past the torn snapshot.

The injected-fault event logs are written to ``--artifacts`` as evidence.
Exits non-zero on any failure.  Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py --artifacts chaos-out
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from _smoke_common import ServerThread, write_evidence  # noqa: F401 (sets sys.path)

from repro.dn import EngineConfig, FaultPlan, ShardedEngine, create_engine  # noqa: E402
from repro.dn.faults import ANY_SCOPE, SERVING_SCOPE, Fault  # noqa: E402
from repro.dn.monitors import schema_for_program, standard_monitors  # noqa: E402
from repro.protocols.policy import policy_path_vector_program  # noqa: E402
from repro.scenarios import churn_updates, generate_scenario  # noqa: E402
from repro.serving import RouteService, ServerConfig, ServingClient  # noqa: E402

FAMILY = "tree"
SIZE = 16
SHARDS = 3
CHURN_EVENTS = 4
PLAN_SEED = 1009
#: the sharded leg churns longer (so its workers' request logs outgrow
#: their live rows and they checkpoint) and runs to UNTIL in segments of
#: SEGMENT simulated seconds
SHARD_CHURN_EVENTS = 40
SEGMENT = 0.5
UNTIL = 12.0


def sharded_run(faults: FaultPlan | None) -> dict:
    """One sharded churn run (optionally chaotic) → its observables."""

    scenario = generate_scenario(
        FAMILY,
        size=SIZE,
        seed=0,
        policy="gao_rexford",
        churn_events=SHARD_CHURN_EVENTS,
        churn_restore_delay=1.0,
        loss=0.01,
    )
    program = policy_path_vector_program()
    # the restart budget covers every fault of the plan landing on one
    # shard: wildcard faults go to whichever shard makes the n-th request
    config = EngineConfig(
        seed=0,
        shards=SHARDS,
        shard_transport="process",
        shard_timeout=30.0,
        shard_restarts=len(faults.faults) if faults is not None else 0,
    )
    engine = create_engine(program, scenario.topology, config=config)
    assert isinstance(engine, ShardedEngine)
    injector = None
    armed_after = 0
    monitors = standard_monitors(schema_for_program(program))
    for monitor in monitors:
        engine.attach_monitor(monitor)
    scenario.churn.apply_to_engine(engine)
    try:
        for step in range(1, round(UNTIL / SEGMENT) + 1):
            if faults is not None and injector is None and sum(engine.shard_checkpoints):
                armed_after = sum(engine.shard_checkpoints)
                injector = engine.inject_faults(faults)
            trace = engine.run(
                until=step * SEGMENT, extra_facts=scenario.policy_fact_list()
            )
        engine.finalize_monitors()
        engine.validate_shards()
        return {
            "fingerprint": trace.fingerprint(),
            "quiescent": trace.quiescent,
            "monitors_ok": all(monitor.ok for monitor in monitors),
            "restarts": list(engine.shard_restarts),
            "checkpoints": sum(engine.shard_checkpoints),
            "checkpoints_before_faults": armed_after,
            "injected": injector.fired() if injector is not None else [],
        }
    finally:
        engine.close()


def chaos_sharded(evidence: dict) -> None:
    plan = FaultPlan(
        faults=FaultPlan.generate(
            PLAN_SEED,
            kinds=("kill_worker",),
            scopes=(0, 1, 2, ANY_SCOPE),
            count=3,
            max_at=25,
        ).faults
        + (Fault(kind="sever_pipe", scope=ANY_SCOPE, at=4),),
        seed=PLAN_SEED,
    )
    control = sharded_run(None)
    chaotic = sharded_run(plan)
    evidence["sharded"] = {
        "plan": plan.to_dict(),
        "injected": chaotic["injected"],
        "worker_restarts": chaotic["restarts"],
        "checkpoints": chaotic["checkpoints"],
        "checkpoints_before_faults": chaotic["checkpoints_before_faults"],
        "monitors_ok": chaotic["monitors_ok"],
        "control_fingerprint": control["fingerprint"],
        "chaotic_fingerprint": chaotic["fingerprint"],
        "byte_identical": chaotic["fingerprint"] == control["fingerprint"],
    }
    if chaotic["checkpoints_before_faults"] == 0:
        raise SystemExit(
            "sharded chaos: no worker checkpoint before the faults — the "
            "checkpoint resync path never ran"
        )
    if not chaotic["injected"]:
        raise SystemExit("sharded chaos: no fault fired — plan never exercised")
    if not evidence["sharded"]["byte_identical"]:
        raise SystemExit("sharded chaos: fingerprint diverged from fault-free control")
    if not chaotic["monitors_ok"]:
        raise SystemExit("sharded chaos: runtime monitors went red")


def chaos_serving(evidence: dict, state_root: Path) -> None:
    scenario = generate_scenario(
        FAMILY, size=SIZE, seed=0, churn_events=CHURN_EVENTS, churn_restore_delay=1.0
    )
    updates = churn_updates(scenario)
    # both reset phases must fire: a "recv" drop before dispatch, and two
    # "ack" aborts after the apply — the lost-ack case the request-key
    # dedup exists for — plus one torn snapshot write
    plan = FaultPlan(
        faults=(
            Fault(kind="reset_connection", scope=SERVING_SCOPE, at=2, arg="recv"),
            Fault(kind="reset_connection", scope=SERVING_SCOPE, at=4, arg="ack"),
            Fault(kind="reset_connection", scope=SERVING_SCOPE, at=7, arg="ack"),
            Fault(kind="tear_snapshot", scope=SERVING_SCOPE, at=1),
        ),
        seed=PLAN_SEED,
    )
    plan_path = state_root / "serving-plan.json"
    plan.save(plan_path)
    state_dir = state_root / "state"
    config = ServerConfig(
        family=FAMILY,
        size=SIZE,
        state_dir=str(state_dir),
        snapshot_every=3,
        fault_plan=str(plan_path),
    )
    daemon = ServerThread(config)
    acks = []
    try:
        with ServingClient(
            daemon.server.host, daemon.server.port, timeout=60, retries=5
        ) as client:
            for n, update in enumerate(updates):
                acks.append(
                    client.call(
                        update["verb"], update["args"], request_key=f"chaos:{n}"
                    )
                )
            fingerprint = client.query("fingerprint")
            status = client.query("status")
    finally:
        daemon.stop()

    # the fault-free control: the same update stream, applied directly
    control = RouteService(
        ServerConfig(family=FAMILY, size=SIZE, snapshot_every=0)
    )
    try:
        for update in updates:
            control.apply_update(update["verb"], update["args"])
        control_fingerprint = control.engine.trace.fingerprint()
    finally:
        control.close()

    # restart: recovery must shrug off the torn snapshot (full replay)
    reborn = RouteService(
        ServerConfig(
            family=FAMILY, size=SIZE, state_dir=str(state_dir), snapshot_every=3
        )
    )
    try:
        recovered_from = reborn.recovered_from
        recovered_fingerprint = reborn.engine.trace.fingerprint()
    finally:
        reborn.close()

    injector = daemon.service.fault_injector
    evidence["serving"] = {
        "plan": plan.to_dict(),
        "injected": injector.fired() if injector else [],
        "updates": len(updates),
        "acks": len(acks),
        "deduplicated_retries": sum(1 for a in acks if a.get("deduplicated")),
        "final_seq": status["seq"],
        "monitors_ok": status["monitors_ok"],
        "chaotic_fingerprint": fingerprint["fingerprint"],
        "control_fingerprint": control_fingerprint,
        "byte_identical": fingerprint["fingerprint"] == control_fingerprint,
        "recovered_from": recovered_from,
        "recovered_identical": recovered_fingerprint == fingerprint["fingerprint"],
    }
    leg = evidence["serving"]
    if not leg["injected"]:
        raise SystemExit("serving chaos: no fault fired — plan never exercised")
    if leg["deduplicated_retries"] < 1:
        raise SystemExit(
            "serving chaos: no retry was deduplicated — the lost-ack path "
            "never ran"
        )
    if leg["final_seq"] != len(updates):
        raise SystemExit(
            f"serving chaos: {len(updates)} updates yielded seq {leg['final_seq']} "
            "— a retry double-applied or an update was lost"
        )
    if not leg["monitors_ok"]:
        raise SystemExit("serving chaos: runtime monitors went red")
    if not leg["byte_identical"]:
        raise SystemExit("serving chaos: fingerprint diverged from fault-free control")
    if not leg["recovered_identical"]:
        raise SystemExit("serving chaos: post-restart state diverged (torn snapshot?)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts", default="chaos-smoke-out", help="evidence output directory"
    )
    args = parser.parse_args()
    artifacts = Path(args.artifacts)
    evidence: dict = {"plan_seed": PLAN_SEED, "family": FAMILY, "size": SIZE}

    chaos_sharded(evidence)
    with tempfile.TemporaryDirectory() as tmp:
        chaos_serving(evidence, Path(tmp))

    write_evidence(artifacts, evidence)
    print(
        f"chaos smoke OK: {len(evidence['sharded']['injected'])} shard faults and "
        f"{len(evidence['serving']['injected'])} serving faults injected, "
        "monitors green, fingerprints byte-identical to fault-free controls"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
