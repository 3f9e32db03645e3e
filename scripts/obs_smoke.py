#!/usr/bin/env python
"""CI smoke test for the observability subsystem (``repro.obs``).

Checks the one hard promise the subsystem makes — *observation changes
nothing* — and that each pillar actually produces its artifact:

1. **Campaign leg** — run the same small campaign grid twice, plain and
   with ``obs`` + a Chrome trace; require ``results.jsonl`` byte-identical
   across the two, the merged ``metrics.json`` to cover every run — with
   its ``engine.events`` counter equal to the sum of the records'
   ``events`` column, so the weighted seeding event can never drift from
   what the trace reports — and the trace to be a loadable Chrome
   trace-event document (also summarized through the ``fvn-trace`` CLI).
2. **Serving leg** — boot a daemon with ``--trace-out`` over the real
   socket; push an update; resolve a derived ``bestPath`` row to base
   facts through the ``explain`` verb; read the ``metrics`` verb; stop and
   require the daemon's trace file to appear and load.  Then boot a
   2-shard daemon, push the same update, and require its metrics'
   ``engine.rule_firings`` and ``serving.updates`` to equal the 1-shard
   daemon's: a sharded daemon's node counters live on its workers and
   must come home at every settle.

Evidence lands in ``--artifacts``.  Exits non-zero on any failure.  Usage::

    PYTHONPATH=src python scripts/obs_smoke.py --artifacts obs-out
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from _smoke_common import start_daemon, write_evidence  # noqa: F401 (sets sys.path)

from repro.harness.runner import run_campaign  # noqa: E402
from repro.harness.spec import spec_from_mapping  # noqa: E402
from repro.obs.cli import load_trace, summarize_trace  # noqa: E402
from repro.serving import ServingClient  # noqa: E402

FAMILY = "tree"
SIZE = 12

CAMPAIGN = {
    "name": "obs-smoke",
    "families": [FAMILY],
    "sizes": [SIZE],
    "policies": ["none", "shortest_path"],
    "seeds": [0, 1],
    "churn_events": [2],
    "loss": [0.0],
    "until": 15.0,
    # the stale-route reference engine would run under the same registry
    # and add its own events to the counter checked below
    "record_stale_routes": False,
}


def campaign_leg(evidence: dict, artifacts: Path, tmp: Path) -> None:
    plain = run_campaign(spec_from_mapping(dict(CAMPAIGN)), tmp / "plain")
    trace_path = artifacts / "campaign-trace.json"
    observed = run_campaign(
        spec_from_mapping(dict(CAMPAIGN, obs=True)), tmp / "obs", trace_out=trace_path
    )
    plain_bytes = (tmp / "plain" / "results.jsonl").read_bytes()
    obs_bytes = (tmp / "obs" / "results.jsonl").read_bytes()
    metrics = json.loads((tmp / "obs" / "metrics.json").read_text())
    shutil.copy(tmp / "obs" / "metrics.json", artifacts / "metrics.json")
    events = load_trace(trace_path)
    evidence["campaign"] = {
        "runs": len(observed.records),
        "results_identical": plain_bytes == obs_bytes,
        "metrics_runs_covered": metrics["runs_covered"],
        "metric_counters": metrics["metrics"]["counters"],
        "record_events": sum(record.events for record in observed.records),
        "trace_events": len(events),
        "trace_span_names": sorted({e["name"] for e in events}),
        "trace_summary": summarize_trace(events)[:5],
    }
    leg = evidence["campaign"]
    if not leg["results_identical"]:
        raise SystemExit("obs smoke: obs-enabled results.jsonl diverged from plain run")
    if leg["metrics_runs_covered"] != len(plain.records):
        raise SystemExit("obs smoke: metrics.json does not cover every run")
    if leg["metric_counters"].get("engine.events") != leg["record_events"]:
        raise SystemExit(
            f"obs smoke: merged engine.events counter "
            f"{leg['metric_counters'].get('engine.events')} != "
            f"{leg['record_events']} events summed over the records"
        )
    if not leg["trace_events"]:
        raise SystemExit("obs smoke: campaign trace holds no complete-span events")
    if "harness.run" not in leg["trace_span_names"]:
        raise SystemExit("obs smoke: campaign trace is missing harness.run spans")


#: the metric counters a sharded daemon must report as a 1-shard one does
SHARD_INVARIANT_COUNTERS = ("engine.rule_firings", "serving.updates")


def sharded_counters(artifacts: Path, tmp: Path) -> dict:
    """The shard-invariant counters of a 2-shard daemon after the serving
    leg's update."""

    state_dir = tmp / "state-2-shards"
    state_dir.mkdir(parents=True)
    daemon = start_daemon(
        state_dir, artifacts / "daemon-2-shards.log",
        "--family", FAMILY, "--size", str(SIZE), "--shards", "2",
    )
    try:
        with ServingClient.from_state_dir(state_dir, timeout=120) as client:
            client.call("link_fail", {"src": 0, "dst": 1})
            counters = client.call("metrics", {})["metrics"]["counters"]
            client.query("stop")
    finally:
        daemon.wait(timeout=60)
        if daemon.poll() is None:
            daemon.kill()
    return {name: counters.get(name) for name in SHARD_INVARIANT_COUNTERS}


def serving_leg(evidence: dict, artifacts: Path, tmp: Path) -> None:
    state_dir = tmp / "state"
    state_dir.mkdir(parents=True)
    trace_path = artifacts / "serving-trace.json"
    daemon = start_daemon(
        state_dir, artifacts / "daemon.log",
        "--family", FAMILY, "--size", str(SIZE),
        "--trace-out", str(trace_path),
    )
    try:
        with ServingClient.from_state_dir(state_dir, timeout=120) as client:
            ack = client.call("link_fail", {"src": 0, "dst": 1})
            best = client.best_path(0, SIZE - 1)
            explanation = client.call("explain", {"src": 0, "dst": SIZE - 1})
            metrics = client.call("metrics", {})
            client.query("stop")
    finally:
        daemon.wait(timeout=60)
        if daemon.poll() is None:
            daemon.kill()

    def leaves(node: dict) -> list[str]:
        if not node.get("derivations"):
            return [node["kind"]]
        return [
            kind
            for derivation in node["derivations"]
            for child in derivation["body"]
            for kind in leaves(child)
        ]

    dag = explanation["explanation"]
    events = load_trace(trace_path)
    evidence["serving"] = {
        "update_settled": ack["settled"],
        "best_found": best["found"],
        "explain_found": explanation["found"],
        "explain_root": f"{dag['predicate']}{tuple(dag['values'])}",
        "explain_leaf_kinds": sorted(set(leaves(dag))),
        "metric_counters": metrics["metrics"]["counters"],
        "trace_events": len(events),
        "trace_span_names": sorted({e["name"] for e in events}),
        "sharded_counters": sharded_counters(artifacts, tmp),
    }
    leg = evidence["serving"]
    if not (leg["update_settled"] and leg["best_found"] and leg["explain_found"]):
        raise SystemExit(f"obs smoke: serving leg failed to settle/answer: {leg}")
    if leg["explain_leaf_kinds"] != ["base"]:
        raise SystemExit(
            f"obs smoke: explain DAG leaves are {leg['explain_leaf_kinds']}, "
            "expected only base facts"
        )
    if leg["metric_counters"].get("serving.updates", 0) < 1:
        raise SystemExit("obs smoke: metrics verb shows no applied update")
    if "serving.update" not in leg["trace_span_names"]:
        raise SystemExit("obs smoke: daemon trace is missing serving.update spans")
    single = {name: leg["metric_counters"].get(name) for name in SHARD_INVARIANT_COUNTERS}
    if leg["sharded_counters"] != single:
        raise SystemExit(
            f"obs smoke: a 2-shard daemon's counters {leg['sharded_counters']} "
            f"differ from the 1-shard daemon's {single}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts", default="obs-smoke-out", help="evidence output directory"
    )
    args = parser.parse_args()
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    evidence: dict = {"family": FAMILY, "size": SIZE}

    with tempfile.TemporaryDirectory() as tmp:
        campaign_leg(evidence, artifacts, Path(tmp) / "campaign")
        serving_leg(evidence, artifacts, Path(tmp) / "serving")

    write_evidence(artifacts, evidence)
    print(
        f"obs smoke OK: {evidence['campaign']['runs']} runs byte-identical with "
        f"obs on, {evidence['campaign']['trace_events']} campaign spans, "
        f"explain resolved {evidence['serving']['explain_root']} to base facts"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
