"""The ``fvn-serve`` command-line interface.

::

    fvn-serve serve --state-dir /tmp/rs --family tree --size 24 --port 0
    fvn-serve update link_fail --state-dir /tmp/rs --src 0 --dst 1
    fvn-serve query best_path --state-dir /tmp/rs --src 0 --dst 5
    fvn-serve query stop --state-dir /tmp/rs

(equivalently ``python -m repro.serving ...``).  ``serve`` boots — or,
when the state directory already holds a ledger/snapshot, *recovers* — a
routing daemon and blocks until a ``stop`` request.  ``update`` and
``query`` are one-shot clients: they find the daemon via
``state_dir/server.json`` (or ``--host``/``--port``), send one verb, and
print the JSON response.  Every flag is documented in ``docs/CONFIG.md``
and every verb in ``docs/SERVING.md``; ``scripts/check_docs.py`` enforces
both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .protocol import QUERY_VERBS, UPDATE_VERBS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvn-serve",
        description=(
            "Routing-as-a-service for the FVN reproduction: a persistent "
            "NDlog engine daemon answering route queries under live "
            "topology/policy updates, with ledger+snapshot crash recovery."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="boot (or recover) a routing daemon")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free port)"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="durability directory (ledger, snapshots, server.json); "
        "omit to run in memory with no crash recovery",
    )
    serve.add_argument("--family", default="tree", help="scenario topology family")
    serve.add_argument("--size", type=int, default=24, help="scenario node count")
    serve.add_argument(
        "--topo-seed", type=int, default=0, help="scenario/topology seed"
    )
    serve.add_argument(
        "--policy", default=None, help="AS-policy kind (default: plain path-vector)"
    )
    serve.add_argument(
        "--loss", type=float, default=0.0, help="per-message loss probability"
    )
    serve.add_argument("--seed", type=int, default=0, help="engine channel seed")
    serve.add_argument(
        "--shards", type=int, default=1, help="shard worker processes (1 = none)"
    )
    serve.add_argument(
        "--partition", default="hash", help="node partition strategy (hash|metis-lite)"
    )
    serve.add_argument(
        "--refresh-interval",
        type=float,
        default=None,
        help="periodic soft-state refresh interval (default: disabled)",
    )
    serve.add_argument(
        "--soft-state",
        default=None,
        help="soft-state lifetime overrides, e.g. 'link=5,bestPath=10'",
    )
    serve.add_argument(
        "--monitors",
        default=None,
        help="comma-separated runtime monitor kinds (default: "
        "route_validity,best_agreement,cycle_freedom)",
    )
    serve.add_argument(
        "--sim-step",
        type=float,
        default=0.05,
        help="simulation-time gap before each applied update",
    )
    serve.add_argument(
        "--settle-max-events",
        type=int,
        default=200_000,
        help="event budget per settle",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=50,
        help="snapshot cadence in applied updates (0 disables)",
    )
    serve.add_argument(
        "--dedup-cache",
        type=int,
        default=1024,
        help="request-key acks remembered for exactly-once retry dedup",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault-plan file injected for chaos testing (docs/FAULTS.md)",
    )
    serve.add_argument(
        "--allow-unsafe",
        action="store_true",
        help="boot even if static analysis finds errors (docs/ANALYSIS.md)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace-event JSON of daemon spans here on shutdown",
    )

    for name, verbs in (("update", UPDATE_VERBS), ("query", QUERY_VERBS)):
        client_parser = sub.add_parser(
            name, help=f"send one {name} verb to a running daemon"
        )
        client_parser.add_argument("verb", choices=verbs)
        client_parser.add_argument(
            "--state-dir",
            default=None,
            help="locate the daemon via state_dir/server.json",
        )
        client_parser.add_argument("--host", default=None, help="daemon host")
        client_parser.add_argument("--port", type=int, default=None, help="daemon port")
        client_parser.add_argument(
            "--timeout", type=float, default=30.0, help="socket timeout seconds"
        )
        client_parser.add_argument(
            "--retries",
            type=int,
            default=0,
            help="reconnect-and-retry attempts for safe requests",
        )
        if name == "update":
            client_parser.add_argument(
                "--key",
                default=None,
                help="request key for exactly-once retry dedup (docs/FAULTS.md)",
            )
        client_parser.add_argument("--src", default=None, help="source node")
        client_parser.add_argument("--dst", default=None, help="destination node")
        client_parser.add_argument(
            "--cost", type=float, default=None, help="new cost (cost_change)"
        )
        client_parser.add_argument(
            "--predicate", default=None, help="predicate (set_fact/del_fact/table)"
        )
        client_parser.add_argument(
            "--values",
            default=None,
            help="JSON fact values, e.g. '[0, 1, 2.5]' (set_fact/del_fact)",
        )
        client_parser.add_argument(
            "--node", default=None, help="restrict to one node (routes/table)"
        )
        client_parser.add_argument(
            "--args",
            default=None,
            help="raw JSON args object (overrides the convenience flags)",
        )
    return parser


def _node_id(text: str):
    """Node ids are ints in generated scenarios but may be strings."""

    try:
        return int(text)
    except ValueError:
        return text


def _serve(args: argparse.Namespace) -> int:
    # the daemon stack loads here only: ``update`` and ``query`` run the client
    from .config import ServerConfig
    from .server import run_server

    soft_state = {}
    if args.soft_state:
        for item in args.soft_state.split(","):
            predicate, _, lifetime = item.partition("=")
            soft_state[predicate.strip()] = float(lifetime)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        family=args.family,
        size=args.size,
        topo_seed=args.topo_seed,
        policy=args.policy,
        loss=args.loss,
        seed=args.seed,
        shards=args.shards,
        partition=args.partition,
        refresh_interval=args.refresh_interval,
        soft_state=soft_state,
        sim_step=args.sim_step,
        settle_max_events=args.settle_max_events,
        snapshot_every=args.snapshot_every,
        dedup_cache=args.dedup_cache,
        fault_plan=args.fault_plan,
        allow_unsafe=args.allow_unsafe,
        trace_out=args.trace_out,
    )
    if args.monitors is not None:
        config.monitors = tuple(
            kind.strip() for kind in args.monitors.split(",") if kind.strip()
        )
    server = run_server(config)
    print(
        f"stopped after {server.requests['updates']} updates, "
        f"{server.requests['queries']} queries, "
        f"{server.requests['errors']} errors",
        flush=True,
    )
    return 0


def _client_args(args: argparse.Namespace) -> dict:
    from .client import ServingError

    if args.args is not None:
        parsed = json.loads(args.args)
        if not isinstance(parsed, dict):
            raise ServingError("--args must be a JSON object")
        return parsed
    out: dict = {}
    if args.src is not None:
        out["src"] = _node_id(args.src)
    if args.dst is not None:
        out["dst"] = _node_id(args.dst)
    if args.cost is not None:
        out["cost"] = args.cost
    if args.predicate is not None:
        out["predicate"] = args.predicate
    if args.values is not None:
        out["values"] = json.loads(args.values)
    if args.node is not None:
        out["node"] = _node_id(args.node)
    return out


def _send(args: argparse.Namespace) -> int:
    # the client loads here only, as the daemon stack does in ``serve``
    from .client import ServingClient, ServingError, read_server_info

    try:
        host, port = args.host, args.port
        if host is None or port is None:
            if args.state_dir is None:
                raise ServingError("need --state-dir or --host/--port to find the daemon")
            info = read_server_info(args.state_dir)
            host = host if host is not None else info["host"]
            port = port if port is not None else info["port"]
        request_key = getattr(args, "key", None)
        with ServingClient(host, port, timeout=args.timeout, retries=args.retries) as client:
            if args.verb in UPDATE_VERBS:
                # client.update auto-keys when retrying, so `update --retries N`
                # without an explicit --key is still exactly-once
                result = client.update(
                    args.verb, request_key=request_key, **_client_args(args)
                )
            else:
                result = client.call(args.verb, _client_args(args))
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _serve(args)
        return _send(args)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # downstream pipe (e.g. `| head`) closed early; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
