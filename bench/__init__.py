"""The repository's benchmark: five fixed-work workloads measured from outside.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
is the contract form declared in ``BENCHMARK.json``;
``python3 -m bench run|repeat|check`` are the human-facing commands.  See
``bench/README.md`` for the metric and workload definitions.

Nothing here is imported by ``src/repro``: layers are timed through their
public functions and counters only.
"""
