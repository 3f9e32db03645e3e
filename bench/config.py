"""Constants of the benchmark: paths, calibration reference, workload sizes.

``BENCHMARK.json`` may hold only the contract's keys, so the op counts and
``CALIB_REF_MS`` that ISSUE 12 wanted there live here instead; both are
stamped into every result's provenance.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = REPO_ROOT / "bench" / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

WORKLOADS = ("converge", "sharded", "churn", "serve", "campaign")

#: the reading of ``bench.calib.take_reading`` that counts as reference
#: speed: what the host the sizes below were tuned on read in its quiet
#: minutes (15.0-15.7 ms) at the commit that added bench/
CALIB_REF_MS = 15.0

#: ``--seconds`` at which the sizes below apply; other values scale the
#: amount of work linearly (the work is fixed, never a duration)
REF_SECONDS = 10

#: cold set-ups measured per untraced run of at least ``REF_SECONDS`` (all
#: but the run's own in fresh processes; median reported)
SETUP_REPS = 3

#: a timed section running past ``OVERRUN * --seconds`` of wall time stops at
#: the next op boundary, so a collapsed host cannot push a run past the
#: driver's per-run limit; ``attempted`` then reports the ops really done.
#: The longest section (``sharded``, 14 s at reference speed plus its
#: readings) reaches it on a host 1.9 times slower than the reference
OVERRUN = 3.0

#: work at ``REF_SECONDS``, tuned to 10-14 s of timed calls at reference speed
SIZES = {
    # ops round-robin over SHAPES power_law graphs
    "converge": {"ops": 36, "family": "power_law", "size": 32, "shapes": 6},
    # the identical ops on 2 process shards
    "sharded": {"ops": 36, "family": "power_law", "size": 32, "shapes": 6, "shards": 2},
    # every link of one power_law graph: fail, restore, re-cost, re-cost back
    "churn": {"ops": 232, "family": "power_law", "size": 31, "oracle_every": 30},
    # updates on a tree daemon (3 cycles over its 27 links), `reads` reads after each
    "serve": {"ops": 324, "family": "tree", "size": 28, "reads": 4},
    # rounds of one 24-run campaign on 2 pool workers
    "campaign": {"ops": 216, "runs_per_round": 24, "size": 20, "workers": 2},
}


def scaled_ops(workload: str, seconds: float) -> int:
    """Ops to attempt for ``--seconds``: proportional, at least two."""

    return max(2, round(SIZES[workload]["ops"] * seconds / REF_SECONDS))


def load_declaration() -> dict:
    """``BENCHMARK.json`` as the driver reads it."""

    return json.loads(BENCHMARK_JSON.read_text())
