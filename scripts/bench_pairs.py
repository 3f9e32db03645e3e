#!/usr/bin/env python
"""Alternating base/change pairs of the repository's benchmark (stdlib only).

    python3 scripts/bench_pairs.py --base <git ref> [--change <git ref>]
        [--workloads converge serve] [--pairs 10] [--seed 0] [--trace]
        [--label NAME]

The *change* is this working tree, or ``--change <ref>``; the *base* is
``<ref>``.  Both sides run in a temporary directory (``$TMPDIR``): a ref
is exported with ``git archive``, and the working tree is copied file by
file (what ``git ls-files --cached --others --exclude-standard`` lists:
tracked and untracked files, not ignored ones).  So both sides are plain
trees in the same place, nothing is added to the repository's ``.git``
and a killed run leaves nothing to prune.  Each
pair runs ``python3 -m bench run <workload>`` once on each tree, in turn,
and the tree that goes first alternates from pair to pair, so a host that
drifts during the pairs drifts against both sides alike.
``__pycache__`` is cleared in both trees before every run: each run
compiles its sources as the first run of a fresh checkout does.

The report gives, per metric, both sides' medians and quartiles, the
change's wins out of the pairs (a win is a pair where the change is better
in the direction ``BENCHMARK.json`` declares), the pairs where both sides
read the same value (a traced pair's ``*_per_op`` counts should) and
whether the median gap exceeds the base's interquartile range.  Everything
(host, both SHAs, the arguments and every raw value, with each run's bench
provenance) is appended as one session to ``BENCH_<label>.json`` in this
tree.  The tool only drives the benchmark; it changes nothing under
``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str, cwd: Path = REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def export_tree(ref: str, dest: Path, root: Path = REPO_ROOT) -> str:
    """``ref``'s committed files under ``dest``; returns its SHA."""

    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=root)
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", f"--output={archive}", sha, cwd=root)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def copy_worktree(dest: Path, root: Path = REPO_ROOT) -> None:
    """The working tree's tracked and untracked files (not ignored ones)
    under ``dest``; a tracked file deleted from the tree is left out."""

    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=root)
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def clear_pycache(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def directions(root: Path) -> dict[str, str]:
    """Metric name → ``"lower"`` or ``"higher"``, from ``BENCHMARK.json``."""

    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["better"]
        for metric in declared["end_to_end"] + declared.get("per_layer", [])
    }


def run_bench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``python3 -m bench run`` in ``tree``: metric values, whether the
    run was correct, the host load before it and the bench's provenance."""

    clear_pycache(tree)
    load = os.getloadavg()[0]
    command = [sys.executable, "-m", "bench", "run", workload, "--seed", str(seed)]
    result = subprocess.run(
        command + (["--trace"] if trace else []),
        cwd=tree, capture_output=True, text=True,
        # bench finds its tree's src/ itself; an inherited PYTHONPATH could
        # hand both sides the same sources
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(
            f"bench run {workload} failed in {tree}:\n{result.stdout}{result.stderr}"
        )
    contract = json.loads(lines[-1])
    detail = tree / "bench" / "out" / f"{workload}.trace{int(trace)}.json"
    provenance = json.loads(detail.read_text()).get("provenance", {}) if detail.is_file() else {}
    return {
        "correct": contract["correct"],
        "failed": contract["failed"],
        "loadavg": load,
        "metrics": {name: metric["value"] for name, metric in contract["metrics"].items()},
        "provenance": provenance,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""

    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric, from ``pairs`` (each ``{"base": run, "change": run}``):
    both sides' quartiles, the change's wins, the pairs that read equal and
    the median gap against the base's interquartile range."""

    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [pair["base"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        higher = better.get(name, "lower") == "higher"
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b1, b_median, b3 = quartiles(base)
        c1, c_median, c3 = quartiles(change)
        summary[name] = {
            "better": "higher" if higher else "lower",
            "base": {"q1": b1, "median": b_median, "q3": b3},
            "change": {"q1": c1, "median": c_median, "q3": c3},
            "wins": wins,
            "equal": sum(b == c for b, c in zip(base, change)),
            "pairs": len(pairs),
            "gap_exceeds_base_iqr": abs(c_median - b_median) > b3 - b1,
        }
    return summary


def report(workload: str, summary: dict[str, dict]) -> list[str]:
    lines = [f"{workload}: base median [q1, q3] -> change median [q1, q3], change wins"]
    for name, row in summary.items():
        base, change = row["base"], row["change"]
        if not any(base.values()) and not any(change.values()):
            continue  # a layer this workload does not exercise reads 0
        gap = ", gap > base IQR" if row["gap_exceeds_base_iqr"] else ""
        equal = f", {row['equal']} equal" if row["equal"] else ""
        lines.append(
            f"  {name:<34} {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}]"
            f" -> {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]"
            f"  {row['wins']}/{row['pairs']} ({row['better']} is better{gap}{equal})"
        )
    return lines


def sides(
    base: str, change: str | None, scratch: Path, root: Path = REPO_ROOT
) -> tuple[dict[str, Path], dict]:
    """The two trees the pairs run in, both under ``scratch``, and the
    session's record of each: the change side is a copy of ``root``'s
    working tree unless ``change`` names a ref."""

    trees = {side: scratch / side for side in SIDES}
    record = {"base": {"ref": base, "sha": export_tree(base, trees["base"], root)}}
    if change is None:
        copy_worktree(trees["change"], root)
        record["change"] = {
            "sha": git("rev-parse", "HEAD", cwd=root),
            "dirty": bool(git("status", "--porcelain", cwd=root)),
        }
    else:
        record["change"] = {
            "ref": change, "sha": export_tree(change, trees["change"], root), "dirty": False
        }
    return trees, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument(
        "--change", help="git ref of the change side (default: this working tree)"
    )
    parser.add_argument("--workloads", nargs="+", default=["converge"])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="run bench with --trace")
    parser.add_argument("--label", help="BENCH_<label>.json (default: the base's short SHA)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees, record = sides(args.base, args.change, Path(scratch))
        better = directions(REPO_ROOT)
        runs: dict[str, list[dict]] = {workload: [] for workload in args.workloads}
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, args.seed, args.trace)
                runs[workload].append(pair)
                print(f"pair {index + 1}/{args.pairs} {workload}: {order[0]} first", flush=True)

    summaries = {workload: summarize(pairs, better) for workload, pairs in runs.items()}
    for workload, summary in summaries.items():
        print("\n".join(report(workload, summary)))
    label = args.label or record["base"]["sha"][:12]
    out = REPO_ROOT / f"BENCH_{label}.json"
    session = {
        **record,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "seed": args.seed,
        "trace": args.trace,
        "pairs": args.pairs,
        "workloads": {
            workload: {"summary": summaries[workload], "runs": runs[workload]}
            for workload in args.workloads
        },
    }
    # one file per label: a later session (another seed, --trace, more
    # workloads) is appended to it
    sessions = json.loads(out.read_text())["sessions"] if out.is_file() else []
    out.write_text(json.dumps({"label": label, "sessions": sessions + [session]}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
