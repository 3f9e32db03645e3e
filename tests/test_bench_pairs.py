"""The paired-evidence tool's arithmetic (``scripts/bench_pairs.py``) on
synthetic runs: quartiles, wins in the declared direction, equal pairs and
the median gap against the base's interquartile range; and which trees a
session's two sides run in.  No benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(**series):
    """``name=(base values, change values)`` → the tool's pair records."""

    count = len(next(iter(series.values()))[0])
    return [
        {
            side: {"metrics": {name: sides[position][index] for name, sides in series.items()}}
            for position, side in enumerate(("base", "change"))
        }
        for index in range(count)
    ]


def test_quartiles(tool):
    assert tool.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([10.0, 1.0, 4.0, 7.0]) == (3.25, 5.5, 7.75)


def test_wins_follow_the_declared_direction(tool):
    pairs = pairs_of(
        peak_rss_mb=([49.0, 50.0, 48.0, 49.5], [36.0, 35.5, 49.0, 36.0]),
        ops_per_s=([10.0, 11.0, 12.0, 13.0], [11.0, 10.0, 12.0, 14.0]),
    )
    summary = tool.summarize(pairs, {"peak_rss_mb": "lower", "ops_per_s": "higher"})
    rss = summary["peak_rss_mb"]
    assert rss["wins"] == 3 and rss["pairs"] == 4 and rss["equal"] == 0
    assert rss["base"] == {"q1": 48.75, "median": 49.25, "q3": 49.625}
    assert rss["change"]["median"] == 36.0
    assert rss["gap_exceeds_base_iqr"]
    ops = summary["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["wins"] == 2 and ops["equal"] == 1
    # medians 11.5 -> 11.5: no gap, whatever the spread
    assert not ops["gap_exceeds_base_iqr"]


def test_a_gap_inside_the_base_spread_is_not_enough(tool):
    pairs = pairs_of(op_ms_p50=([70.0, 90.0, 80.0, 100.0, 60.0], [75.0, 85.0, 70.0, 95.0, 65.0]))
    row = tool.summarize(pairs, {})["op_ms_p50"]
    assert row["better"] == "lower"  # undeclared metrics read lower-is-better
    assert row["wins"] == 3
    assert row["base"]["q3"] - row["base"]["q1"] == 20.0
    assert row["change"]["median"] == 75.0
    assert not row["gap_exceeds_base_iqr"]


def test_identical_counts_and_the_report(tool):
    pairs = pairs_of(**{"engine.events_per_op": ([812.5, 812.5, 812.5], [812.5, 812.5, 812.5])})
    summary = tool.summarize(pairs, tool.directions(REPO_ROOT))
    row = summary["engine.events_per_op"]
    assert row["equal"] == 3 and row["wins"] == 0 and not row["gap_exceeds_base_iqr"]
    lines = tool.report("converge", summary)
    assert lines[0].startswith("converge:")
    expected = "812.5 [812.5, 812.5] -> 812.5 [812.5, 812.5]  0/3 (lower is better, 3 equal)"
    assert expected in lines[1]
    # a metric that reads 0 on both sides is a layer the workload skips
    unexercised = tool.summarize(pairs_of(**{"shard.edge_cut": ([0, 0], [0, 0])}), {})
    assert tool.report("converge", unexercised) == lines[:1]


def test_directions_come_from_the_benchmark_declaration(tool):
    better = tool.directions(REPO_ROOT)
    assert better["peak_rss_mb"] == "lower"
    assert better["ops_per_s"] == "higher"
    assert better["executor.delta_batch_p50"] == "higher"


def test_the_change_side_is_the_tree_or_a_ref(tool, tmp_path):
    # a throwaway repository: the test needs no .git of its own checkout
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "bench" / "__main__.py").write_text("committed\n")
    (repo / "BENCHMARK.json").write_text("{}\n")
    (repo / ".gitignore").write_text("out/\n")
    tool.git("init", "-q", cwd=repo)
    tool.git("add", "-A", cwd=repo)
    tool.git(
        "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
        "-c", "commit.gpgsign=false", "commit", "-q", "-m", "base", cwd=repo,
    )
    head = tool.git("rev-parse", "HEAD", cwd=repo)
    # the working tree: an edited file, an untracked one and an ignored one
    (repo / "bench" / "__main__.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "run.json").write_text("ignored\n")
    (tmp_path / "tree").mkdir()
    (tmp_path / "refs").mkdir()

    trees, record = tool.sides("HEAD", None, tmp_path / "tree", repo)
    assert trees == {"base": tmp_path / "tree" / "base", "change": tmp_path / "tree" / "change"}
    assert (trees["base"] / "bench" / "__main__.py").read_text() == "committed\n"
    assert not (trees["base"] / "new.py").exists()
    # the change side is a copy of the tree's files, not the tree itself
    assert (trees["change"] / "bench" / "__main__.py").read_text() == "edited\n"
    assert (trees["change"] / "new.py").read_text() == "untracked\n"
    assert (trees["change"] / "BENCHMARK.json").is_file()
    assert not (trees["change"] / "out").exists()
    assert not (trees["change"] / ".git").exists()
    assert record == {
        "base": {"ref": "HEAD", "sha": head},
        "change": {"sha": head, "dirty": True},
    }
    # --change <ref>: both sides are exported commits, neither is dirty
    trees, record = tool.sides("HEAD", "HEAD", tmp_path / "refs", repo)
    assert trees["change"] == tmp_path / "refs" / "change"
    assert (trees["change"] / "bench" / "__main__.py").read_text() == "committed\n"
    assert record == {
        "base": {"ref": "HEAD", "sha": head},
        "change": {"ref": "HEAD", "sha": head, "dirty": False},
    }
