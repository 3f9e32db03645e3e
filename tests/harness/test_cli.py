"""CLI coverage: run/report/diff subcommands, --help, console script."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from repro.harness.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_spec(tmp_path, **overrides) -> Path:
    spec = {
        "name": "cli-test",
        "families": ["tree"],
        "sizes": [10],
        "policies": ["shortest_path"],
        "seeds": [0, 1],
        "until": 10.0,
        "max_events": 50000,
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestSubcommands:
    def test_run_then_report_then_diff(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out_a = tmp_path / "a"
        assert main(["run", str(spec), "--out", str(out_a), "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "campaign cli-test: 2 runs, 2 quiescent" in output
        assert "0 violations" in output

        assert main(["report", str(out_a)]) == 0
        assert "tree-10-shortest_path" in capsys.readouterr().out

        out_b = tmp_path / "b"
        assert main(["run", str(spec), "--out", str(out_b), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["diff", str(out_a), str(out_b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_detects_tampering(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(spec), "--out", str(out_a), "--quiet"])
        main(["run", str(spec), "--out", str(out_b), "--quiet"])
        results = out_b / "results.jsonl"
        lines = results.read_text().splitlines()
        tampered = json.loads(lines[0])
        tampered["messages"] += 1
        lines[0] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
        results.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diff", str(out_a), str(out_b)]) == 1
        assert "messages" in capsys.readouterr().out

    def test_fail_on_violations_exits_2(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            policies=["none"],
            churn_events=[2],
            churn_restore_delay=None,
            # lost retract messages leave hard-state routes through dead links
            loss=[0.3],
        )
        code = main(
            ["run", str(spec), "--out", str(tmp_path / "out"), "--quiet",
             "--fail-on-violations"]
        )
        assert code == 2
        assert "invariant violations" in capsys.readouterr().err

    def test_progress_lines_shown_by_default(self, tmp_path, capsys):
        spec = write_spec(tmp_path, seeds=[0])
        main(["run", str(spec), "--out", str(tmp_path / "out")])
        assert "[1/1]" in capsys.readouterr().out

    def test_bad_spec_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('name = "x"\nfamilies = ["moebius"]\n')
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "unknown scenario family" in capsys.readouterr().err

    def test_report_on_missing_dir_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "not a campaign directory" in capsys.readouterr().err


class TestEntryPoints:
    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
    def test_module_help(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "fvn-campaign" in proc.stdout
        if args == ["--help"]:
            for sub in ("run", "report", "diff"):
                assert sub in proc.stdout

    def test_inprocess_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "campaign" in capsys.readouterr().out

    def test_console_script_declared_and_importable(self):
        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        target = pyproject["project"]["scripts"]["fvn-campaign"]
        module_name, func_name = target.split(":")
        module = __import__(module_name, fromlist=[func_name])
        assert callable(getattr(module, func_name))
