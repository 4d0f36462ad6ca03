"""scripts/run_paper_tables.py: a desk-scale smoke run and its flag checks."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from prmplan import ExperimentReport
from prmplan.cli import build_parser

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_paper_tables.py"


def run_script(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=600
    )


def test_desk_tables_smoke(tmp_path):
    out = tmp_path / "tables.csv"
    result = run_script("--trials", "1", "--skip-large", "--out", str(out))
    assert result.returncode == 0, result.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # Six desk instances, four models each.
    assert len(rows) == 24
    assert len({r["instance"] for r in rows}) == 6
    assert {r["model"] for r in rows} == {"full", "mlod", "m02", "rm01"}
    assert all(r["goal_trials"] == "1" for r in rows)


def test_unwritable_out_fails_before_any_instance_runs(tmp_path):
    out = tmp_path / "missing" / "tables.csv"
    result = run_script("--trials", "1", "--skip-large", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert result.stderr.count("\n") == 1
    assert "running" not in result.stdout
    assert not out.parent.exists()


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--seed", "-1")])
def test_bad_counts_exit_2(flag, value):
    result = run_script(flag, value, "--skip-large")
    assert result.returncode == 2
    assert flag in result.stderr
    assert "Traceback" not in result.stderr


def test_rm01_uses_the_cli_defaults(monkeypatch, risky_fork):
    spec = importlib.util.spec_from_file_location("run_paper_tables", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen = {}

    def fake_run_experiment(problem, models, predicate, **kwargs):
        seen.update(models)
        return ExperimentReport([], 0.0, 0.0)

    monkeypatch.setattr(script, "run_experiment", fake_run_experiment)
    problem, predicate = risky_fork
    script.evaluate("fork", problem, predicate, ("rm01",), trials=1, seed=5)
    selector = seen["rm01"]
    args = build_parser().parse_args(
        ["experiment", "--domain", "racetrack", "--instance", "ring-3"]
    )
    profile = selector.risk_profile
    assert (profile.samples, profile.depth, profile.seed) == (args.samples, args.depth, 5)
    assert selector.threshold == args.threshold
