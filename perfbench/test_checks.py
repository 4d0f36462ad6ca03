"""Tests of the benchmark's own checks.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """A real trials.csv from a small full + mlod experiment."""
    out = tmp_path_factory.mktemp("reports")
    cmd = [
        sys.executable, "-m", "prmplan.cli", "experiment", "--domain", "racetrack",
        "--instance", "ring-3", "--models", "full,mlod", "--trials", "4", "--seed", "1",
        "--out", str(out),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    return checks.read_rows(out / "trials.csv")


def test_clean_report_passes(report):
    assert len(report) == 8
    assert set(checks.TIMING_COLUMNS) <= set(report[0])
    assert checks.trial_failures(report, ("full", "mlod"), 4) == {}


def test_missing_row_is_caught(report):
    rows = [r for r in report if not (r["model"] == "mlod" and r["trial"] == "2")]
    assert checks.trial_failures(rows, ("full", "mlod"), 4) == {("mlod", 2): "missing row"}


def test_full_row_with_replan_is_caught(report):
    rows = [dict(r) for r in report]
    rows[1]["replans"] = "1"
    failures = checks.trial_failures(rows, ("full", "mlod"), 4)
    assert list(failures) == [("full", 1)]
    assert "full model replanned" in failures[("full", 1)]


@pytest.mark.parametrize(
    "field, value, reason",
    [("nse_hits", "99", "nse_hits 99 > replans"), ("reached_goal", "0", "reached_goal = 0")],
)
def test_broken_row_is_caught(report, field, value, reason):
    rows = [dict(r) for r in report]
    rows[5][field] = value
    failures = checks.trial_failures(rows, ("full", "mlod"), 4)
    assert list(failures) == [("mlod", 1)]
    assert failures[("mlod", 1)].startswith(reason)


def test_duplicate_and_unexpected_rows_are_caught(report):
    extra = dict(report[0], model="m02")
    failures = checks.trial_failures([*report, report[0], extra], ("full", "mlod"), 4)
    assert failures == {("full", 0): "duplicate row", ("m02", 0): "unexpected row"}


def test_digest_ignores_timing_columns_only(report):
    digest = checks.outcome_digest(report)
    retimed = [dict(r, plan_ms="1.0", replan_ms="2.0") for r in report]
    assert checks.outcome_digest(retimed) == digest
    recosted = [dict(r) for r in report]
    recosted[0]["cost"] = "0"
    assert checks.outcome_digest(recosted) != digest


def test_benchmark_names_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert checks.bad_names(spec) == []
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert checks.bad_names({"workloads": [{"name": "a b"}], "end_to_end": [], "per_layer": []})


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ev-risk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a prmplan source checkout" in proc.stderr


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "trace.json"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", str(out),
        "experiment", "--domain", "racetrack", "--instance", "ring-3",
        "--models", "full,rm01", "--trials", "3", "--seed", "1",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    trace = json.loads(out.read_text())
    assert trace["problems"] == [] and trace["failed_trials"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(trace["metrics"]) | {"trace.wall_s", "trace.overhead_pct"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    assert trace["metrics"]["simulator.replans.full"] == 0
    assert trace["metrics"]["risk.walks"] > 0
