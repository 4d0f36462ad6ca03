"""scripts/run_paper_tables.py: a desk-scale smoke run and its flag checks."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--seed", "-1")])
def test_bad_counts_exit_2(flag, value):
    result = run_script(flag, value, "--skip-large")
    assert result.returncode == 2
    assert flag in result.stderr
    assert "Traceback" not in result.stderr
