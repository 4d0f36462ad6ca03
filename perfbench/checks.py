"""Correctness checks the benchmark applies to every `prmplan experiment` run.

Pure functions over parsed report rows, so the tests in this directory can
feed them corrupted reports without running the program.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# trials.csv columns that hold measured times; every other column is a
# deterministic outcome of (instance, models, seed).
TIMING_COLUMNS = ("plan_ms", "replan_ms")


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def trial_failures(
    rows: list[dict[str, str]], models: tuple[str, ...], trials: int
) -> dict[tuple[str, int], str]:
    """Map each failed (model, trial) to the first check it broke.

    Every model x trial needs exactly one row with nse_hits <= replans and
    reached_goal = 1; rows of the full model must also have replans =
    nse_hits = 0. A row for an unexpected model or trial fails under the key
    it names.
    """
    failures: dict[tuple[str, int], str] = {}
    seen: set[tuple[str, int]] = set()
    for row in rows:
        try:
            key = (row["model"], int(row["trial"]))
            replans = int(row["replans"])
            nse_hits = int(row["nse_hits"])
            reached = row["reached_goal"]
        except (KeyError, TypeError, ValueError) as exc:
            failures[(str(row.get("model")), -1)] = f"unparsable row {row}: {exc}"
            continue
        if key in seen:
            reason = "duplicate row"
        elif key[0] not in models or not 0 <= key[1] < trials:
            reason = "unexpected row"
        elif nse_hits > replans:
            reason = f"nse_hits {nse_hits} > replans {replans}"
        elif reached != "1":
            reason = f"reached_goal = {reached}"
        elif key[0] == "full" and (replans or nse_hits):
            reason = f"full model replanned (replans {replans}, nse_hits {nse_hits})"
        else:
            reason = ""
        seen.add(key)
        if reason:
            failures.setdefault(key, reason)
    for model in models:
        for trial in range(trials):
            if (model, trial) not in seen:
                failures[(model, trial)] = "missing row"
    return failures


def outcome_digest(rows: list[dict[str, str]]) -> str:
    """sha256 of every trials.csv cell except the timing columns, in order."""
    h = hashlib.sha256()
    for row in rows:
        cells = [f"{k}={v}" for k, v in row.items() if k not in TIMING_COLUMNS]
        h.update((",".join(cells) + "\n").encode())
    return h.hexdigest()


def bad_names(benchmark: dict) -> list[str]:
    """Workload and metric names in a BENCHMARK.json that break NAME_RE."""
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    return [n for n in names if not NAME_RE.fullmatch(n)]
