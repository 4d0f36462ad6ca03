#!/usr/bin/env python3
"""Run the full evaluation protocol over the shipped instance registry.

Produces two aligned tables per instance — average NSE counts and solution
quality (% cost increase, % time savings) — for the four models: the full
model, most-likely-outcome determinization (mlod), greedy two-outcome
reduction (m02), and the risk-aware 0/1 reduced model (rm01).
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prmplan import run_experiment  # noqa: E402
from prmplan.cli import (  # noqa: E402
    RM01_DEFAULTS,
    _align_columns,
    _at_least_one,
    _make_selector,
    _non_negative,
)
from prmplan.domains import desk_instances, large_instances  # noqa: E402

MODELS = ("full", "mlod", "m02", "rm01")


def evaluate(name, problem, predicate, model_names, trials, seed):
    args = argparse.Namespace(seed=seed, **RM01_DEFAULTS)
    models = [(n, _make_selector(n, problem, predicate, args)) for n in model_names]
    report = run_experiment(problem, models, predicate, trials=trials, seed=seed)
    return [{"instance": name, "states": problem.n_states, **row} for row in report.rows()]


def print_table(title, rows, field):
    print(f"\n== {title} ==")
    table = [["instance", "states", *MODELS]]
    for instance in sorted({r["instance"] for r in rows}):
        mine = {r["model"]: r for r in rows if r["instance"] == instance}
        line = [instance, str(next(iter(mine.values()))["states"])]
        line += [f"{mine[m][field]:.2f}" if m in mine else "-" for m in MODELS]
        table.append(line)
    print("\n".join(_align_columns(table)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_at_least_one, default=100)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument(
        "--skip-large",
        action="store_true",
        help="evaluate only the desk-scale instances (much faster)",
    )
    parser.add_argument("--out", help="also write the aggregate rows as CSV")
    args = parser.parse_args(argv)

    all_rows = []
    for name, problem, predicate in desk_instances():
        print(f"running {name} ({problem.n_states} states)...", flush=True)
        all_rows += evaluate(name, problem, predicate, MODELS, args.trials, args.seed)
    if not args.skip_large:
        for name, problem, predicate in large_instances():
            print(f"running {name} ({problem.n_states} states)...", flush=True)
            all_rows += evaluate(
                name, problem, predicate, ("full", "rm01"), args.trials, args.seed
            )

    for title, field in (
        ("Average negative side effects", "avg_nse"),
        ("% cost increase over optimal", "pct_cost_increase"),
        ("% time savings vs solving the full model", "pct_time_savings"),
    ):
        print_table(title, all_rows, field)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(all_rows[0]))
            writer.writeheader()
            writer.writerows(all_rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
