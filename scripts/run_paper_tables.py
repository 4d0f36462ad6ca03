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

from prmplan import SimConfig, run_experiment  # noqa: E402
from prmplan.cli import (  # noqa: E402
    RM01_DEFAULTS,
    _align_columns,
    _at_least_one,
    _make_selector,
    _non_negative,
)
from prmplan.domains import desk_instances, large_instances  # noqa: E402


def evaluate(name, problem, predicate, model_names, trials, seed, jobs):
    args = argparse.Namespace(seed=seed, **RM01_DEFAULTS)
    models = [(n, _make_selector(n, problem, predicate, args)) for n in model_names]
    report = run_experiment(
        problem,
        models,
        predicate,
        trials=trials,
        seed=seed,
        config=SimConfig(jobs=jobs),
    )
    rows = []
    for result in report.results:
        rows.append(
            {
                "instance": name,
                "states": problem.n_states,
                "model": result.name,
                "avg_nse": result.mean_nse,
                "pct_cost_increase": result.pct_cost_increase(report.optimal_value),
                "pct_time_savings": result.pct_time_savings(report.t_full),
                "goal_trials": result.goal_trials,
            }
        )
    return rows, report


def print_table(title, rows, columns):
    print(f"\n== {title} ==")
    table = [["instance", "states"] + [m for m, _ in columns]]
    instances = sorted({r["instance"] for r in rows})
    for instance in instances:
        mine = {r["model"]: r for r in rows if r["instance"] == instance}
        line = [instance, str(next(iter(mine.values()))["states"])]
        for model, field in columns:
            line.append(f"{mine[model][field]:.2f}" if model in mine else "-")
        table.append(line)
    print("\n".join(_align_columns(table)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_at_least_one, default=100)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--jobs", type=_at_least_one, default=1)
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
        rows, _ = evaluate(
            name, problem, predicate, ("full", "mlod", "m02", "rm01"),
            args.trials, args.seed, args.jobs,
        )
        all_rows += rows
    if not args.skip_large:
        for name, problem, predicate in large_instances():
            print(f"running {name} ({problem.n_states} states)...", flush=True)
            rows, _ = evaluate(
                name, problem, predicate, ("full", "rm01"),
                args.trials, args.seed, args.jobs,
            )
            all_rows += rows

    models = [("full", None), ("mlod", None), ("m02", None), ("rm01", None)]
    print_table(
        "Average negative side effects",
        all_rows,
        [(m, "avg_nse") for m, _ in models],
    )
    print_table(
        "% cost increase over optimal",
        all_rows,
        [(m, "pct_cost_increase") for m, _ in models],
    )
    print_table(
        "% time savings vs solving the full model",
        all_rows,
        [(m, "pct_time_savings") for m, _ in models],
    )

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(all_rows[0]))
            writer.writeheader()
            writer.writerows(all_rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
