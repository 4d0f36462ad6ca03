"""Command-line front end: solve instances and run reduced-model experiments.

Two subcommands: `solve` computes a policy for one model on one instance
(optionally cross-checking LAO* against the value iteration oracle), and
`experiment` runs the full multi-model evaluation protocol and writes
per-trial and aggregate reports.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .reduction import (
    FULL_MODEL,
    M02,
    MOST_LIKELY,
    ModelSelector,
    UniformSelector,
    ZeroOneSelector,
    build_reduced_model,
)
from .risk import RiskProfile
from .simulator import SimConfig, run_experiment
from .solvers import (
    NonconvergenceError,
    SolverConfig,
    proper_hmin,
    solve_lao_star,
    solve_value_iteration,
)

MODEL_NAMES = ("full", "mlod", "m02", "rm01")

# rm01's risk-estimation settings and threshold where no flag overrides them.
RM01_DEFAULTS = {"threshold": 0.25, "samples": 30, "depth": 4}

TRIAL_FIELDS = (
    "model",
    "trial",
    "seed",
    "cost",
    "steps",
    "replans",
    "nse_hits",
    "reached_goal",
    "plan_ms",
    "replan_ms",
)

AGGREGATE_FIELDS = (
    "model",
    "avg_nse",
    "mean_cost",
    "pct_cost_increase",
    "pct_time_savings",
    "goal_trials",
)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--domain",
        required=True,
        choices=("racetrack", "sailing", "ev"),
        help="benchmark domain",
    )
    sub.add_argument(
        "--instance",
        required=True,
        help="instance name (builtin) or path to a map/scenario file",
    )
    sub.add_argument("--epsilon", type=_positive, default=1e-3, help="solver residual bound")
    sub.add_argument(
        "--threshold",
        type=_probability,
        default=RM01_DEFAULTS["threshold"],
        help="risk reachability threshold for the rm01 selector",
    )
    sub.add_argument(
        "--samples",
        type=_at_least_one,
        default=RM01_DEFAULTS["samples"],
        help="random walks per state (rm01)",
    )
    sub.add_argument(
        "--depth",
        type=_at_least_one,
        default=RM01_DEFAULTS["depth"],
        help="random walk depth (rm01)",
    )
    sub.add_argument("--seed", type=_non_negative, default=0, help="master random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prmplan",
        description="SSP planning with portfolios of reduced models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve one model on one instance")
    _add_instance_args(solve)
    solve.add_argument(
        "--model",
        default="full",
        choices=MODEL_NAMES,
        help="which model to solve",
    )
    solve.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check LAO* against full-sweep value iteration",
    )
    solve.add_argument("--out", help="write the policy as 'state action' lines")

    experiment = subs.add_parser(
        "experiment", help="run the multi-model evaluation protocol"
    )
    _add_instance_args(experiment)
    experiment.add_argument(
        "--models",
        default="full,mlod,m02,rm01",
        help="comma-separated model names (full, mlod, m02, rm01)",
    )
    experiment.add_argument(
        "--trials", type=_at_least_one, default=100, help="trials per model"
    )
    experiment.add_argument(
        "--jobs", type=_at_least_one, default=1, help="concurrent trial runners"
    )
    experiment.add_argument(
        "--out", default="results", help="output directory for report files"
    )
    return parser


def _make_selector(name: str, problem, predicate, args) -> ModelSelector:
    if name == "full":
        return UniformSelector(FULL_MODEL)
    if name == "mlod":
        return UniformSelector(MOST_LIKELY)
    if name == "m02":
        return UniformSelector(M02)
    if name == "rm01":
        profile = RiskProfile(
            problem, predicate, samples=args.samples, depth=args.depth, seed=args.seed
        )
        return ZeroOneSelector(profile, args.threshold)
    raise ValueError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")


def cmd_solve(args) -> int:
    from .domains import build_instance

    problem, predicate = build_instance(args.domain, args.instance, seed=args.seed)
    selector = _make_selector(args.model, problem, predicate, args)
    reduced = build_reduced_model(problem, selector, name=args.model)
    config = SolverConfig(epsilon=args.epsilon, heuristic=proper_hmin(problem))
    solution = solve_lao_star(reduced, problem.start, config)
    print(f"instance   {problem.name} ({problem.n_states} states)")
    print(f"model      {args.model}")
    print(f"V(s0)      {solution.start_value:.6f}")
    print(f"converged  {'yes' if solution.converged else 'no'}")
    print(f"expanded   {solution.expanded_states}")
    print(f"backups    {solution.backups}")
    print(f"solve_time {solution.solve_time:.3f}s")
    if args.oracle:
        proper_hmin(reduced)  # VI would sweep an improper reduction to its budget
        oracle = solve_value_iteration(reduced, SolverConfig(epsilon=args.epsilon))
        gap = abs(solution.start_value - oracle.start_value)
        print(f"oracle     VI V(s0) {oracle.start_value:.6f}  |gap| {gap:.2e}")
        if gap > 2 * args.epsilon:
            print("oracle     DISAGREEMENT beyond 2*epsilon", file=sys.stderr)
            return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                for s in sorted(solution.policy):
                    fh.write(f"{s} {solution.policy[s]}\n")
        except OSError as exc:
            return _cannot_write(Path(args.out), exc)
        print(f"policy     written to {args.out}")
    return 0


def _align_columns(cells: list[list[str]]) -> list[str]:
    """Left-aligned columns two spaces apart, the header row underlined."""
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _format_table(rows: list[dict], optimal: float, t_full: float) -> str:
    cells = [["model", "avg NSE", "% cost increase", "% time savings"]]
    for row in rows:
        cells.append(
            [
                row["model"],
                f"{row['avg_nse']:.2f}",
                f"{row['pct_cost_increase']:.2f}",
                f"{row['pct_time_savings']:.2f}",
            ]
        )
    lines = [
        f"optimal cost V*(s0) = {optimal:.4f}; full-model solve time = {t_full:.3f}s",
        *_align_columns(cells),
    ]
    return "\n".join(lines) + "\n"


def cmd_experiment(args) -> int:
    from .domains import build_instance

    names = [n.strip() for n in args.models.split(",") if n.strip()]
    unknown = [n for n in names if n not in MODEL_NAMES]
    repeated = sorted({n for n in names if names.count(n) > 1})
    for bad, what in ((unknown, "unknown"), (repeated, "repeated")):
        if bad:
            print(f"error: --models: {what} model(s) {', '.join(bad)}", file=sys.stderr)
            return 2
    if not names:
        print("error: --models names no model", file=sys.stderr)
        return 2
    # An unusable --out fails here, before anything is built or solved.
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(out, exc)
    problem, predicate = build_instance(args.domain, args.instance, seed=args.seed)
    models = [(n, _make_selector(n, problem, predicate, args)) for n in names]
    config = SimConfig(epsilon=args.epsilon, jobs=args.jobs)
    report = run_experiment(
        problem, models, predicate, trials=args.trials, seed=args.seed, config=config
    )

    try:
        with open(out / "trials.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TRIAL_FIELDS)
            writer.writeheader()
            for result in report.results:
                if result.failed:
                    print(f"model {result.name} failed: {result.failure}", file=sys.stderr)
                for i, t in enumerate(result.trials):
                    if t.failure:
                        print(f"model {result.name} trial {i} failed: {t.failure}", file=sys.stderr)
                    writer.writerow(
                        {
                            "model": result.name,
                            "trial": i,
                            "seed": t.seed,
                            "cost": f"{t.total_cost:.9g}",
                            "steps": t.steps,
                            "replans": t.replans,
                            "nse_hits": t.nse_hits,
                            "reached_goal": int(t.reached_goal),
                            "plan_ms": f"{1000 * t.plan_time:.3f}",
                            "replan_ms": f"{1000 * t.replan_time:.3f}",
                        }
                    )
        rows = report.rows()
        with open(out / "aggregate.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=AGGREGATE_FIELDS)
            writer.writeheader()
            writer.writerows(
                {k: f"{v:.9g}" if isinstance(v, float) else v for k, v in row.items()}
                for row in rows
            )
        table = _format_table(rows, report.optimal_value, report.t_full)
        (out / "table.txt").write_text(table)
    except OSError as exc:
        return _cannot_write(out, exc)
    print(table, end="")
    return 0


def _cannot_write(out: Path, exc: OSError) -> int:
    print(f"error: cannot write reports to {out}: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_experiment(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
