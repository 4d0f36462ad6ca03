"""Plan-execute-replan simulation over the true model.

Policies are computed on a reduced model and executed against the base
model's real outcome distributions. Whenever the current state has no
policy action the agent replans on the same reduced model from that state;
replanning in a risky state counts as a negative side effect.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .mdp import SspProblem
from .reduction import FULL_MODEL, ModelSelector, ReducedModel, UniformSelector
from .risk import RiskPredicate
from .solvers import Solution, SolverConfig, proper_hmin, solve_lao_star, solve_value_iteration


@dataclass
class SimConfig:
    epsilon: float = 1e-3
    jobs: int = 1

    def solver_config(self, heuristic=None) -> SolverConfig:
        return SolverConfig(epsilon=self.epsilon, heuristic=heuristic)


@dataclass
class TrialStats:
    total_cost: float = 0.0
    steps: int = 0
    replans: int = 0
    nse_hits: int = 0
    reached_goal: bool = False
    plan_time: float = 0.0
    replan_time: float = 0.0
    seed: int = 0
    failure: str = ""


@dataclass
class ModelResult:
    """Aggregates over the trials of one named reduced model. The means
    cover only the trials that did not fail, and are nan when none did."""

    name: str
    trials: list[TrialStats] = field(default_factory=list)
    failed: bool = False
    failure: str = ""

    def _mean(self, stat: Callable[[TrialStats], float]) -> float:
        done = [stat(t) for t in self.trials if not t.failure]
        return float(np.mean(done)) if done else math.nan

    @property
    def mean_nse(self) -> float:
        return self._mean(lambda t: t.nse_hits)

    @property
    def mean_cost(self) -> float:
        return self._mean(lambda t: t.total_cost)

    @property
    def mean_time(self) -> float:
        return self._mean(lambda t: t.plan_time + t.replan_time)

    @property
    def goal_trials(self) -> int:
        return sum(1 for t in self.trials if t.reached_goal)

    def pct_cost_increase(self, optimal: float) -> float:
        """nan when V*(s0) = 0 (the start is a goal)."""
        if optimal == 0:
            return math.nan
        return 100.0 * (self.mean_cost - optimal) / optimal

    def pct_time_savings(self, t_full: float) -> float:
        """nan when the full-model solve time is 0."""
        if t_full == 0:
            return math.nan
        return 100.0 * (t_full - self.mean_time) / t_full


@dataclass
class ExperimentReport:
    """run_experiment's per-model results, V*(s0) and full-model solve time."""

    results: list[ModelResult]
    optimal_value: float
    t_full: float

    def rows(self) -> list[dict]:
        """One row per model that did not fail, keyed as cli.AGGREGATE_FIELDS.
        Both % columns are nan when V*(s0) = 0: the start is a goal, and the
        times of its empty plans compare nothing."""
        return [
            {
                "model": r.name,
                "avg_nse": r.mean_nse,
                "mean_cost": r.mean_cost,
                "pct_cost_increase": r.pct_cost_increase(self.optimal_value),
                "pct_time_savings": r.pct_time_savings(self.t_full)
                if self.optimal_value
                else math.nan,
                "goal_trials": r.goal_trials,
            }
            for r in self.results
            if not r.failed
        ]


# Only perfbench's traced replay (perfbench/child.py) still imports this
# name; ROADMAP item 1 deletes it.
_solve_reduced = solve_lao_star


def run_trial(
    base: SspProblem,
    reduced: ReducedModel,
    predicate: RiskPredicate,
    config: SimConfig | None = None,
    seed: int = 0,
    initial: Solution | None = None,
    heuristic: Callable[[int], float] | None = None,
) -> TrialStats:
    """One planning-and-execution trial of the reduced model on the base.

    `initial` may carry a precomputed solve of the reduced model from s0
    (its solve_time is charged as the trial's plan time, and each replan's
    as replan time); replanning keeps the trial's own value dict warm
    across re-solves. Every plan is LAO*'s best greedy policy, converged or
    not: the true model supplies the stochasticity an improper reduction
    lacks. The trial also keeps its own set of solved states: the states of
    `initial`'s policy when it converged, joined by the policy of each
    replan that converged, so a replan stops at states that the initial plan
    or an earlier replan has already solved.
    The trial stops after 10 x base.n_states steps.
    """
    config = config or SimConfig()
    solver_cfg = config.solver_config(heuristic)
    cap = 10 * base.n_states
    rng = np.random.default_rng(seed)
    stats = TrialStats(seed=seed)

    if initial is None:
        initial = solve_lao_star(reduced, config=solver_cfg)
    stats.plan_time = initial.solve_time
    policy = dict(initial.policy)
    values = initial.values.copy()
    solved = set(initial.policy) if initial.converged else set()

    s = base.start
    while stats.steps < cap:
        if base.is_goal(s):
            stats.reached_goal = True
            break
        a = policy.get(s)
        if a is None:
            stats.replans += 1
            if predicate(s):
                stats.nse_hits += 1
            solution = solve_lao_star(reduced, s, solver_cfg, values=values, solved=solved)
            stats.replan_time += solution.solve_time
            policy.update(solution.policy)
            if solution.converged:
                solved.update(solution.policy)
            a = policy[s]  # every LAO* pass backs up its start
        acts, costs, dists = base.record(s)
        i = acts.index(a)
        stats.total_cost += costs[i]
        dist = dists[i]
        u = rng.random()
        acc = 0.0
        s2 = dist[-1][0]
        for cand, p in dist:
            acc += p
            if u < acc:
                s2 = cand
                break
        s = s2
        stats.steps += 1
    else:
        stats.reached_goal = base.is_goal(s)

    assert stats.nse_hits <= stats.replans
    return stats


def optimal_start_value(base: SspProblem, config: SimConfig | None = None) -> float:
    """V*(s0) of the full model by value iteration, the oracle that shares
    no code with LAO*."""
    config = config or SimConfig()
    return solve_value_iteration(base, config.solver_config()).start_value


def run_experiment(
    base: SspProblem,
    models: Sequence[tuple[str, ModelSelector]],
    predicate: RiskPredicate,
    trials: int = 100,
    seed: int = 0,
    config: SimConfig | None = None,
) -> ExperimentReport:
    """Run the full evaluation protocol over a list of named model selectors.

    Per model: build the reduced model, solve it once from s0 (the shared
    initial plan), run `trials` independently-seeded execution trials, and
    aggregate. t_full is the plan time of one fresh `full` reduction; a
    member that is exactly a `UniformSelector` of FULL_MODEL reuses that
    plan, so its row saves 0 % by construction. t_full and V*(s0) anchor the
    %-time-savings and %-cost-increase columns. A base with a reachable state
    that reaches no goal raises ValueError before anything is solved. A model
    whose reduction or initial solve raises is marked failed; a trial that
    raises is recorded with its `failure` set and reached_goal false, and
    left out of the model's means.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = config or SimConfig()
    # h_min, V*(s0) and any risk profile over the base read its one
    # memoized compiled model.
    heuristic = proper_hmin(base)
    optimal = optimal_start_value(base, config)
    solver_cfg = config.solver_config(heuristic)

    full = ReducedModel(base, UniformSelector(FULL_MODEL), name="full")
    full_plan = solve_lao_star(full, config=solver_cfg)

    results: list[ModelResult] = []
    for name, selector in models:
        result = ModelResult(name=name)
        try:
            if type(selector) is UniformSelector and selector._principle == FULL_MODEL:
                reduced, initial = full, full_plan
            else:
                reduced = ReducedModel(base, selector, name=name)
                initial = solve_lao_star(reduced, config=solver_cfg)
        except Exception as exc:  # noqa: BLE001 - failed models must not stop others
            result.failed = True
            result.failure = f"{type(exc).__name__}: {exc}"
            results.append(result)
            continue

        def one_trial(trial: int) -> TrialStats:
            # Common random numbers: trial i draws the same outcome stream
            # under every model, pairing the per-model comparisons.
            trial_seed = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
            try:
                return run_trial(
                    base, reduced, predicate, config,
                    seed=trial_seed, initial=initial, heuristic=heuristic,
                )
            except Exception as exc:  # noqa: BLE001 - one failed trial must not stop others
                return TrialStats(seed=trial_seed, failure=f"{type(exc).__name__}: {exc}")

        if config.jobs > 1:
            with ThreadPoolExecutor(max_workers=config.jobs) as pool:
                result.trials = list(pool.map(one_trial, range(trials)))
        else:
            result.trials = [one_trial(i) for i in range(trials)]
        results.append(result)
    return ExperimentReport(results, optimal, full_plan.solve_time)
