"""The experiment protocol and the solvers on seeded random small SSPs."""

import dataclasses
import math

import pytest
from random_ssps import random_small_ssp

from prmplan import (
    FULL_MODEL,
    M02,
    MOST_LIKELY,
    ReducedModel,
    RiskProfile,
    SolverConfig,
    UniformSelector,
    ZeroOneSelector,
    bellman_backup,
    proper_hmin,
    run_experiment,
    solve_lao_star,
    solve_value_iteration,
)

SEEDS = range(60)
TIMING = {"plan_time", "replan_time"}


def selectors(problem, predicate, seed):
    profile = RiskProfile(problem, predicate, seed=seed)
    return [
        ("full", UniformSelector(FULL_MODEL)),
        ("mlod", UniformSelector(MOST_LIKELY)),
        ("m02", UniformSelector(M02)),
        ("rm01", ZeroOneSelector(profile, 0.25)),
    ]


def trial_rows(report):
    return [
        (result.name, result.failed, [
            {k: v for k, v in dataclasses.asdict(t).items() if k not in TIMING}
            for t in result.trials
        ])
        for result in report.results
    ]


def test_run_experiment_properties():
    # Only an improper base may raise; every model gets a row, `full` never
    # replans, a replan counts at most one NSE, and a rerun repeats itself.
    improper_bases = 0
    for seed in SEEDS:
        problem, predicate = random_small_ssp(seed)
        models = selectors(problem, predicate, seed)
        try:
            report = run_experiment(problem, models, predicate, trials=3, seed=seed)
        except ValueError as exc:
            assert "reaches no goal" in str(exc), seed
            with pytest.raises(ValueError):
                proper_hmin(problem)
            improper_bases += 1
            continue
        rows = trial_rows(report)
        assert [name for name, _, _ in rows] == [name for name, _ in models], seed
        for name, failed, trials in rows:
            assert not failed and len(trials) == 3, (seed, name)
            for t in trials:
                assert not t["failure"], (seed, name, t["failure"])
                assert t["nse_hits"] <= t["replans"], (seed, name)
                if name == "full":
                    assert t["replans"] == 0, seed
        rerun = run_experiment(problem, models, predicate, trials=3, seed=seed)
        assert trial_rows(rerun) == rows, seed
    # The draws keep covering the refusal path.
    assert improper_bases > 0


def proper_reductions():
    """(seed, name, reduction, its h_min) for every model of every seed
    whose reduction is proper, and the number of improper ones."""
    found, improper = [], 0
    for seed in SEEDS:
        problem, predicate = random_small_ssp(seed)
        for name, selector in selectors(problem, predicate, seed):
            reduced = ReducedModel(problem, selector, name=name)
            try:
                found.append((seed, name, reduced, proper_hmin(reduced)))
            except ValueError:
                improper += 1
    return found, improper


def ilao_reference(problem, config):
    """Plain ILAO*, which labels nothing: every pass enters the whole greedy
    envelope from s0, expanding the tips it meets, and backs it up in
    postorder. It stops after a pass that expands nothing, changes no
    greedy action and has a residual below epsilon, and returns that pass's
    policy and the values, or None when it runs out of passes."""
    values, greedy = {}, {}
    h = config.heuristic
    for _ in range(config.max_iterations):
        order, seen = [], {problem.start}
        expanded = changed = False
        residual = 0.0

        def visit(s):
            nonlocal expanded, changed, residual
            if s not in greedy:
                values[s], greedy[s] = bellman_backup(problem, values, s, h)
                expanded = True
            for s2, _ in problem.transition(s, greedy[s]):
                if s2 not in seen and not problem.is_goal(s2):
                    seen.add(s2)
                    visit(s2)
            value, a = bellman_backup(problem, values, s, h)
            residual = max(residual, abs(value - values[s]))
            changed |= a != greedy[s]
            values[s], greedy[s] = value, a
            order.append(s)

        visit(problem.start)
        if not expanded and not changed and residual < config.epsilon:
            return {s: greedy[s] for s in order}, values
    return None


def test_lao_star_agrees_with_tight_vi_on_proper_reductions():
    # A residual below epsilon bounds no value error on a slowly contracting
    # SSP, so both solvers run far below the 1e-6 comparison tolerance.
    reductions, improper = proper_reductions()
    for seed, name, reduced, h in reductions:
        lao = solve_lao_star(reduced, config=SolverConfig(1e-8, heuristic=h))
        vi = solve_value_iteration(reduced, SolverConfig(1e-10))
        assert lao.converged, (seed, name)
        assert abs(lao.start_value - vi.start_value) <= 1e-6, (seed, name)
    assert reductions and improper


@pytest.mark.parametrize("epsilon", [1e-3, 1e-8])
def test_labels_change_no_policy(epsilon):
    # The labels that LAO* sets inside a solve only skip work: on every
    # proper reduction it returns the policy of plain ILAO*, at the
    # protocol's epsilon and at a tight one. At the tight one the
    # reference's V(s0) agrees with value iteration, as LAO*'s does above.
    for seed, name, reduced, h in proper_reductions()[0]:
        config = SolverConfig(epsilon, heuristic=h)
        lao = solve_lao_star(reduced, config=config)
        plain = ilao_reference(reduced, config)
        assert lao.converged and plain is not None, (seed, name)
        policy, values = plain
        assert lao.policy == policy, (seed, name)
        if epsilon == 1e-8:
            vi = solve_value_iteration(reduced, SolverConfig(1e-10)).start_value
            assert abs(values[reduced.start] - vi) <= 1e-6, (seed, name)


@pytest.mark.parametrize("seed,capped", [(6, 3), (20, 2)])
def test_capped_trials_leave_the_means(seed, capped):
    # The greedy policy of an improper mlod reduction has an action at every
    # state the agent visits, so it never replans and cycles until the step
    # cap. A capped trial's cost is cut short, so the means leave it out.
    problem, predicate = random_small_ssp(seed)
    report = run_experiment(
        problem, [("mlod", UniformSelector(MOST_LIKELY))], predicate, trials=3, seed=seed
    )
    (mlod,) = report.results
    cap = 10 * problem.n_states
    assert [t.steps for t in mlod.trials if not t.reached_goal] == [cap] * capped
    assert not any(t.failure for t in mlod.trials)
    assert mlod.goal_trials == 3 - capped
    reached = [t for t in mlod.trials if t.reached_goal]
    if reached:
        costs = [t.total_cost for t in reached]
        assert mlod.mean_cost == pytest.approx(sum(costs) / len(costs), rel=1e-12)
        assert mlod.mean_nse == sum(t.nse_hits for t in reached) / len(reached)
    else:
        assert math.isnan(mlod.mean_cost) and math.isnan(mlod.mean_nse)
        assert math.isnan(mlod.mean_time)
        (row,) = report.rows()
        assert math.isnan(row["pct_cost_increase"]) and row["goal_trials"] == 0
