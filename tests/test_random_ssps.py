"""The experiment protocol and the solvers on seeded random small SSPs."""

import dataclasses

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


def test_lao_star_agrees_with_tight_vi_on_proper_reductions():
    # A residual below epsilon bounds no value error on a slowly contracting
    # SSP, so both solvers run far below the 1e-6 comparison tolerance.
    proper = improper = 0
    for seed in SEEDS:
        problem, predicate = random_small_ssp(seed)
        for name, selector in selectors(problem, predicate, seed):
            reduced = ReducedModel(problem, selector, name=name)
            try:
                h = proper_hmin(reduced)
            except ValueError:
                improper += 1
                continue
            proper += 1
            lao = solve_lao_star(reduced, config=SolverConfig(1e-8, heuristic=h))
            vi = solve_value_iteration(reduced, SolverConfig(1e-10))
            assert lao.converged, (seed, name)
            assert abs(lao.start_value - vi.start_value) <= 1e-6, (seed, name)
    assert proper > 0 and improper > 0
