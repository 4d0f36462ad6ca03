"""Acceptance gate: end-to-end checks of the shipped toolkit.

One test per criterion; each prints a single PASS/FAIL line (written
straight to the terminal so it survives pytest's capture). The shared
experiment runs use seed 0 and 100 trials per model.
"""

import argparse
import math
import sys
import time

import pytest

from prmplan import (
    FULL_MODEL,
    M02,
    MOST_LIKELY,
    SolverConfig,
    UniformSelector,
    build_reduced_model,
    compute_hmin,
    estimate_risk_profile,
    exact_risk_reachability,
    make_01rm_selector,
    nse_set,
    reachable_states,
    run_experiment,
    select_outcomes,
    solve_lao_star,
    solve_value_iteration,
)
from prmplan.cli import _make_selector, main
from prmplan.domains import desk_instances, large_instances

SEED = 0
TRIALS = 100
EPSILON = 1e-3


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def run_protocol(problem, predicate, model_names):
    args = argparse.Namespace(samples=30, depth=4, seed=SEED, threshold=0.25)
    models = [(n, _make_selector(n, problem, predicate, args)) for n in model_names]
    return run_experiment(problem, models, predicate, trials=TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def desk():
    return desk_instances()


@pytest.fixture(scope="module")
def desk_reports(desk):
    out = {}
    for name, problem, predicate in desk:
        rep = run_protocol(problem, predicate, ("full", "mlod", "m02", "rm01"))
        out[name] = (problem, predicate, rep)
    return out


@pytest.fixture(scope="module")
def large_reports():
    out = {}
    for name, problem, predicate in large_instances():
        rep = run_protocol(problem, predicate, ("full", "rm01"))
        out[name] = (problem, predicate, rep)
    return out


def results_by_model(rep):
    return {r.name: r for r in rep.results}


def test_criterion_01_oracle_equivalence(desk):
    worst_gap, worst_time = 0.0, 0.0
    ok = True
    for name, problem, _ in desk:
        assert len(reachable_states(problem)) <= 10**4
        t0 = time.perf_counter()
        vi = solve_value_iteration(problem, SolverConfig(epsilon=EPSILON))
        h = compute_hmin(problem, problem.start, SolverConfig(epsilon=EPSILON))
        lao = solve_lao_star(
            problem, config=SolverConfig(epsilon=EPSILON, heuristic=h)
        )
        elapsed = time.perf_counter() - t0
        gap = abs(lao.start_value - vi.start_value)
        worst_gap = max(worst_gap, gap)
        worst_time = max(worst_time, elapsed)
        ok &= gap <= 2e-3 and elapsed < 60.0
    report(
        1,
        "LAO*/VI oracle equivalence on all <=1e4-state instances",
        ok,
        f"max |gap| {worst_gap:.2e}, max runtime {worst_time:.1f}s",
    )


def test_criterion_02_full_model_zero_nse(desk_reports, large_reports):
    ok = True
    for name, (_, _, rep) in {**desk_reports, **large_reports}.items():
        full = results_by_model(rep)["full"]
        ok &= len(full.trials) == TRIALS
        ok &= all(t.replans == 0 and t.nse_hits == 0 for t in full.trials)
    report(
        2,
        "FullModel selector: replans = nse_hits = 0 in 100/100 trials everywhere",
        ok,
    )


def test_criterion_03_nse_dominance(desk_reports):
    ok, strict = True, 0
    details = []
    for name, (_, _, rep) in desk_reports.items():
        res = results_by_model(rep)
        rm01, mlod = res["rm01"].mean_nse, res["mlod"].mean_nse
        ok &= rm01 <= mlod
        strict += rm01 < mlod
        details.append(f"{name} {rm01:.2f}<={mlod:.2f}")
    ok &= strict >= 4
    report(
        3,
        "mean NSE of 0/1 RM <= MLOD on all 6 desk instances, strict on >= 4",
        ok,
        f"strict on {strict}/6; " + ", ".join(details),
    )


def test_criterion_04_cost_ordering(desk_reports):
    ok, within20 = True, 0
    details = []
    for name, (_, _, rep) in desk_reports.items():
        res = results_by_model(rep)
        rm01 = res["rm01"].pct_cost_increase(rep.optimal_value)
        mlod = res["mlod"].pct_cost_increase(rep.optimal_value)
        ok &= rm01 <= mlod
        within20 += rm01 <= 20.0
        details.append(f"{name} {rm01:+.1f}%<={mlod:+.1f}%")
    ok &= within20 >= 4
    report(
        4,
        "%-cost-increase of 0/1 RM <= MLOD everywhere; within 20% of optimal on >= 4",
        ok,
        f"within 20% on {within20}/6; " + ", ".join(details),
    )


def test_criterion_05_time_savings(large_reports):
    ok = True
    details = []
    for name, (problem, _, rep) in large_reports.items():
        assert len(reachable_states(problem)) >= 10**4
        rm01 = results_by_model(rep)["rm01"]
        ok &= rm01.mean_time < rep.t_full
        details.append(
            f"{name} {rm01.mean_time:.2f}s < {rep.t_full:.2f}s "
            f"({rm01.pct_time_savings(rep.t_full):.1f}% saved)"
        )
    report(
        5,
        "0/1 RM plan+replan time < full-model solve time on >=1e4-state instances",
        ok,
        "; ".join(details),
    )


def test_criterion_06_reduction_invariants(tiny_racetrack, small_sailing, small_ev):
    ok = True
    for problem, predicate in (tiny_racetrack, small_sailing, small_ev):
        profile = estimate_risk_profile(problem, predicate, seed=SEED)
        rm01 = build_reduced_model(problem, make_01rm_selector(profile, 0.25))
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            for a in problem.actions(s):
                full = problem.transition(s, a)
                support = dict(full)
                for principle in (MOST_LIKELY, M02, FULL_MODEL):
                    reduced = select_outcomes(principle, full)
                    # subset property
                    ok &= {x for x, _ in reduced} <= set(support)
                    # renormalization proportionality to 1e-9
                    mass = sum(support[x] for x, _ in reduced)
                    ok &= all(abs(p - support[x] / mass) <= 1e-9 for x, p in reduced)
                    # idempotence of the deterministic/identity principles
                    if principle in (MOST_LIKELY, FULL_MODEL):
                        ok &= select_outcomes(principle, reduced) == reduced
                # 0/1 cardinality: one outcome or all of them
                ok &= len(rm01.transition(s, a)) in (1, len(full))
    report(
        6,
        "reduction invariants exhaustive over one small instance per domain",
        ok,
    )


def test_criterion_07_reachability_estimator():
    from prmplan.domains import build_instance

    ok = True
    details = []
    n = 10_000
    for dom, inst in (("sailing", "8M"), ("sailing", "10M")):
        problem, predicate = build_instance(dom, inst)
        states = reachable_states(problem)
        assert len(states) <= 10**3
        exact = exact_risk_reachability(problem, predicate, depth=4)
        profile = estimate_risk_profile(problem, predicate, samples=n, depth=4, seed=SEED)
        within = 0
        for s in states:
            p = exact[s]
            tol = 3 * math.sqrt(p * (1 - p) / n) + 1e-12
            within += abs(profile.reach(s) - p) <= tol
        frac = within / len(states)
        ok &= frac >= 0.99
        details.append(f"{dom}-{inst} {100 * frac:.1f}% within 3 sigma")
    report(
        7,
        "walk estimator matches exact enumeration within 3*sqrt(p(1-p)/n)",
        ok,
        "; ".join(details),
    )


def brute_force_nse(problem, selector, predicate):
    """Independent triple scan: re-applies the selector per pair by hand."""
    found = set()
    for s in reachable_states(problem):
        if problem.is_goal(s):
            continue
        for a in problem.actions(s):
            full = problem.transition(s, a)
            kept = {x for x, _ in select_outcomes(selector.principle(s, a), full)}
            for s2, p in full:
                if p > 0 and predicate(s2) and s2 not in kept:
                    found.add(s2)
    return found


def test_criterion_08_nse_set_correctness(tiny_racetrack, small_sailing, small_ev):
    ok = True
    for problem, predicate in (tiny_racetrack, small_sailing, small_ev):
        profile = estimate_risk_profile(problem, predicate, seed=SEED)
        for selector in (
            UniformSelector(MOST_LIKELY),
            UniformSelector(M02),
            UniformSelector(FULL_MODEL),
            make_01rm_selector(profile, 0.25),
        ):
            reduced = build_reduced_model(problem, selector)
            ok &= nse_set(problem, reduced, predicate) == brute_force_nse(
                problem, selector, predicate
            )
    report(8, "nse_set equals brute-force triple scan on small instances", ok)


def test_criterion_09_rm01_goal_reachability(desk_reports, large_reports):
    ok = True
    for name, (_, _, rep) in {**desk_reports, **large_reports}.items():
        rm01 = results_by_model(rep)["rm01"]
        ok &= rm01.goal_trials == TRIALS == len(rm01.trials)
    report(9, "0/1 RM with replanning reaches the goal in 100/100 trials", ok)


def test_criterion_10_cli_determinism(tmp_path):
    import csv

    def run(subdir):
        out = tmp_path / subdir
        code = main(
            [
                "experiment",
                "--domain",
                "sailing",
                "--instance",
                "6M",
                "--trials",
                "5",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out

    def rows(path, drop):
        with open(path) as fh:
            return [
                {k: v for k, v in row.items() if k not in drop}
                for row in csv.DictReader(fh)
            ]

    a, b = run("a"), run("b")
    ok = rows(a / "trials.csv", {"plan_ms", "replan_ms"}) == rows(
        b / "trials.csv", {"plan_ms", "replan_ms"}
    )
    ok &= rows(a / "aggregate.csv", {"pct_time_savings"}) == rows(
        b / "aggregate.csv", {"pct_time_savings"}
    )
    report(10, "cmd_experiment reruns byte-identical modulo timing columns", ok)
