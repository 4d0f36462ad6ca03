"""Plan-execute-replan simulation and the experiment protocol."""

import math

import pytest
import test_solvers
from conftest import SelectorError, TableSelector

from prmplan import (
    FULL_MODEL,
    M02,
    MOST_LIKELY,
    ModelError,
    ModelResult,
    ModelSelector,
    ReducedModel,
    RiskPredicate,
    RiskProfile,
    SimConfig,
    UniformSelector,
    ZeroOneSelector,
    build_reduced_model,
    run_experiment,
    run_trial,
    solve_lao_star,
    solve_value_iteration,
    tabular_problem,
)


def loop_keeping_mlod_problem():
    """Variant of the self-loop where MLOD keeps the non-goal branch, making
    the reduced model improper: s0 -a0-> {s0: 0.6, goal: 0.4}, cost 1."""
    return tabular_problem(
        transitions={(0, 0): [(0, 0.6), (1, 0.4)]},
        costs={(0, 0): 1.0},
        start=0,
        goals={1},
    )


class TestRunTrial:
    def test_full_model_never_replans(self, risky_fork):
        problem, predicate = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(FULL_MODEL))
        for seed in range(20):
            stats = run_trial(problem, reduced, predicate, seed=seed)
            assert stats.replans == 0
            assert stats.nse_hits == 0
            assert stats.reached_goal

    def test_deterministic_base_exact_cost(self, chain3):
        predicate = RiskPredicate(evaluate=lambda s: False)
        reduced = build_reduced_model(chain3, UniformSelector(MOST_LIKELY))
        stats = run_trial(chain3, reduced, predicate, seed=0)
        assert stats.total_cost == solve_value_iteration(chain3).start_value
        assert stats.replans == 0

    def test_improper_reduction_still_reaches_goal(self):
        # MLOD keeps the self-loop branch: the reduced model has no goal
        # path, but execution on the true model escapes via the 0.4 branch,
        # and s0 always has a policy action so there are no replans.
        problem = loop_keeping_mlod_problem()
        predicate = RiskPredicate(evaluate=lambda s: False)
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        assert reduced.transition(0, 0) == ((0, 1.0),)
        for seed in range(10):
            stats = run_trial(problem, reduced, predicate, seed=seed)
            assert stats.reached_goal
            assert stats.replans == 0

    def test_replan_counts_risky_state(self):
        # Policy hole at risky state 2: a trial that lands there must count
        # one replan and one NSE hit.
        problem = tabular_problem(
            transitions={
                (0, 0): [(1, 0.5), (2, 0.5)],
                (1, 0): [(3, 1.0)],
                (2, 0): [(3, 1.0)],
            },
            costs={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0},
            start=0,
            goals={3},
        )
        predicate = RiskPredicate(evaluate=lambda s: s == 2)
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        hit_risky = False
        for seed in range(30):
            stats = run_trial(problem, reduced, predicate, seed=seed)
            assert stats.reached_goal
            assert stats.nse_hits <= stats.replans
            if stats.nse_hits:
                hit_risky = True
                assert stats.replans == stats.nse_hits
        assert hit_risky

    def test_step_cap_flags_unreached_goal(self):
        # No goal is reachable, so the trial runs to its cap of
        # 10 x n_states steps.
        problem = test_solvers.TestLaoStar.improper_problem()
        predicate = RiskPredicate(evaluate=lambda s: False)
        reduced = build_reduced_model(problem, UniformSelector(FULL_MODEL))
        stats = run_trial(problem, reduced, predicate, seed=1)
        assert not stats.reached_goal
        assert stats.steps == 30

    def test_replans_leave_initial_values_unchanged(self):
        # M02 drops s0's least likely outcome, state 4: a trial that lands
        # there replans with LAO*, warm-started from its own copy of the
        # initial values.
        problem = tabular_problem(
            transitions={
                (0, 0): [(1, 0.5), (2, 0.3), (4, 0.2)],
                (1, 0): [(3, 1.0)],
                (2, 0): [(3, 1.0)],
                (4, 0): [(3, 1.0)],
            },
            costs={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (4, 0): 1.0},
            start=0,
            goals={3},
        )
        predicate = RiskPredicate(evaluate=lambda s: False)
        reduced = build_reduced_model(problem, UniformSelector(M02))
        initial = solve_lao_star(reduced)
        assert 4 not in initial.values
        before = dict(initial.values)
        replans = 0
        for seed in range(20):
            stats = run_trial(problem, reduced, predicate, seed=seed, initial=initial)
            replans += stats.replans
        assert replans > 0
        assert initial.values == before

    def test_replan_time_is_lao_solve_time(self, replanned_reductions, monkeypatch):
        # The plan and every replan are charged LAO*'s own solve_time, the
        # clock that also gives t_full; no second clock runs around a replan.
        from prmplan import simulator

        solve_lao = simulator.solve_lao_star

        def fixed_clock(*args, **kwargs):
            solution = solve_lao(*args, **kwargs)
            solution.solve_time = 0.25
            return solution

        monkeypatch.setattr(simulator, "solve_lao_star", fixed_clock)
        label, base, reduced, predicate, hmin = replanned_reductions[0]
        replans = 0
        for seed in range(5):
            stats = run_trial(base, reduced, predicate, seed=seed, heuristic=hmin)
            assert stats.plan_time == 0.25, label
            assert stats.replan_time == 0.25 * stats.replans, label
            replans += stats.replans
        assert replans > 0, label

    def test_seed_determinism(self, risky_fork):
        problem, predicate = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        a = run_trial(problem, reduced, predicate, seed=11)
        b = run_trial(problem, reduced, predicate, seed=11)
        assert (a.total_cost, a.steps, a.replans, a.nse_hits) == (
            b.total_cost,
            b.steps,
            b.replans,
            b.nse_hits,
        )


@pytest.fixture(scope="module")
def replanned_reductions():
    """(label, base, reduced, predicate, h_min of the base) for the mlod,
    m02 and rm01 reductions of ring-3 and zigzag-4, whose trials replan
    often."""
    import argparse

    from prmplan.cli import _make_selector
    from prmplan.domains import build_instance
    from prmplan.solvers import proper_hmin

    args = argparse.Namespace(samples=30, depth=4, seed=0, threshold=0.25)
    out = []
    for instance in ("ring-3", "zigzag-4"):
        base, predicate = build_instance("racetrack", instance)
        hmin = proper_hmin(base)
        for name in ("mlod", "m02", "rm01"):
            reduced = build_reduced_model(base, _make_selector(name, base, predicate, args))
            out.append((f"{instance}-{name}", base, reduced, predicate, hmin))
    return out


class TestSolvedLabels:
    """A trial's solved set: the initial plan's labels, joined by each
    converged replan's."""

    def test_labels_stay_solved_after_every_replan(self, replanned_reductions, monkeypatch):
        from prmplan import mdp, simulator, solvers

        solve_lao, backup = simulator.solve_lao_star, mdp.bellman_backup
        eps = SimConfig().epsilon
        replanning = {"labels": frozenset(), "backed_up": []}

        def spy_backup(problem, values, s, heuristic=None):
            if s in replanning["labels"]:
                replanning["backed_up"].append(s)
            return backup(problem, values, s, heuristic)

        def spy_lao(reduced, start, config, values=None, solved=frozenset()):
            replanning["labels"] = frozenset(solved)
            solution = solve_lao(reduced, start, config, values, solved)
            replanning["labels"] = frozenset()
            after.append((frozenset(solved), dict(values), solution))
            return solution

        monkeypatch.setattr(solvers, "bellman_backup", spy_backup)
        monkeypatch.setattr(simulator, "solve_lao_star", spy_lao)
        for label, base, reduced, predicate, hmin in replanned_reductions:
            config = SimConfig().solver_config(hmin)
            initial = solve_lao(reduced, reduced.start, config)
            assert initial.converged, label
            replans = 0
            for seed in range(10):
                after = []
                stats = run_trial(
                    base, reduced, predicate, seed=seed, initial=initial, heuristic=hmin
                )
                assert stats.reached_goal and stats.replans == len(after), label
                replans += stats.replans
                policy = dict(initial.policy)
                labels = frozenset(initial.policy)
                for before, values, solution in after:
                    assert before == labels, label  # every earlier replan's labels joined
                    policy.update(solution.policy)
                    if solution.converged:
                        labels = before | frozenset(solution.policy)
                    for s in labels:
                        best, _ = backup(reduced, dict(values), s, hmin)
                        assert abs(best - values[s]) < eps, f"{label}: state {s}"
                        for s2, _ in reduced.transition(s, policy[s]):
                            assert s2 in labels or reduced.is_goal(s2), f"{label}: {s} -> {s2}"
            assert replans > 0, label
        assert replanning["backed_up"] == []


class TestRunExperiment:
    def test_full_model_self_comparison(self, risky_fork):
        problem, predicate = risky_fork
        report = run_experiment(
            problem, [("full", UniformSelector(FULL_MODEL))], predicate, trials=200, seed=0
        )
        result = report.results[0]
        assert result.mean_nse == 0.0
        assert [t.replans for t in result.trials] == [0] * 200
        # Self-comparison: mean cost within sampling noise of V*.
        assert abs(result.pct_cost_increase(report.optimal_value)) < 15.0

    def test_single_trial_equals_trial_stats(self, risky_fork):
        problem, predicate = risky_fork
        report = run_experiment(
            problem, [("mlod", UniformSelector(MOST_LIKELY))], predicate, trials=1, seed=3
        )
        result = report.results[0]
        assert len(result.trials) == 1
        stats = result.trials[0]
        assert result.mean_cost == stats.total_cost
        assert result.mean_nse == stats.nse_hits

    def test_rm01_experiment_compiles_the_base_once(self, risky_fork, monkeypatch):
        # h_min, V*(s0) and the rm01 risk walks all read one compiled base.
        from prmplan import mdp

        problem, predicate = risky_fork
        flatten = mdp._flatten
        flattened = []

        def counting_flatten(p):
            flattened.append(p)
            return flatten(p)

        monkeypatch.setattr(mdp, "_flatten", counting_flatten)
        profile = RiskProfile(problem, predicate, seed=0)
        selector = ZeroOneSelector(profile, 0.25)
        run_experiment(problem, [("rm01", selector)], predicate, trials=5, seed=0)
        assert profile._values is not None
        assert flattened == [problem]

    def test_every_timed_solve_plans_a_fresh_reduction(self, risky_fork, monkeypatch):
        # t_full is timed like every model row: the initial plan of a fresh
        # ReducedModel, not a solve of the base whose records h_min warmed.
        # The `full` member reuses that plan instead of solving it again.
        from prmplan import simulator

        problem, predicate = risky_fork
        solve_lao = simulator.solve_lao_star
        trial = simulator.run_trial
        initial, planned, tried = [], [], []

        def spy_lao(p, start=None, config=None, values=None, solved=frozenset()):
            planned.append(p)
            if values is None:
                initial.append(p)
            return solve_lao(p, start, config, values, solved)

        def spy_trial(base, reduced, *args, **kwargs):
            tried.append(reduced)
            return trial(base, reduced, *args, **kwargs)

        monkeypatch.setattr(simulator, "solve_lao_star", spy_lao)
        monkeypatch.setattr(simulator, "run_trial", spy_trial)
        models = [("full", UniformSelector(FULL_MODEL)), ("m02", UniformSelector(M02))]
        run_experiment(problem, models, predicate, trials=3, seed=0)
        assert planned and all(isinstance(p, ReducedModel) for p in planned)
        assert len(initial) == 2 and initial[0] is not initial[1]
        assert initial[0].selector.principle(0, 0) == FULL_MODEL  # t_full's plan
        assert initial[1].selector is models[1][1]
        assert tried == [initial[0]] * 3 + [initial[1]] * 3

    def test_only_an_exact_full_uniform_selector_reuses_the_full_plan(
        self, risky_fork, monkeypatch
    ):
        from prmplan import simulator

        class FullSubclass(UniformSelector):
            pass

        problem, predicate = risky_fork
        solve_lao = simulator.solve_lao_star
        initial = []

        def spy_lao(reduced, start=None, config=None, values=None, solved=frozenset()):
            if values is None:
                initial.append(reduced.selector)
            return solve_lao(reduced, start, config, values, solved)

        monkeypatch.setattr(simulator, "solve_lao_star", spy_lao)
        models = [
            ("a", UniformSelector(FULL_MODEL)),
            ("b", FullSubclass(FULL_MODEL)),
            ("c", UniformSelector(MOST_LIKELY)),
        ]
        run_experiment(problem, models, predicate, trials=2, seed=0)
        assert len(initial) == 3  # t_full's plan, then b and c
        assert initial[1:] == [models[1][1], models[2][1]]

    @pytest.mark.parametrize("instance", ["risky_fork", "ring-3"])
    def test_full_row_saves_nothing_against_itself(self, risky_fork, instance):
        if instance == "risky_fork":
            problem, predicate = risky_fork
        else:
            from prmplan.domains import build_instance

            problem, predicate = build_instance("racetrack", instance)
        report = run_experiment(
            problem, [("full", UniformSelector(FULL_MODEL))], predicate, trials=100, seed=1
        )
        (row,) = report.rows()
        assert row["pct_time_savings"] == pytest.approx(0.0, abs=1e-9)
        assert report.results[0].mean_time == pytest.approx(report.t_full, rel=1e-12)

    def test_reproducible_modulo_timing(self, risky_fork):
        problem, predicate = risky_fork
        models = [
            ("full", UniformSelector(FULL_MODEL)),
            ("mlod", UniformSelector(MOST_LIKELY)),
        ]
        a = run_experiment(problem, models, predicate, trials=50, seed=9)
        b = run_experiment(problem, models, predicate, trials=50, seed=9)
        for ra, rb in zip(a.results, b.results):
            assert [
                (t.total_cost, t.steps, t.replans, t.nse_hits, t.reached_goal, t.seed)
                for t in ra.trials
            ] == [
                (t.total_cost, t.steps, t.replans, t.nse_hits, t.reached_goal, t.seed)
                for t in rb.trials
            ]
        assert a.optimal_value == b.optimal_value

    def test_common_random_numbers_across_models(self, risky_fork):
        # Trial i draws the same outcome stream under every model, so two
        # copies of the same selector produce identical trials.
        problem, predicate = risky_fork
        models = [
            ("mlod-a", UniformSelector(MOST_LIKELY)),
            ("mlod-b", UniformSelector(MOST_LIKELY)),
        ]
        report = run_experiment(problem, models, predicate, trials=50, seed=4)
        a, b = report.results
        assert [t.total_cost for t in a.trials] == [t.total_cost for t in b.trials]

    def test_failed_model_does_not_stop_others(self, risky_fork):
        problem, predicate = risky_fork

        class Broken(ModelSelector):
            def principle(self, s, a):
                raise RuntimeError("boom")

        report = run_experiment(
            problem,
            [("broken", Broken()), ("full", UniformSelector(FULL_MODEL))],
            predicate,
            trials=5,
            seed=0,
        )
        broken, full = report.results
        assert broken.failed and "boom" in broken.failure
        assert not full.failed
        assert len(full.trials) == 5
        assert [row["model"] for row in report.rows()] == ["full"]

    def test_failed_trial_does_not_stop_others(self, risky_fork):
        # The initial MLOD plan never visits s2 (only the 0.1 branch of
        # s0 -a0-> does), so the selector fails only when a trial replans
        # there during execution.
        problem, predicate = risky_fork

        class NoPrincipleAtS2(UniformSelector):
            def principle(self, s, a):
                if s == 2:
                    raise SelectorError(f"no principle for pair (s={s}, a={a})")
                return super().principle(s, a)

        report = run_experiment(
            problem,
            [("gap", NoPrincipleAtS2(MOST_LIKELY)), ("full", UniformSelector(FULL_MODEL))],
            predicate,
            trials=50,
            seed=0,
        )
        gap, full = report.results
        assert not gap.failed and len(gap.trials) == 50
        failed = [t for t in gap.trials if t.failure]
        assert failed and all("SelectorError" in t.failure for t in failed)
        assert all(not t.reached_goal for t in failed)
        assert gap.goal_trials == 50 - len(failed)
        assert full.goal_trials == 50
        done = [t.total_cost for t in gap.trials if not t.failure]
        assert gap.mean_cost == pytest.approx(sum(done) / len(done))
        assert math.isnan(ModelResult("gap", failed).mean_cost)

    def test_pct_columns_nan_on_zero_denominators(self):
        problem = tabular_problem(transitions={}, costs={}, start=0, goals={0})
        predicate = RiskPredicate(evaluate=lambda s: False)
        report = run_experiment(
            problem, [("full", UniformSelector(FULL_MODEL))], predicate, trials=3
        )
        result = report.results[0]
        assert report.optimal_value == 0.0
        assert math.isnan(result.pct_cost_increase(report.optimal_value))
        assert math.isnan(result.pct_time_savings(0.0))
        assert result.goal_trials == 3
        # The start is a goal: the plans are empty, and their times (a few
        # microseconds) compare nothing.
        (row,) = report.rows()
        assert math.isnan(row["pct_cost_increase"])
        assert math.isnan(row["pct_time_savings"])

    def test_mean_cost_lower_bounded_by_optimal(self, risky_fork):
        # Expectation bound with a generous sampling allowance: the sample
        # mean over finite trials can dip slightly below V*.
        problem, predicate = risky_fork
        report = run_experiment(
            problem,
            [("mlod", UniformSelector(MOST_LIKELY))],
            predicate,
            trials=300,
            seed=2,
        )
        result = report.results[0]
        assert result.mean_cost >= 0.8 * report.optimal_value

    def test_jobs_parallel_matches_serial(self, risky_fork):
        problem, predicate = risky_fork
        models = [("mlod", UniformSelector(MOST_LIKELY))]
        serial = run_experiment(problem, models, predicate, trials=20, seed=6)
        parallel = run_experiment(
            problem, models, predicate, trials=20, seed=6, config=SimConfig(jobs=4)
        )
        assert [t.total_cost for t in serial.results[0].trials] == [
            t.total_cost for t in parallel.results[0].trials
        ]

    def test_zero_cost_pair_rejected_before_any_solve(self, monkeypatch):
        from prmplan import simulator

        def never(*args, **kwargs):
            raise AssertionError("solved a model with a zero-cost pair")

        monkeypatch.setattr(simulator, "solve_value_iteration", never)
        monkeypatch.setattr(simulator, "solve_lao_star", never)
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 0.0},
            start=0,
            goals={2},
        )
        predicate = RiskPredicate(evaluate=lambda s: False)
        with pytest.raises(ModelError, match=r"\(s=1, a=0\): cost 0.0 is not > 0"):
            run_experiment(problem, [("full", UniformSelector(FULL_MODEL))], predicate)

    def test_trials_validated(self, risky_fork):
        problem, predicate = risky_fork
        with pytest.raises(ValueError):
            run_experiment(problem, [], predicate, trials=0)
