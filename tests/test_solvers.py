"""Solvers: VI oracle, LAO* and the h_min heuristic."""

import argparse
import math

import pytest
from random_ssps import random_proper_ssp

from prmplan import (
    MOST_LIKELY,
    ModelError,
    NonconvergenceError,
    SolverConfig,
    UniformSelector,
    bellman_backup,
    build_reduced_model,
    compile_model,
    compute_hmin,
    reachable_states,
    solve_lao_star,
    solve_value_iteration,
    tabular_problem,
)

EPS = 1e-3
# Solver epsilon of the LAO* invariant tests.
TIGHT_EPS = 1e-6


def hmin_reference(problem):
    """Bellman-Ford on the all-outcomes-min relaxation, by plain loops:
    h(s) = min_a [C(s,a) + min_{s'} h(s')], h = 0 on goals. It reads the
    records, never the compiled model whose arrays compute_hmin sweeps."""
    states = reachable_states(problem)
    h = {s: 0.0 if problem.is_goal(s) else math.inf for s in states}
    for _ in range(len(states)):
        changed = False
        for s in states:
            if problem.is_goal(s):
                continue
            for c, dist in zip(*problem.record(s)[1:]):
                for s2, _ in dist:
                    q = c + h[s2]
                    if q < h[s]:
                        h[s] = q
                        changed = True
        if not changed:
            return h
    raise AssertionError("Bellman-Ford did not settle")


def vi_reference(problem, epsilon):
    """Jacobi value iteration by plain loops. A sweep sets each non-goal
    V(s) to the min over actions of c + sum(p * V(s')), summed in record
    order, with goals at 0; it stops once no value moved by epsilon."""
    states = sorted(reachable_states(problem))
    v = dict.fromkeys(states, 0.0)
    while True:
        new = {}
        for s in states:
            if problem.is_goal(s):
                new[s] = 0.0
                continue
            best = math.inf
            for _, c, dist in zip(*problem.record(s)):
                total = 0.0
                for s2, p in dist:
                    total += p * v[s2]
                best = min(best, c + total)
            new[s] = best
        residual = max(abs(new[s] - v[s]) for s in states)
        v = new
        if residual < epsilon:
            return v


class TestValueIteration:
    @pytest.mark.parametrize(
        "instance",
        [*(("random", seed) for seed in range(4)), ("sailing", "8M"), ("ev", "gen-1")],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_equals_plain_loop_reference(self, instance):
        # Same sweeps, same summation order: values equal exactly.
        from prmplan.domains import build_instance

        if instance[0] == "random":
            problem = random_proper_ssp(instance[1])
        else:
            problem, _ = build_instance(*instance)
        values = vi_reference(problem, EPS)
        solution = solve_value_iteration(problem, SolverConfig(epsilon=EPS))
        assert {s: solution.values[s] for s in values} == values

    def test_deterministic_chain(self, chain3):
        solution = solve_value_iteration(chain3)
        assert solution.start_value == pytest.approx(2.0, abs=2 * EPS)
        assert solution.values[1] == pytest.approx(1.0, abs=2 * EPS)

    def test_self_loop_geometric_value(self, self_loop):
        solution = solve_value_iteration(self_loop, SolverConfig(epsilon=1e-9))
        assert solution.start_value == pytest.approx(2.0, abs=1e-6)

    def test_goal_value_zero(self, chain3):
        solution = solve_value_iteration(chain3)
        assert solution.values[2] == 0.0

    def test_improper_model_raises_nonconvergence(self):
        # The oracle fails loudly: with no goal reachable, its values grow
        # on every sweep.
        with pytest.raises(NonconvergenceError, match="500 sweeps"):
            solve_value_iteration(TestLaoStar.improper_problem(), SolverConfig(max_iterations=500))


class TestLaoStar:
    def test_deterministic_chain_values(self, chain3):
        solution = solve_lao_star(chain3)
        assert solution.start_value == pytest.approx(2.0, abs=2 * EPS)
        assert solution.values[1] == pytest.approx(1.0, abs=2 * EPS)

    def test_goal_start_value_is_zero(self, chain3):
        solution = solve_lao_star(chain3, start=2)
        assert solution.start_value == 0.0
        assert solution.policy == {}

    def test_self_loop_value(self, self_loop):
        solution = solve_lao_star(self_loop)
        assert solution.start_value == pytest.approx(2.0, abs=2 * EPS)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_vi_on_random_ssps(self, seed):
        # Residual < epsilon does not bound the value error to 2*epsilon on
        # slowly-contracting models, so drive both solvers well past the
        # comparison tolerance.
        problem = random_proper_ssp(seed)
        config = SolverConfig(epsilon=1e-6)
        vi = solve_value_iteration(problem, config).start_value
        lao = solve_lao_star(problem, config=config).start_value
        assert abs(lao - vi) <= 2 * EPS

    @staticmethod
    def improper_problem():
        return tabular_problem(
            transitions={(0, 0): [(0, 0.5), (1, 0.5)], (1, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
            n_states=3,
        )

    def test_improper_model_returns_unconverged(self):
        # No goal is reachable: LAO* must return its best-so-far solution,
        # flagged as not converged, instead of spinning forever. The pass
        # cap stops it here, before the residual is first compared with an
        # earlier block's at 400 tip-free passes: 300 passes of two backups
        # each, plus the first pass's two expansions.
        solution = solve_lao_star(self.improper_problem(), config=SolverConfig(max_iterations=300))
        assert solution.converged is False
        assert solution.policy == {0: 0, 1: 0}
        assert solution.backups == 602

    def test_experiment_refuses_a_state_that_reaches_no_goal(self, monkeypatch):
        # run_experiment checks h_min before value iteration could sweep the
        # improper base up to its iteration cap.
        from prmplan import FULL_MODEL, RiskPredicate, UniformSelector, run_experiment, simulator

        def no_vi(*args, **kwargs):
            raise AssertionError("value iteration ran")

        monkeypatch.setattr(simulator, "solve_value_iteration", no_vi)
        models = [("full", UniformSelector(FULL_MODEL))]
        predicate = RiskPredicate(evaluate=lambda s: False)
        with pytest.raises(ValueError, match="state [01] .*no goal"):
            run_experiment(self.improper_problem(), models, predicate)

    def test_improper_model_stalls_under_default_config(self):
        solution = solve_lao_star(self.improper_problem())
        assert solution.converged is False
        assert solution.policy == {0: 0, 1: 0}
        # Two blocks of 200 tip-free passes stopped it, not the pass cap:
        # 100,000 passes would make 200,000 backups.
        assert solution.backups <= 804

    @staticmethod
    def traps():
        """Proper starts into cycles that reach no goal (state 3)."""
        closed_pair = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(0, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 3.0},
            start=0,
            goals={3},
            n_states=4,
        )
        period_2 = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)], (2, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0},
            start=0,
            goals={3},
        )
        return [TestLaoStar.improper_problem(), closed_pair, period_2]

    @pytest.mark.parametrize("trap", range(3), ids=["half-loop", "closed-pair", "period-2"])
    def test_trap_gives_up_within_two_blocks(self, trap):
        # The residual of a trap does not fall between the first two blocks
        # of 200 tip-free passes, so LAO* gives up there: at most 3 states
        # backed up 401 times, plus their expansions.
        solution = solve_lao_star(self.traps()[trap])
        assert solution.converged is False
        assert solution.backups <= 1_206

    @pytest.mark.parametrize("stay", [0.997, 0.999])
    def test_slowly_contracting_loop_converges(self, stay):
        # V*(s0) = 1 / (1 - stay): the residual falls by a factor of only
        # stay per pass, yet it keeps falling, so LAO* runs to convergence.
        problem = tabular_problem(
            transitions={(0, 0): [(0, stay), (1, 1 - stay)]},
            costs={(0, 0): 1.0},
            start=0,
            goals={1},
        )
        solution = solve_lao_star(problem)
        vi = solve_value_iteration(problem)
        assert solution.converged
        assert abs(solution.start_value - vi.start_value) <= 2 * EPS

    def test_no_convergence_on_a_pass_that_changes_an_action(self):
        # V(2) climbs to 2 by halving steps. On the first pass whose residual
        # is below epsilon it passes h(1) = 1.95, and s0 switches to the
        # never-expanded state 1, whose true value is 100. Stopping there
        # would return a policy that is not closed, with V(s0) = 2.45.
        problem = tabular_problem(
            transitions={
                (0, 0): [(2, 1.0)],
                (0, 1): [(1, 1.0)],
                (1, 0): [(3, 1.0)],
                (2, 0): [(2, 0.5), (3, 0.5)],
            },
            costs={(0, 0): 0.5, (0, 1): 0.5, (1, 0): 100.0, (2, 0): 1.0},
            start=0,
            goals={3},
        )
        h = {0: 0.0, 1: 1.95, 2: 1.0, 3: 0.0}.__getitem__
        solution = solve_lao_star(problem, config=SolverConfig(epsilon=0.05, heuristic=h))
        assert solution.policy == {0: 0, 2: 0}
        assert solution.start_value == pytest.approx(2.5, abs=0.1)

    def test_expands_lazily(self, small_sailing):
        problem, _ = small_sailing
        solution = solve_lao_star(problem)
        assert solution.expanded_states < len(reachable_states(problem))


@pytest.fixture(scope="module")
def invariant_models():
    """(label, problem, h_min of its base): the random SSPs and the m02 and
    rm01 reductions of sailing 8M and ring-3."""
    from prmplan.cli import _make_selector
    from prmplan.domains import build_instance

    out = []
    for seed in range(8):
        problem = random_proper_ssp(seed)
        out.append((f"random-{seed}", problem, compute_hmin(problem)))
    args = argparse.Namespace(samples=30, depth=4, seed=0, threshold=0.25)
    for domain, instance in (("sailing", "8M"), ("racetrack", "ring-3")):
        base, predicate = build_instance(domain, instance)
        hmin = compute_hmin(base)
        for name in ("m02", "rm01"):
            selector = _make_selector(name, base, predicate, args)
            reduced = build_reduced_model(base, selector, name=name)
            out.append((f"{domain}-{instance}-{name}", reduced, hmin))
    return out


class TestLaoStarInvariants:
    """What a converged LAO* solve promises, at epsilon = TIGHT_EPS."""

    def test_policy_closed_and_converged(self, invariant_models):
        for label, problem, hmin in invariant_models:
            solution = solve_lao_star(problem, config=SolverConfig(TIGHT_EPS, heuristic=hmin))
            policy = solution.policy
            seen, stack = {problem.start}, [problem.start]
            while stack:
                s = stack.pop()
                if problem.is_goal(s):
                    continue
                assert s in policy, f"{label}: state {s} reachable under the policy has no action"
                for s2, _ in problem.transition(s, policy[s]):
                    if s2 not in seen:
                        seen.add(s2)
                        stack.append(s2)
            values = solution.values.copy()
            for s in policy:
                best, _ = bellman_backup(problem, values, s, hmin)
                residual = abs(best - solution.values[s])
                assert residual < TIGHT_EPS, f"{label}: state {s} residual {residual:.2e}"
                acts, costs, _ = problem.record(s)
                q = costs[acts.index(policy[s])] + sum(
                    p * values[s2] for s2, p in problem.transition(s, policy[s])
                )
                assert q - best < 2 * TIGHT_EPS, f"{label}: state {s} action not greedy"

    def test_warm_start_from_another_state(self, invariant_models):
        # A replan start: a state off the s0 policy when there is one. VI
        # from s0 covers it, since it is reachable from s0.
        # Residual < epsilon does not bound the error against VI to
        # 2*epsilon on the slowly-contracting random SSPs (up to 5e-6 at
        # epsilon 1e-6), so VI is compared at the oracle tolerance 2*EPS.
        for label, problem, hmin in invariant_models:
            config = SolverConfig(TIGHT_EPS, heuristic=hmin)
            first = solve_lao_star(problem, config=config)
            states = [s for s in reachable_states(problem) if not problem.is_goal(s)]
            candidates = [s for s in states if s not in first.policy] or states
            s1 = candidates[len(candidates) // 2]
            warm = solve_lao_star(problem, s1, config, values=first.values.copy())
            cold = solve_lao_star(problem, s1, config)
            vi = solve_value_iteration(problem, SolverConfig(TIGHT_EPS))
            assert abs(warm.start_value - cold.start_value) <= 2 * TIGHT_EPS, label
            assert abs(warm.start_value - vi.values[s1]) <= 2 * EPS, label
            assert s1 in warm.policy, label

    def test_labelled_warm_start(self, invariant_models, monkeypatch):
        # A replan given the first solve's labels never backs a labelled
        # state up, yet reaches the value of an unlabelled solve, and its
        # own labels close the greedy graph together with the first ones.
        from prmplan import solvers

        backed_up = []

        def spy_backup(problem, values, s, heuristic=None):
            backed_up.append(s)
            return bellman_backup(problem, values, s, heuristic)

        monkeypatch.setattr(solvers, "bellman_backup", spy_backup)
        for label, problem, hmin in invariant_models:
            config = SolverConfig(TIGHT_EPS, heuristic=hmin)
            first = solve_lao_star(problem, config=config)
            assert first.converged, label
            first_labels = frozenset(first.policy)
            states = [s for s in reachable_states(problem) if not problem.is_goal(s)]
            candidates = [s for s in states if s not in first_labels]
            if not candidates:
                continue
            s1 = candidates[len(candidates) // 2]
            backed_up.clear()
            warm = solve_lao_star(
                problem, s1, config, values=first.values.copy(), solved=first_labels
            )
            assert not first_labels.intersection(backed_up), label
            warm_labels = frozenset(warm.policy)
            assert warm.converged and s1 in warm_labels, label
            assert not warm_labels & first_labels, label
            cold = solve_lao_star(problem, s1, config)
            assert abs(warm.start_value - cold.start_value) <= 2 * TIGHT_EPS, label
            closed = warm_labels | first_labels
            policy = {**first.policy, **warm.policy}
            for s in warm_labels:
                for s2, _ in problem.transition(s, policy[s]):
                    assert s2 in closed or problem.is_goal(s2), f"{label}: {s} -> {s2}"

    def test_a_labelled_start_is_still_expanded(self, invariant_models):
        # The start is entered even when it is labelled; its successors
        # are all labelled or goals, so the pass ends there.
        for label, problem, hmin in invariant_models:
            config = SolverConfig(TIGHT_EPS, heuristic=hmin)
            first = solve_lao_star(problem, config=config)
            assert first.converged, label
            again = solve_lao_star(
                problem, config=config, values=first.values.copy(), solved=frozenset(first.policy)
            )
            assert again.policy == {problem.start: first.policy[problem.start]}, label
            assert again.start_value == pytest.approx(first.start_value, abs=TIGHT_EPS)


class TestHmin:
    def test_goal_adjacent_state(self, chain3):
        h = compute_hmin(chain3)
        assert h(1) == pytest.approx(1.0, abs=2 * EPS)

    def test_positional_start_and_config(self, risky_fork):
        # The call shape perfbench uses: s0 and a config, both positional.
        problem, _ = risky_fork
        h = compute_hmin(problem, problem.start, SolverConfig())
        assert h(problem.start) == compute_hmin(problem)(problem.start) == 2.0

    def test_start_other_than_s0_refused(self, chain3):
        with pytest.raises(ValueError, match="from s0"):
            compute_hmin(chain3, 1)

    def test_min_successor_relaxation(self):
        # One action, two outcomes with different remaining costs: h takes
        # the cheaper successor, so it lower-bounds the expectation.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 3.0},
            start=0,
            goals={2},
        )
        h = compute_hmin(problem, start=0)
        assert h(0) == pytest.approx(1.0, abs=2 * EPS)

    @pytest.mark.parametrize("seed", range(4))
    def test_admissible_against_vi(self, seed):
        problem = random_proper_ssp(seed)
        vi = solve_value_iteration(problem, SolverConfig(epsilon=1e-9))
        h = compute_hmin(problem)
        for s in reachable_states(problem):
            assert h(s) <= vi.values[s] + 2 * EPS

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_on_random_ssps(self, seed):
        problem = random_proper_ssp(seed)
        h = compute_hmin(problem)
        assert {s: h(s) for s in reachable_states(problem)} == hmin_reference(problem)

    @pytest.mark.parametrize("instance", ["small_sailing", "tiny_racetrack", "small_ev"])
    def test_exact_on_domains(self, instance, request):
        problem, _ = request.getfixturevalue(instance)
        h = compute_hmin(problem)
        assert {s: h(s) for s in reachable_states(problem)} == hmin_reference(problem)

    def test_exact_on_a_long_chain(self):
        # Each sweep settles one more state of the chain, so this takes one
        # sweep per state.
        n = 500
        problem = tabular_problem(
            transitions={(i, 0): [(i + 1, 1.0)] for i in range(n - 1)},
            costs={(i, 0): 1.0 for i in range(n - 1)},
            start=0,
            goals={n - 1},
        )
        h = compute_hmin(problem)
        assert [h(i) for i in range(n)] == [float(n - 1 - i) for i in range(n)]
        assert {s: h(s) for s in range(n)} == hmin_reference(problem)

    @pytest.mark.parametrize(
        "domain,instance",
        [("racetrack", "ring-3"), ("racetrack", "zigzag-5"), ("sailing", "8M"), ("ev", "gen-1")],
    )
    def test_reduced_model_hmin(self, domain, instance):
        # mlod keeps one outcome per pair, so its own h_min is its value
        # function; its supports are subsets of the base's, so that h_min is
        # never below the base's.
        from prmplan.domains import build_instance

        base, _ = build_instance(domain, instance)
        reduced = build_reduced_model(base, UniformSelector(MOST_LIKELY), name="mlod")
        h, h_base = compute_hmin(reduced), compute_hmin(base)
        vi = solve_value_iteration(reduced, SolverConfig(epsilon=EPS))
        for s in compile_model(reduced).states.tolist():
            assert abs(h(s) - vi.values[s]) <= 2 * EPS, s
            assert h(s) >= h_base(s), s

    @pytest.mark.parametrize("seed", range(4))
    def test_consistent_without_epsilon(self, seed):
        problem = random_proper_ssp(seed)
        h = compute_hmin(problem)
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            for a, c in zip(*problem.record(s)[:2]):
                for s2, _ in problem.transition(s, a):
                    assert h(s) <= c + h(s2)

    def test_trap_state_is_infinite(self):
        # State 1 loops on itself and never reaches the goal.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        h = compute_hmin(problem)
        assert h(1) == math.inf
        assert h(0) == 1.0

    def test_zero_cost_edge(self):
        # An SSP's non-goal costs are > 0, so the record of s0 rejects the
        # pair before h_min reads it.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 0.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        with pytest.raises(ModelError, match=r"\(s=0, a=0\): cost 0.0 is not > 0"):
            compute_hmin(problem)

    def test_parallel_actions_take_the_cheaper(self):
        # Both actions of s0 reach s1; h uses the cheaper, not their sum.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (0, 1): [(1, 1.0)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 2.0, (0, 1): 3.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        h = compute_hmin(problem)
        assert h(0) == 3.0

    def test_admissible_on_sailing(self, small_sailing):
        problem, _ = small_sailing
        vi = solve_value_iteration(problem)
        h = compute_hmin(problem)
        for s in reachable_states(problem)[::7]:
            assert h(s) <= vi.values[s] + 2 * EPS


class TestDeterministicSolver:
    """A determinized model is planned by LAO* like any other."""

    def test_matches_vi_on_deterministic_model(self):
        problem = tabular_problem(
            transitions={
                (0, 0): [(1, 1.0)],
                (0, 1): [(2, 1.0)],
                (1, 0): [(3, 1.0)],
                (2, 0): [(3, 1.0)],
            },
            costs={(0, 0): 1.0, (0, 1): 5.0, (1, 0): 1.0, (2, 0): 1.0},
            start=0,
            goals={3},
        )
        lao = solve_lao_star(problem)
        vi = solve_value_iteration(problem)
        assert lao.start_value == pytest.approx(vi.start_value, abs=2 * EPS)
        assert lao.policy == {0: 0, 1: 0}
