"""Solvers: VI oracle, LAO*, h_min heuristic, and the deterministic A* path."""

import math

import numpy as np
import pytest

from prmplan import (
    DeadEndError,
    EnumerationCapError,
    ModelError,
    NonconvergenceError,
    SolverConfig,
    compute_hmin,
    reachable_states,
    solve_deterministic,
    solve_lao_star,
    solve_value_iteration,
    tabular_problem,
)

EPS = 1e-3


def random_proper_ssp(seed: int, n_states: int = 12, n_actions: int = 3):
    """A seeded random SSP kept proper by wiring every action to sometimes
    step one state closer to the goal (state n-1)."""
    rng = np.random.default_rng(seed)
    transitions = {}
    costs = {}
    goal = n_states - 1
    for s in range(goal):
        for a in range(n_actions):
            succs = {s + 1: 0.4}
            for _ in range(int(rng.integers(1, 3))):
                succs[int(rng.integers(0, n_states))] = float(rng.uniform(0.1, 0.5))
            total = sum(succs.values())
            transitions[(s, a)] = [(s2, p / total) for s2, p in sorted(succs.items())]
            costs[(s, a)] = float(rng.uniform(0.5, 3.0))
    return tabular_problem(transitions, costs, start=0, goals={goal})


def hmin_reference(problem):
    """Bellman-Ford on the all-outcomes-min relaxation, by plain loops:
    h(s) = min_a [C(s,a) + min_{s'} h(s')], h = 0 on goals."""
    states = reachable_states(problem)
    h = {s: 0.0 if problem.is_goal(s) else math.inf for s in states}
    for _ in range(len(states)):
        changed = False
        for s in states:
            if problem.is_goal(s):
                continue
            for a in problem.actions(s):
                for s2, _ in problem.transition(s, a):
                    q = problem.cost(s, a) + h[s2]
                    if q < h[s]:
                        h[s] = q
                        changed = True
        if not changed:
            return h
    raise AssertionError("Bellman-Ford did not settle")


class TestValueIteration:
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

    def test_enumeration_cap_refusal(self, chain3):
        with pytest.raises(EnumerationCapError):
            solve_value_iteration(chain3, SolverConfig(enumeration_cap=2))

    def test_policy_covers_non_goal_states(self, chain3):
        solution = solve_value_iteration(chain3)
        assert set(solution.policy) == {0, 1}


class TestLaoStar:
    def test_deterministic_chain_values(self, chain3):
        solution = solve_lao_star(chain3)
        assert solution.start_value == pytest.approx(2.0, abs=2 * EPS)
        assert solution.values[1] == pytest.approx(1.0, abs=2 * EPS)

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

    def test_improper_model_raises_nonconvergence(self):
        # No goal is reachable: LAO* must surface the failure with its
        # best-so-far solution instead of spinning forever.
        problem = tabular_problem(
            transitions={(0, 0): [(0, 0.5), (1, 0.5)], (1, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
            n_states=3,
        )
        with pytest.raises(NonconvergenceError) as err:
            solve_lao_star(problem, config=SolverConfig(max_iterations=500))
        assert err.value.solution.converged is False

    def test_expands_lazily(self, small_sailing):
        problem, _ = small_sailing
        solution = solve_lao_star(problem)
        assert solution.expanded_states < len(reachable_states(problem))


class TestHmin:
    def test_goal_adjacent_state(self, chain3):
        h = compute_hmin(chain3, start=1)
        assert h(1) == pytest.approx(1.0, abs=2 * EPS)

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

    def test_exact_on_sailing(self, small_sailing):
        problem, _ = small_sailing
        h = compute_hmin(problem)
        assert {s: h(s) for s in reachable_states(problem)} == hmin_reference(problem)

    @pytest.mark.parametrize("seed", range(4))
    def test_consistent_without_epsilon(self, seed):
        problem = random_proper_ssp(seed)
        h = compute_hmin(problem)
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            for a in problem.actions(s):
                for s2, _ in problem.transition(s, a):
                    assert h(s) <= problem.cost(s, a) + h(s2)

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
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 0.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        h = compute_hmin(problem)
        assert h(0) == 1.0

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
    def test_chain_path_cost(self, chain3):
        solution = solve_deterministic(chain3)
        assert solution.start_value == 2.0
        assert solution.policy == {0: 0, 1: 0}

    def test_start_is_goal(self, chain3):
        solution = solve_deterministic(chain3, start=2)
        assert solution.policy == {}
        assert solution.start_value == 0.0

    def test_no_path_raises_dead_end(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(0, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
            n_states=3,
        )
        with pytest.raises(DeadEndError):
            solve_deterministic(problem)

    def test_stochastic_input_rejected(self, self_loop):
        with pytest.raises(ModelError):
            solve_deterministic(self_loop)

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
        astar = solve_deterministic(problem).start_value
        vi = solve_value_iteration(problem).start_value
        assert astar == pytest.approx(vi, abs=2 * EPS)
