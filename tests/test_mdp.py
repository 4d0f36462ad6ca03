"""Core model layer: distributions, backups, reachability, model checks."""

import argparse
import math
from array import array

import numpy as np
import pytest
from conftest import SelectorError, TableSelector
from hypothesis import given
from hypothesis import strategies as st
from test_solvers import random_proper_ssp

from prmplan import (
    FULL_MODEL,
    MOST_LIKELY,
    ModelError,
    SolverConfig,
    SspProblem,
    UniformSelector,
    bellman_backup,
    build_reduced_model,
    compile_model,
    compute_hmin,
    make_distribution,
    proper_hmin,
    reachable_states,
    search_problem,
    select_outcomes,
    solve_lao_star,
    solve_value_iteration,
    tabular_problem,
)
from prmplan.cli import _make_selector
from prmplan.domains import build_instance

REDUCTIONS = ("mlod", "m02", "rm01")


def reference_backup(problem, values, s, heuristic=None):
    """The Bellman backup by plain loops over the per-pair API: costs
    first, then outcomes in distribution order, each unseen successor
    filled into `values` with its heuristic value (0.0 without one). The
    first action's Q is taken as is; a later action replaces the best only
    when its Q is lower by more than a relative 1e-12 (any finite Q beats
    an infinite best)."""
    acts = problem.actions(s)
    best_q = best_a = None
    for a in acts:
        q = problem.cost(s, a)
        for s2, p in problem.transition(s, a):
            if s2 not in values:
                values[s2] = heuristic(s2) if heuristic is not None else 0.0
            q += p * values[s2]
        if best_a is None:
            best_q, best_a = q, a
        elif best_q == math.inf:
            if q < best_q:
                best_q, best_a = q, a
        elif q < best_q - 1e-12 * abs(best_q):
            best_q, best_a = q, a
    return best_q, best_a


@pytest.fixture(scope="module")
def domain_models():
    """(label, base, {reduction name: selector}) for ring-3, sailing 8M and
    EV gen-1; reduced models are built fresh by each test, so every test
    starts from empty per-state records."""
    args = argparse.Namespace(samples=30, depth=4, seed=0, threshold=0.25)
    out = []
    for domain, instance in (("racetrack", "ring-3"), ("sailing", "8M"), ("ev", "gen-1")):
        base, predicate = build_instance(domain, instance)
        selectors = {n: _make_selector(n, base, predicate, args) for n in REDUCTIONS}
        out.append((f"{domain}-{instance}", base, selectors))
    return out


def model_variants(base, selectors):
    yield "base", base
    for name, selector in selectors.items():
        yield name, build_reduced_model(base, selector, name=name)


class TestMakeDistribution:
    def test_sorted_by_successor(self):
        assert make_distribution([(3, 0.5), (1, 0.5)]) == ((1, 0.5), (3, 0.5))

    def test_renormalizes_within_tolerance(self):
        dist = make_distribution([(0, 0.5 + 2e-10), (1, 0.5)])
        assert math.isclose(sum(p for _, p in dist), 1.0, abs_tol=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            make_distribution([])

    def test_rejects_duplicate_successor(self):
        with pytest.raises(ModelError, match="duplicate"):
            make_distribution([(1, 0.5), (1, 0.5)])

    def test_rejects_non_positive_probability(self):
        with pytest.raises(ModelError):
            make_distribution([(0, 0.0), (1, 1.0)])
        with pytest.raises(ModelError):
            make_distribution([(0, -0.1), (1, 1.1)])

    def test_rejects_mass_outside_tolerance(self):
        with pytest.raises(ModelError, match="mass"):
            make_distribution([(0, 0.5), (1, 0.4)])

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=6,
        )
    )
    def test_renormalized_mass_is_one(self, weights):
        total = sum(weights)
        entries = [(i, w / total) for i, w in enumerate(weights)]
        dist = make_distribution(entries)
        assert abs(sum(p for _, p in dist) - 1.0) <= 1e-12


class TestBellmanBackup:
    def test_deterministic_chain(self, chain3):
        assert bellman_backup(chain3, {1: 0.0, 2: 0.0}, 1) == (1.0, 0)

    def test_self_loop_single_backup(self, self_loop):
        value, action = bellman_backup(self_loop, {}, 0)  # all zeros
        assert value == pytest.approx(1.0)
        assert action == 0

    def test_self_loop_fixed_point_value(self, self_loop):
        solution = solve_value_iteration(self_loop, SolverConfig(epsilon=1e-9))
        assert solution.start_value == pytest.approx(2.0, abs=1e-6)

    def test_tie_breaks_to_lowest_action(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (0, 1): [(1, 1.0)]},
            costs={(0, 0): 1.0, (0, 1): 1.0},
            start=0,
            goals={1},
        )
        _, action = bellman_backup(problem, {}, 0)
        assert action == 0

    def test_dead_end_raises(self):
        problem = SspProblem(n_states=2, start=0, goals={1}, expand_fn=lambda s: [])
        with pytest.raises(ModelError, match="state 0 is not a goal and has no applicable action"):
            bellman_backup(problem, {}, 0)

    def test_heuristic_fill_stored_once(self, self_loop):
        calls = []

        def h(s):
            calls.append(s)
            return 7.0

        values = {}
        assert bellman_backup(self_loop, values, 0, h) == (1.0 + 7.0, 0)
        assert bellman_backup(self_loop, values, 0, h) == (1.0 + 7.0, 0)
        assert calls == [0, 1]
        assert values == {0: 7.0, 1: 7.0}

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_in_successor_values(self, low, high):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        lo, hi = min(low, high), max(low, high)
        v_low, _ = bellman_backup(problem, {1: lo, 2: 0.0}, 0)
        v_high, _ = bellman_backup(problem, {1: hi, 2: 0.0}, 0)
        assert v_high >= v_low


class TestBackupKernel:
    """bellman_backup reads per-state records and the value dict; it must
    equal the per-pair reference bit for bit, heuristic fills included."""

    @staticmethod
    def two_action_state(cost0, cost1, trap_value=0.0):
        # Both actions of state 0 reach the goal; action 0 may also pass
        # through a trap state 1, whose value the heuristic sets.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (0, 1): [(2, 1.0)], (1, 0): [(1, 1.0)]},
            costs={(0, 0): cost0, (0, 1): cost1, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        return bellman_backup(problem, {}, 0, lambda s: trap_value if s == 1 else 0.0)

    def test_near_ties_break_toward_lowest_action(self):
        assert self.two_action_state(1.0 + 7e-15, 1.0) == (1.0 + 7e-15, 0)
        assert self.two_action_state(1.0, 1.0 + 7e-15) == (1.0, 0)
        assert self.two_action_state(1.0 + 1e-9, 1.0) == (1.0, 1)

    def test_finite_q_beats_infinite_first_q(self):
        assert self.two_action_state(1.0, 5.0, trap_value=math.inf) == (5.0, 1)
        q, a = self.two_action_state(1.0, math.inf, trap_value=math.inf)
        assert (q, a) == (math.inf, 0)

    @staticmethod
    def assert_matches_reference(problem, heuristic, states, sweeps=2):
        kernel_fills, reference_fills = [], []

        def counted(fills):
            def h(s):
                fills.append(s)
                return heuristic(s)

            return h if heuristic is not None else None

        kernel_h, reference_h = counted(kernel_fills), counted(reference_fills)
        kernel, reference = {}, {}
        for _ in range(sweeps):
            for s in states:
                got = bellman_backup(problem, kernel, s, kernel_h)
                want = reference_backup(problem, reference, s, reference_h)
                assert got == want, f"state {s}"
                kernel[s] = got[0]
                reference[s] = want[0]
        assert list(kernel.items()) == list(reference.items())
        assert kernel_fills == reference_fills

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_on_random_ssps(self, seed):
        problem = random_proper_ssp(seed)
        states = reachable_states(problem)
        self.assert_matches_reference(problem, None, states)
        self.assert_matches_reference(problem, lambda s: 0.37 * s, states)

    def test_exact_on_domain_reductions(self, domain_models):
        for _, base, selectors in domain_models:
            states = reachable_states(base)
            hmin = compute_hmin(base)

            def skewed(s):
                # h_min leaves many exact ties between actions; this breaks most.
                return hmin(s) * (1.0 + 1e-3 * (s % 7))

            for _, problem in model_variants(base, selectors):
                self.assert_matches_reference(problem, hmin, states)
                self.assert_matches_reference(problem, skewed, states)


def expected_record(problem, s):
    """The record of s rebuilt from the base's raw domain callback and, on
    a reduced model, cut by the selector: a distribution kept whole stays
    as it is, a cut one is renormalized. A goal's is its self-loop."""
    if problem.is_goal(s):
        return (0,), (0.0,), (((s, 1.0),),)
    base = getattr(problem, "base", problem)
    expanded = {a: (c, outcomes) for a, c, outcomes in base._expand_fn(s)}
    acts = tuple(sorted(expanded))
    dists = []
    for a in acts:
        dist = make_distribution(expanded[a][1])
        if problem is not base:
            kept = select_outcomes(problem.selector.principle(s, a), dist)
            dist = dist if kept is dist else make_distribution(kept)
        dists.append(dist)
    return acts, tuple(expanded[a][0] for a in acts), tuple(dists)


class TestStateRecord:
    def test_equals_per_pair_api(self, domain_models):
        for label, base, selectors in domain_models:
            for name, problem in model_variants(base, selectors):
                for s in reachable_states(base):
                    expected = expected_record(problem, s)
                    assert problem.record(s) == expected, f"{label}/{name} state {s}"
                    for a, c, dist in zip(*expected):
                        assert problem.cost(s, a) == c
                        assert problem.transition(s, a) == dist

    def test_actions_in_id_order(self):
        problem = tabular_problem(
            transitions={(0, 1): [(1, 1.0)], (0, 0): [(1, 0.5), (0, 0.5)]},
            costs={(0, 1): 2.0, (0, 0): 1.0},
            start=0,
            goals={1},
        )
        assert problem.record(0) == ((0, 1), (1.0, 2.0), (((0, 0.5), (1, 0.5)), ((1, 1.0),)))

    def test_full_reduction_shares_base_distributions(self, domain_models):
        for label, base, _ in domain_models:
            full = build_reduced_model(base, UniformSelector(FULL_MODEL))
            for s in reachable_states(base):
                for mine, theirs in zip(full.record(s)[2], base.record(s)[2]):
                    assert mine is theirs, f"{label} state {s}"

    def test_selector_error_leaves_no_partial_record(self, risky_fork):
        problem, _ = risky_fork
        reduced = build_reduced_model(problem, TableSelector({(0, 0): MOST_LIKELY}))
        for _ in range(3):
            with pytest.raises(SelectorError, match=r"s=0, a=1"):
                bellman_backup(reduced, {}, 0)
        with pytest.raises(SelectorError, match=r"s=0, a=1"):
            reduced.record(0)

    def test_model_error_names_the_pair(self):
        problem = SspProblem(
            n_states=2,
            start=0,
            goals={1},
            expand_fn=lambda s: [(0, 1.0, [(1, 1.0)]), (1, 1.0, [(1, 0.5)])],
        )
        for _ in range(2):
            with pytest.raises(ModelError, match=r"s=0, a=1"):
                bellman_backup(problem, {}, 0)


def raising_on(goal, transitions):
    """An expand over `transitions` ({state: [(action, cost, outcomes)]})
    that logs each state it is called on and raises on the goal."""
    calls = []

    def expand(state):
        calls.append(state)
        if state == goal:
            raise AssertionError("expand called on the goal")
        return transitions[state]

    return expand, calls


class TestSearchProblem:
    # "s" reaches "y" and "x" by action 0 and "z" by action 1; "g" is the goal.
    TRANSITIONS = {
        "s": [(0, 1.0, {"y": 0.5, "x": 0.5}), (1, 2.0, {"z": 1.0})],
        "y": [(0, 1.0, {"g": 1.0})],
        "x": [(0, 1.0, {"w": 1.0})],
        "z": [(0, 1.0, {"x": 0.25, "s": 0.75})],
        "w": [(0, 1.0, {"g": 1.0})],
    }

    def test_ids_follow_breadth_first_discovery(self):
        expand, calls = raising_on("g", self.TRANSITIONS)
        problem = search_problem("s", expand, lambda state: state == "g", name="hand")
        assert problem.states == ["s", "y", "x", "z", "g", "w"]
        assert calls == ["s", "y", "x", "z", "w"]
        assert (problem.n_states, problem.start, problem.goals) == (6, 0, {4})
        assert problem.name == "hand"

    def test_records_map_back_to_states(self):
        expand, _ = raising_on("g", self.TRANSITIONS)
        problem = search_problem("s", expand, lambda state: state == "g")
        ids = {state: i for i, state in enumerate(problem.states)}
        for i, state in enumerate(problem.states):
            if state == "g":
                assert problem.record(i) == ((0,), (0.0,), (((i, 1.0),),))
                continue
            want = [
                (a, c, make_distribution((ids[succ], p) for succ, p in outcomes.items()))
                for a, c, outcomes in self.TRANSITIONS[state]
            ]
            assert list(zip(*problem.record(i))) == want, state

    def test_goal_never_expanded_when_solving(self):
        expand, _ = raising_on("g", self.TRANSITIONS)
        problem = search_problem("s", expand, lambda state: state == "g")
        lao = solve_lao_star(problem, config=SolverConfig(epsilon=1e-9))
        vi = solve_value_iteration(problem, SolverConfig(epsilon=1e-9))
        assert lao.start_value == pytest.approx(vi.start_value, abs=1e-6)
        proper_hmin(problem)

    def test_hand_built_goal_needs_no_expand_fn(self):
        # A hand-built problem whose callback raises on its goal solves too.
        def expand_fn(s):
            if s == 2:
                raise AssertionError("expand_fn called on the goal")
            return [(0, 1.0, [(s + 1, 1.0)])]

        problem = SspProblem(n_states=3, start=0, goals={2}, expand_fn=expand_fn)
        assert solve_lao_star(problem).start_value == pytest.approx(2.0)
        assert solve_value_iteration(problem).start_value == pytest.approx(2.0)


class TestReachability:
    def test_bfs_order_from_start(self, chain3):
        assert reachable_states(chain3) == [0, 1, 2]

    def test_goal_successors_not_expanded(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0},
            start=0,
            goals={1},
        )
        assert reachable_states(problem) == [0, 1]


def flatten_reference(problem):
    """The compiled arrays by a plain loop, one outcome at a time: states
    sorted, pairs in record order, each pair's cumulative probabilities
    summed from 0.0 in outcome order and shifted by the pair id, its last
    entry set to exactly pair + 1, successors as positions in `states`."""
    states = sorted(reachable_states(problem))
    first_pair, first_outcome = array("q", [0]), array("q", [0])
    action, cost, succ, prob, cum = array("q"), array("d"), array("q"), array("d"), array("d")
    for s in states:
        acts, costs, dists = problem.record(s)
        action.extend(acts)
        cost.extend(costs)
        for dist in dists:
            pair = len(first_outcome) - 1
            acc = 0.0
            for s2, p in dist:
                acc += p
                succ.append(s2)
                prob.append(p)
                cum.append(pair + acc)
            cum[-1] = pair + 1.0
            first_outcome.append(len(succ))
        first_pair.append(len(first_outcome) - 1)
    states = np.array(states, dtype=np.int64)
    return {
        "states": states,
        "first_pair": np.frombuffer(first_pair, dtype=np.int64),
        "first_outcome": np.frombuffer(first_outcome, dtype=np.int64),
        "action": np.frombuffer(action, dtype=np.int64),
        "cost": np.frombuffer(cost, dtype=np.float64),
        "succ": np.searchsorted(states, np.frombuffer(succ, dtype=np.int64)),
        "prob": np.frombuffer(prob, dtype=np.float64),
        "cum": np.frombuffer(cum, dtype=np.float64),
        "goal": np.array([problem.is_goal(s) for s in states.tolist()], dtype=bool),
    }


class TestCompileModel:
    @pytest.mark.parametrize(
        "instance",
        [*(("random", seed) for seed in range(4)), ("sailing", "8M"), ("ev", "gen-1")],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_equals_plain_loop_reference(self, instance):
        # Same additions in the same order: every array is equal exactly.
        if instance[0] == "random":
            problem = random_proper_ssp(instance[1])
        else:
            problem, _ = build_instance(*instance)
        model = compile_model(problem)
        expected = flatten_reference(problem)
        assert set(model._fields) == set(expected)
        for field, want in expected.items():
            got = getattr(model, field)
            assert got.dtype == want.dtype, field
            assert np.array_equal(got, want), field

    def test_memo_is_one_slot(self, chain3):
        # Every model is compiled from s0 only, once.
        model = compile_model(chain3)
        assert compile_model(chain3) is model
        assert model.states.tolist() == [0, 1, 2]

    def test_reduced_model_compiles_its_own_records(self, risky_fork):
        problem, _ = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        assert compile_model(reduced) is not compile_model(problem)
        assert compile_model(reduced).states.tolist() == [0, 1, 3]


class TestValidateProblem:
    """A problem is checked where each state's record is built; `proper_hmin`
    checks every state reachable from s0 that way and then its properness."""

    def test_well_formed_chain(self, chain3):
        assert proper_hmin(chain3)(0) == 2.0

    def test_goals_absorb_in_tabular(self, chain3):
        assert chain3.record(2) == ((0,), (0.0,), (((2, 1.0),),))

    def test_bad_normalization_reported(self):
        problem = SspProblem(
            n_states=2,
            start=0,
            goals={1},
            expand_fn=lambda s: [(0, 0.0, [(1, 1.0)])] if s == 1 else [(0, 1.0, [(1, 0.9)])],
        )
        with pytest.raises(ModelError, match=r"s=0.*mass"):
            proper_hmin(problem)

    def test_violation_names_the_pair_once(self):
        # s0 -> goal(1), with only half the mass on s0's one action.
        problem = SspProblem(
            n_states=2, start=0, goals={1}, expand_fn=lambda s: [(0, 1.0, [(1, 0.5)])]
        )
        with pytest.raises(ModelError) as info:
            proper_hmin(problem)
        assert str(info.value).count("(s=0, a=0)") == 1, info.value

    def test_trap_state_reported(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        with pytest.raises(ValueError, match="state 1 is reachable from s0 but reaches no goal"):
            proper_hmin(problem)

    def test_cost_sign_violation_reported(self):
        # The pair (1, 0) is reached only through s0, so the whole reachable
        # model is checked, not just the start's record.
        for cost in (0.0, -1.0, math.nan):
            problem = tabular_problem(
                transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)]},
                costs={(0, 0): 1.0, (1, 0): cost},
                start=0,
                goals={2},
            )
            with pytest.raises(ModelError) as info:
                proper_hmin(problem)
            assert str(info.value) == f"at (s=1, a=0): cost {cost} is not > 0"

    def test_infinite_cost_passes(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (0, 1): [(1, 1.0)]},
            costs={(0, 0): math.inf, (0, 1): 2.0},
            start=0,
            goals={1},
        )
        assert proper_hmin(problem)(0) == 2.0

    def test_inapplicable_action_rejected(self, chain3):
        with pytest.raises(ModelError, match="not applicable"):
            chain3.transition(0, 5)
