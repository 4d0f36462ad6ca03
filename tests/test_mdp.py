"""Core model layer: distributions, backups, reachability, validation."""

import argparse
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_solvers import random_proper_ssp

from prmplan import (
    FULL_MODEL,
    MOST_LIKELY,
    DeadEndError,
    ModelError,
    SelectorError,
    SolverConfig,
    SspProblem,
    TableSelector,
    UniformSelector,
    ValueTable,
    bellman_backup,
    build_reduced_model,
    compute_hmin,
    make_distribution,
    reachable_states,
    select_outcomes,
    solve_value_iteration,
    tabular_problem,
    validate_problem,
)
from prmplan.cli import _make_selector
from prmplan.domains import build_instance

REDUCTIONS = ("mlod", "m02", "rm01")


def reference_backup(problem, values, s):
    """The Bellman backup by plain loops over the per-pair API and
    ValueTable reads: costs first, then outcomes in distribution order. The
    first action's Q is taken as is; a later action replaces the best only
    when its Q is lower by more than a relative 1e-12 (any finite Q beats
    an infinite best)."""
    acts = problem.actions(s)
    if not acts:
        raise DeadEndError(f"state {s} has no applicable action")
    best_q = best_a = None
    for a in acts:
        q = problem.cost(s, a)
        for s2, p in problem.transition(s, a):
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
        values = ValueTable(values={1: 0.0, 2: 0.0})
        assert bellman_backup(chain3, values, 1) == (1.0, 0)

    def test_self_loop_single_backup(self, self_loop):
        values = ValueTable()  # all zeros
        value, action = bellman_backup(self_loop, values, 0)
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
        _, action = bellman_backup(problem, ValueTable(), 0)
        assert action == 0

    def test_dead_end_raises(self):
        problem = SspProblem(
            n_states=2,
            n_actions=1,
            start=0,
            goals={1},
            expand_fn=lambda s: [],
        )
        with pytest.raises(DeadEndError):
            bellman_backup(problem, ValueTable(), 0)

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_in_successor_values(self, low, high):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        lo, hi = min(low, high), max(low, high)
        v_low, _ = bellman_backup(problem, ValueTable(values={1: lo, 2: 0.0}), 0)
        v_high, _ = bellman_backup(problem, ValueTable(values={1: hi, 2: 0.0}), 0)
        assert v_high >= v_low


class TestBackupKernel:
    """bellman_backup reads per-state records and the table's dict; it must
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
        return bellman_backup(problem, ValueTable(lambda s: trap_value if s == 1 else 0.0), 0)

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

        kernel = ValueTable(counted(kernel_fills))
        reference = ValueTable(counted(reference_fills))
        for _ in range(sweeps):
            for s in states:
                got = bellman_backup(problem, kernel, s)
                want = reference_backup(problem, reference, s)
                assert got == want, f"state {s}"
                kernel[s] = got[0]
                reference[s] = want[0]
        assert kernel.known() == reference.known()
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
    as it is, a cut one is renormalized."""
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
                bellman_backup(reduced, ValueTable(), 0)
        with pytest.raises(SelectorError, match=r"s=0, a=1"):
            reduced.record(0)

    def test_model_error_names_the_pair(self):
        problem = SspProblem(
            n_states=2,
            n_actions=2,
            start=0,
            goals={1},
            expand_fn=lambda s: [(0, 1.0, [(1, 1.0)]), (1, 1.0, [(1, 0.5)])],
        )
        for _ in range(2):
            with pytest.raises(ModelError, match=r"s=0, a=1"):
                bellman_backup(problem, ValueTable(), 0)


class TestValueTable:
    def test_heuristic_fallback_cached(self):
        calls = []

        def h(s):
            calls.append(s)
            return 7.0

        table = ValueTable(h)
        assert table[3] == 7.0
        assert table[3] == 7.0
        assert calls == [3]

    def test_copy_is_independent(self):
        table = ValueTable(values={0: 1.0})
        clone = table.copy()
        clone[0] = 9.0
        assert table[0] == 1.0


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


class TestValidateProblem:
    def test_well_formed_chain(self, chain3):
        assert validate_problem(chain3) == []

    def test_goals_absorb_in_tabular(self, chain3):
        assert chain3.transition(2, 0) == ((2, 1.0),)
        assert chain3.cost(2, 0) == 0.0

    def test_bad_normalization_reported(self):
        problem = SspProblem(
            n_states=2,
            n_actions=1,
            start=0,
            goals={1},
            expand_fn=lambda s: [(0, 0.0, [(1, 1.0)])] if s == 1 else [(0, 1.0, [(1, 0.9)])],
        )
        violations = validate_problem(problem)
        assert any("s=0" in v and "mass" in v for v in violations)

    @staticmethod
    def goal_with_half_mass():
        """s0 -> goal(1), whose self-loop carries only half the mass."""
        return SspProblem(
            n_states=2,
            n_actions=1,
            start=0,
            goals={1},
            expand_fn=lambda s: [(0, 0.0, [(1, 0.5)])] if s == 1 else [(0, 1.0, [(1, 1.0)])],
        )

    def test_malformed_goal_distribution_reported(self):
        violations = validate_problem(self.goal_with_half_mass())
        assert any("s=1" in v and "mass" in v for v in violations)

    def test_violation_names_the_pair_once(self):
        (violation,) = validate_problem(self.goal_with_half_mass())
        assert violation.count("(s=1, a=0)") == 1, violation

    def test_trap_state_reported(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        violations = validate_problem(problem)
        assert any("state 1" in v and "proper" in v for v in violations)

    def test_cost_sign_violation_reported(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)]},
            costs={(0, 0): 0.0},
            start=0,
            goals={1},
        )
        violations = validate_problem(problem)
        assert any("cost sign" in v for v in violations)

    def test_inapplicable_action_rejected(self, chain3):
        with pytest.raises(ModelError, match="not applicable"):
            chain3.transition(0, 5)
