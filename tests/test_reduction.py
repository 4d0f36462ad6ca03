"""Outcome selection, selectors, and reduced model assembly."""

import numpy as np
import pytest
from conftest import SelectorError, TableSelector
from hypothesis import given
from hypothesis import strategies as st

from prmplan import (
    FULL_MODEL,
    M02,
    MOST_LIKELY,
    OutcomeSelectionPrinciple,
    RiskPredicate,
    RiskProfile,
    UniformSelector,
    ZeroOneSelector,
    build_reduced_model,
    make_distribution,
    reachable_states,
    select_outcomes,
    solve_lao_star,
    solve_value_iteration,
    tabular_problem,
)


@st.composite
def distributions(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = sum(weights)
    return make_distribution([(i, w / total) for i, w in enumerate(weights)])


class TestPrinciples:
    def test_known_kinds_only(self):
        with pytest.raises(ValueError):
            OutcomeSelectionPrinciple("median")

    def test_greedy_k_requires_positive_k(self):
        with pytest.raises(ValueError):
            OutcomeSelectionPrinciple("greedy_k", 0)


class TestSelectOutcomes:
    def test_most_likely_keeps_argmax(self):
        dist = make_distribution([(1, 0.6), (2, 0.4)])
        assert select_outcomes(MOST_LIKELY, dist) == ((1, 1.0),)

    def test_greedy_two_renormalizes(self):
        dist = make_distribution([(1, 0.5), (2, 0.3), (3, 0.2)])
        reduced = dict(select_outcomes(M02, dist))
        assert reduced[1] == pytest.approx(0.625)
        assert reduced[2] == pytest.approx(0.375)
        assert 3 not in reduced

    def test_probability_tie_breaks_to_lowest_id(self):
        dist = make_distribution([(1, 0.5), (2, 0.5)])
        assert select_outcomes(MOST_LIKELY, dist) == ((1, 1.0),)

    def test_full_model_is_identity(self):
        dist = make_distribution([(1, 0.5), (2, 0.3), (3, 0.2)])
        assert select_outcomes(FULL_MODEL, dist) is dist

    def test_k_at_least_support_is_identity(self):
        dist = make_distribution([(1, 0.5), (2, 0.5)])
        assert select_outcomes(M02, dist) == dist

    @given(distributions())
    def test_subset_property(self, dist):
        for principle in (MOST_LIKELY, M02, FULL_MODEL):
            reduced = select_outcomes(principle, dist)
            assert {s for s, _ in reduced} <= {s for s, _ in dist}

    @given(distributions())
    def test_renormalization_proportionality(self, dist):
        full = dict(dist)
        for principle in (MOST_LIKELY, M02):
            reduced = select_outcomes(principle, dist)
            mass = sum(full[s] for s, _ in reduced)
            for s, p in reduced:
                assert abs(p - full[s] / mass) <= 1e-9
            assert abs(sum(p for _, p in reduced) - 1.0) <= 1e-9

    @given(distributions())
    def test_idempotence(self, dist):
        for principle in (MOST_LIKELY, FULL_MODEL):
            once = select_outcomes(principle, dist)
            assert select_outcomes(principle, once) == once


class TestBuildReducedModel:
    def test_full_selector_identity(self, risky_fork):
        problem, _ = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(FULL_MODEL))
        for s in reachable_states(problem):
            for a in problem.actions(s):
                assert reduced.transition(s, a) == problem.transition(s, a)

    def test_mlod_selector_determinizes(self, risky_fork):
        problem, _ = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        for s in reachable_states(problem):
            for a in problem.actions(s):
                assert len(reduced.transition(s, a)) == 1

    def test_shares_costs_start_goals(self, risky_fork):
        problem, _ = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        assert reduced.start == problem.start
        assert reduced.goals == problem.goals
        assert reduced.record(0)[1][0] == problem.record(0)[1][0]

    def test_table_selector_missing_pair(self, risky_fork):
        # The selector is asked for every pair of a state at once, so the
        # missing (0, 1) fails both pairs of state 0.
        problem, _ = risky_fork
        reduced = build_reduced_model(problem, TableSelector({(0, 0): MOST_LIKELY}))
        for a in (0, 1):
            with pytest.raises(SelectorError, match=r"s=0, a=1"):
                reduced.transition(0, a)

    def test_pair_level_full_keeps_risky_outcome(self, risky_fork):
        # FullModel only on the pair leading to the risky state, MLOD on the
        # rest: the risky successor survives exactly there.
        problem, _ = risky_fork
        selector = TableSelector(
            {
                (0, 0): FULL_MODEL,
                (0, 1): MOST_LIKELY,
                (1, 0): MOST_LIKELY,
                (2, 0): MOST_LIKELY,
            }
        )
        reduced = build_reduced_model(problem, selector)
        assert {s for s, _ in reduced.transition(0, 0)} == {1, 2}
        assert len(reduced.transition(1, 0)) == 1

    def test_goal_record_needs_no_principle(self, risky_fork):
        # The table covers every non-goal pair; the goal's self-loop is the
        # base's record, so VI (which compiles the goal too) agrees with LAO*.
        problem, _ = risky_fork
        pairs = [(s, a) for s in range(3) for a in problem.actions(s)]
        reduced = build_reduced_model(problem, TableSelector(dict.fromkeys(pairs, MOST_LIKELY)))
        assert reduced.record(3) is problem.record(3)
        lao = solve_lao_star(reduced).start_value
        assert lao == 2.0
        assert solve_value_iteration(reduced).start_value == pytest.approx(lao, abs=2e-3)


class TestZeroOneSelector:
    def test_threshold_range_checked(self, risky_fork):
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate)
        with pytest.raises(ValueError):
            ZeroOneSelector(profile, 1.5)

    def test_reach_at_threshold_gets_full_model(self, risky_fork):
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate)
        profile._values = np.array([0.3, 0.0, 1.0, 0.0])
        selector = ZeroOneSelector(profile, 0.25)
        assert selector.principle(0, 0) == FULL_MODEL
        assert selector.principle(0, 1) == FULL_MODEL

    def test_zero_reach_is_pure_determinization(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.7), (2, 0.3)], (1, 0): [(2, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0},
            start=0,
            goals={2},
        )
        predicate = RiskPredicate(evaluate=lambda s: False)
        profile = RiskProfile(problem, predicate)
        selector = ZeroOneSelector(profile, 0.25)
        for s in (0, 1):
            for a in problem.actions(s):
                assert selector.principle(s, a) == MOST_LIKELY

    def test_one_step_guard_overrides_low_reach(self, risky_fork):
        # Even when the state's own reach estimate is below threshold, a
        # pair whose true support contains a risky state keeps the full model.
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate)
        profile._values = np.array([0.0, 0.0, 1.0, 0.0])
        selector = ZeroOneSelector(profile, 0.25)
        assert selector.principle(0, 0) == FULL_MODEL  # 10% branch into s2
        assert selector.principle(0, 1) == MOST_LIKELY

    def test_zero_one_cardinality(self, risky_fork):
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate, seed=0)
        reduced = build_reduced_model(problem, ZeroOneSelector(profile, 0.25))
        for s in reachable_states(problem):
            for a in problem.actions(s):
                full_n = len(problem.transition(s, a))
                assert len(reduced.transition(s, a)) in (1, full_n)

    @pytest.mark.parametrize(
        "instance", [("racetrack", "ring-3"), ("sailing", "8M"), ("ev", "gen-1")], ids="-".join
    )
    def test_one_step_guard_matches_predicate(self, instance):
        # The guard evaluates the predicate on the outcomes of the pair's
        # base distribution; every rm01 assignment equals the one computed
        # here from the per-pair API, and the guard decides some of them.
        from prmplan.domains import build_instance

        problem, predicate = build_instance(*instance)
        profile = RiskProfile(problem, predicate, seed=1)
        selector = ZeroOneSelector(profile, 0.25)
        guarded = 0
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            for a in problem.actions(s):
                one_step = any(predicate(s2) for s2, _ in problem.transition(s, a))
                guarded += one_step and profile.reach(s) < 0.25
                expected = (
                    FULL_MODEL if profile.reach(s) >= 0.25 or one_step else MOST_LIKELY
                )
                assert selector.principle(s, a) == expected, (s, a)
        assert guarded > 0
