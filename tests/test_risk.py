"""Risk predicates, NSE sets, the random walker, and reachability estimates."""

import math
from collections import Counter

import numpy as np
import pytest
from test_mdp import EV_FILE

from prmplan import (
    FULL_MODEL,
    MOST_LIKELY,
    ModelError,
    RiskPredicate,
    RiskProfile,
    UniformSelector,
    ZeroOneSelector,
    build_reduced_model,
    compile_model,
    exact_risk_reachability,
    nse_set,
    reachable_states,
    tabular_problem,
)
from prmplan.domains import build_instance
from prmplan.risk import _walk_positions


class TestNseSet:
    def test_dropped_risky_outcome_detected(self, risky_fork):
        problem, predicate = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        assert nse_set(problem, reduced, predicate) == {2}

    def test_full_model_has_no_nse(self, risky_fork):
        problem, predicate = risky_fork
        reduced = build_reduced_model(problem, UniformSelector(FULL_MODEL))
        assert nse_set(problem, reduced, predicate) == set()

    def test_non_risky_drop_ignored(self, risky_fork):
        problem, _ = risky_fork
        benign = RiskPredicate(evaluate=lambda s: False)
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        assert nse_set(problem, reduced, benign) == set()

    def test_unreachable_states_excluded(self):
        # State 5 drops a risky outcome but is unreachable from s0.
        problem = tabular_problem(
            transitions={
                (0, 0): [(1, 1.0)],
                (5, 0): [(1, 0.9), (6, 0.1)],
                (6, 0): [(1, 1.0)],
            },
            costs={(0, 0): 1.0, (5, 0): 1.0, (6, 0): 1.0},
            start=0,
            goals={1},
        )
        predicate = RiskPredicate(evaluate=lambda s: s == 6)
        reduced = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
        assert nse_set(problem, reduced, predicate) == set()


NO_RISK = RiskPredicate(evaluate=lambda s: False)

# One instance per domain with enough states and branching to exercise the
# compiled model: sailing 8M, racetrack zigzag-5 and EV gen-1.
DOMAIN_INSTANCES = [("sailing", "8M"), ("racetrack", "zigzag-5"), ("ev", "gen-1")]


@pytest.fixture(scope="module", params=DOMAIN_INSTANCES, ids="-".join)
def domain_table(request):
    problem, predicate = build_instance(*request.param)
    return problem, predicate, RiskProfile(problem, predicate, seed=3)


def walks_from(profile, s, n, depth, seed):
    """State ids of n walks from state s over the profile's model and table."""
    model = profile._model
    return model.states[_walk_positions(model, profile._cum, model.position(s), n, depth, seed)]


class FixedDraws:
    """Stands in for a walk's generator: each random(n) returns the next of
    the given arrays."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def random(self, n):
        u = next(self._arrays)
        assert len(u) == n
        return u


def supports(problem, s):
    """Successor ids of each applicable action of s, in record order."""
    return [[s2 for s2, _ in dist] for dist in problem.record(s)[2]]


class TestSampleWalks:
    """The walker that `RiskProfile.reach` samples with, over a profile's
    model and table."""

    def test_depth_one_transitions(self, self_loop):
        walks = walks_from(RiskProfile(self_loop, NO_RISK), 0, n=50, depth=1, seed=1)
        assert walks.shape == (50, 2)
        assert (walks[:, 0] == 0).all()
        assert set(walks[:, 1].tolist()) <= {0, 1}

    def test_deterministic_chain_identical(self, chain3):
        walks = walks_from(RiskProfile(chain3, NO_RISK), 0, n=10, depth=5, seed=3)
        assert walks.tolist() == [[0, 1, 2, 2, 2, 2]] * 10

    def test_goal_absorbs(self, chain3):
        walks = walks_from(RiskProfile(chain3, NO_RISK), 2, n=5, depth=9, seed=0)
        assert walks.tolist() == [[2] * 10] * 5

    def test_seed_determinism(self, self_loop):
        profile = RiskProfile(self_loop, NO_RISK)
        a = walks_from(profile, 0, n=100, depth=4, seed=7)
        b = walks_from(profile, 0, n=100, depth=4, seed=7)
        c = walks_from(profile, 0, n=100, depth=4, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_binomial_concentration(self, self_loop):
        walks = walks_from(RiskProfile(self_loop, NO_RISK), 0, n=10_000, depth=1, seed=0)
        frac = float((walks[:, -1] == 1).mean())
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_steps_follow_positive_outcomes(self, domain_table):
        # Every step leaves a state through a positive-probability outcome
        # of one of its applicable actions (a goal through its self-loop).
        problem, _, profile = domain_table
        steps = set()
        for s in profile._model.states[::7].tolist():
            walks = walks_from(profile, s, n=20, depth=4, seed=[5, s])
            pairs = np.stack([walks[:, :-1].ravel(), walks[:, 1:].ravel()], axis=1)
            steps.update(map(tuple, np.unique(pairs, axis=0).tolist()))
        assert steps
        for s, s2 in steps:
            assert any(s2 in support for support in supports(problem, s)), (s, s2)


class TestPairTable:
    """The pair table layout of the compiled model that the walks read, and
    the risk profile's inverse-CDF table over it."""

    def test_layout_matches_records(self, domain_table):
        problem, _, profile = domain_table
        table, cum = profile._model, profile._cum
        assert table.states.tolist() == sorted(reachable_states(problem))
        # The table marks no goal: a goal's record, laid out below, is its self-loop.
        for g in problem.goals & set(table.states.tolist()):
            assert problem.record(g) == ((0,), (0.0,), (((g, 1.0),),))
        for i, s in enumerate(table.states.tolist()):
            _, costs, dists = problem.record(s)
            pairs = range(table.first_pair[i], table.first_pair[i + 1])
            assert table.cost[pairs.start:pairs.stop].tolist() == list(costs)
            assert len(pairs) == len(dists)
            for pair, dist in zip(pairs, dists):
                lo, hi = table.first_outcome[pair], table.first_outcome[pair + 1]
                assert table.states[table.succ[lo:hi]].tolist() == [s2 for s2, _ in dist]
                assert table.prob[lo:hi].tolist() == [p for _, p in dist]
                probs = np.diff(np.concatenate(([pair], cum[lo:hi])))
                assert probs == pytest.approx([p for _, p in dist], abs=1e-9)

    def test_last_cumulative_entry_is_pair_plus_one(self, domain_table):
        _, _, profile = domain_table
        table, cum = profile._model, profile._cum
        n_pairs = len(table.first_outcome) - 1
        assert n_pairs == table.first_pair[-1]
        last = cum[table.first_outcome[1:] - 1]
        assert np.array_equal(last, np.arange(1, n_pairs + 1, dtype=float))
        assert (np.diff(cum) >= 0).all()

    def test_dead_end_raises(self):
        # State 1 is neither a goal nor has an action: a walk could not leave it.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)]}, costs={(0, 0): 1.0}, start=0, goals={2}
        )
        with pytest.raises(ModelError, match="state 1 is not a goal and has no applicable action"):
            compile_model(problem)

    def test_every_draw_lands_in_its_pair(self, domain_table, monkeypatch):
        # One walk step per pair, read as outcome indices: walk i starts at
        # pair i's state and picks pair i, then draws at u[i], over a model
        # whose outcome j leads to position j.
        _, _, profile = domain_table
        table, cum = profile._model, profile._cum
        n_pairs = len(table.first_outcome) - 1
        pairs = np.arange(n_pairs)
        n_acts = np.diff(table.first_pair)
        start = np.repeat(np.arange(len(table.states)), n_acts)
        pick = (pairs - table.first_pair[start] + 0.5) / n_acts[start]
        by_outcome = table._replace(succ=np.arange(len(table.succ)))
        below_one = np.nextafter(1.0, 0.0)
        rng = np.random.default_rng(0)
        monkeypatch.setattr(np.random, "default_rng", lambda draws: draws)
        for u in (np.zeros(n_pairs), np.full(n_pairs, below_one), rng.random(n_pairs)):
            j = _walk_positions(by_outcome, cum, start, n_pairs, 1, FixedDraws(pick, u))[:, 1]
            assert (table.first_outcome[:-1] <= j).all()
            assert (j < table.first_outcome[1:]).all()


class TestRiskProfile:
    def test_risky_mask_matches_predicate(self, domain_table):
        problem, predicate, profile = domain_table
        model, risky = profile._model, profile._risky
        assert model is compile_model(problem)
        assert risky.tolist() == [predicate(s) for s in model.states.tolist()]

    @pytest.mark.parametrize(
        "instance", [("racetrack", "zigzag-5"), ("ev", EV_FILE)], ids=["zigzag-5", "ev-file"]
    )
    def test_predicate_judges_each_state_once_when_made(self, instance):
        # Making the profile calls the predicate once per state reachable
        # from s0; its walks, its risky ids and rm01's guard read what it kept.
        problem, predicate = build_instance(*instance)
        calls = Counter()

        def counted(s):
            calls[s] += 1
            return predicate(s)

        profile = RiskProfile(problem, RiskPredicate(counted), seed=0)
        once = Counter(reachable_states(problem))
        assert calls == once
        selector = ZeroOneSelector(profile, 0.25)
        for s in compile_model(problem).states[::7].tolist():
            profile.reach(s)
            for a in problem.actions(s):
                selector.principle(s, a)
        profile.risky_states()
        assert calls == once

    def test_reach_is_the_hit_share_of_sample_walks(self, domain_table):
        # reach(s) is the share of the walks seeded [seed, s] that meet a
        # risky id.
        _, _, profile = domain_table
        n = profile.samples
        risky = np.array(sorted(profile.risky_states()), dtype=np.int64)
        for s in profile._model.states[::7].tolist():
            walks = walks_from(profile, s, n, profile.depth, [profile.seed, s])
            assert profile.reach(s) == int(np.isin(walks, risky).any(axis=1).sum()) / n, s

    def test_risky_state_shortcut(self, risky_fork):
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate, seed=0)
        assert profile.reach(2) == 1.0

    def test_unreachable_risk_is_zero(self, chain3):
        predicate = RiskPredicate(evaluate=lambda s: False)
        profile = RiskProfile(chain3, predicate, seed=0)
        assert profile.reach(0) == 0.0

    def test_equiprobable_branch_estimate(self):
        # One action from s0 splits evenly between a risky and a safe state;
        # exact depth-limited hit probability is 0.5.
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
        profile = RiskProfile(problem, predicate, samples=10_000, depth=2, seed=0)
        assert profile.reach(0) == pytest.approx(0.5, abs=0.02)

    def test_unreachable_state_raises(self):
        # State 5 has a record but is not reachable from s0.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (5, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (5, 0): 1.0},
            start=0,
            goals={1},
        )
        profile = RiskProfile(problem, NO_RISK, seed=0)
        assert profile.reach(0) == 0.0
        with pytest.raises(KeyError, match="state 5"):
            profile.reach(5)

    def test_arguments_at_least_one(self, chain3):
        with pytest.raises(ValueError):
            RiskProfile(chain3, NO_RISK, samples=0)
        with pytest.raises(ValueError):
            RiskProfile(chain3, NO_RISK, depth=-1)

    def test_values_are_sample_frequencies(self, risky_fork):
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate, samples=30, seed=0)
        value = profile.reach(0)
        assert math.isclose(value * 30, round(value * 30), abs_tol=1e-9)

    def test_seed_determinism(self, risky_fork):
        problem, predicate = risky_fork
        a = RiskProfile(problem, predicate, seed=5)
        b = RiskProfile(problem, predicate, seed=5)
        states = compile_model(problem).states.tolist()
        assert [a.reach(s) for s in states] == [b.reach(s) for s in states]

    def test_query_order_independent(self, risky_fork):
        problem, predicate = risky_fork
        a = RiskProfile(problem, predicate, seed=5)
        b = RiskProfile(problem, predicate, seed=5)
        a.reach(0)
        a.reach(1)
        b.reach(1)
        b.reach(0)
        assert a._reach == b._reach


class TestExactReachability:
    def test_matches_hand_computation(self):
        # From s0: uniform over two actions; a0 hits risk with prob 0.5 in
        # one step, a1 never does. Exact depth-2 hit = 0.5 * 0.5 = 0.25.
        problem = tabular_problem(
            transitions={
                (0, 0): [(1, 0.5), (2, 0.5)],
                (0, 1): [(3, 1.0)],
                (1, 0): [(3, 1.0)],
                (2, 0): [(3, 1.0)],
            },
            costs={(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (2, 0): 1.0},
            start=0,
            goals={3},
        )
        predicate = RiskPredicate(evaluate=lambda s: s == 2)
        exact = exact_risk_reachability(problem, predicate, depth=2)
        assert exact[0] == pytest.approx(0.25)
        assert exact[2] == 1.0
        assert exact[3] == 0.0

    def test_estimator_converges_to_exact(self, small_sailing):
        problem, predicate = small_sailing
        exact = exact_risk_reachability(problem, predicate, depth=4)
        profile = RiskProfile(problem, predicate, samples=2000, depth=4, seed=0)
        states = list(exact)[::11]
        within = sum(
            1
            for s in states
            if abs(profile.reach(s) - exact[s])
            <= 3 * math.sqrt(exact[s] * (1 - exact[s]) / 2000) + 1e-12
        )
        # 3-sigma binomial bound: allow the occasional outlier state.
        assert within >= 0.95 * len(states)
