"""Risk predicates, NSE sets, random-walk sampling, and reachability estimates."""

import math

import numpy as np
import pytest

from prmplan import (
    FULL_MODEL,
    MOST_LIKELY,
    DeadEndError,
    RiskPredicate,
    RiskProfile,
    UniformSelector,
    build_reduced_model,
    compile_model,
    exact_risk_reachability,
    nse_set,
    reachable_states,
    sample_walks,
    tabular_problem,
)


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
    from prmplan.domains import build_instance

    problem, predicate = build_instance(*request.param)
    return problem, predicate, compile_model(problem)


def supports(problem, s):
    """Successor ids of each applicable action of s, in record order."""
    return [[s2 for s2, _ in dist] for dist in problem.record(s)[2]]


class TestSampleWalks:
    def test_depth_one_transitions(self, self_loop):
        walks = sample_walks(compile_model(self_loop), 0, n=50, depth=1, seed=1)
        assert walks.shape == (50, 2)
        assert (walks[:, 0] == 0).all()
        assert set(walks[:, 1].tolist()) <= {0, 1}

    def test_deterministic_chain_identical(self, chain3):
        walks = sample_walks(compile_model(chain3), 0, n=10, depth=5, seed=3)
        assert walks.tolist() == [[0, 1, 2, 2, 2, 2]] * 10

    def test_goal_absorbs(self, chain3):
        walks = sample_walks(compile_model(chain3), 2, n=5, depth=9, seed=0)
        assert walks.tolist() == [[2] * 10] * 5

    def test_seed_determinism(self, self_loop):
        table = compile_model(self_loop)
        a = sample_walks(table, 0, n=100, depth=4, seed=7)
        b = sample_walks(table, 0, n=100, depth=4, seed=7)
        c = sample_walks(table, 0, n=100, depth=4, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_binomial_concentration(self, self_loop):
        walks = sample_walks(compile_model(self_loop), 0, n=10_000, depth=1, seed=0)
        frac = float((walks[:, -1] == 1).mean())
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_argument_validation(self, chain3):
        table = compile_model(chain3)
        with pytest.raises(ValueError):
            sample_walks(table, 0, n=0, depth=1, seed=0)
        with pytest.raises(ValueError):
            sample_walks(table, 0, n=1, depth=0, seed=0)
        with pytest.raises(KeyError, match="state 7"):
            sample_walks(table, 7, n=1, depth=1, seed=0)

    def test_steps_follow_positive_outcomes(self, domain_table):
        # Every step leaves a state through a positive-probability outcome
        # of one of its applicable actions (a goal through its self-loop).
        problem, _, table = domain_table
        steps = set()
        for s in table.states[::7].tolist():
            walks = sample_walks(table, s, n=20, depth=4, seed=[5, s])
            pairs = np.stack([walks[:, :-1].ravel(), walks[:, 1:].ravel()], axis=1)
            steps.update(map(tuple, np.unique(pairs, axis=0).tolist()))
        assert steps
        for s, s2 in steps:
            assert any(s2 in support for support in supports(problem, s)), (s, s2)


class TestPairTable:
    """The pair table layout of the compiled model that the walks read."""

    def test_layout_matches_records(self, domain_table):
        problem, _, table = domain_table
        assert table.states.tolist() == sorted(reachable_states(problem))
        assert table.goal.tolist() == [problem.is_goal(s) for s in table.states.tolist()]
        for i, s in enumerate(table.states.tolist()):
            acts, costs, dists = problem.record(s)
            pairs = range(table.first_pair[i], table.first_pair[i + 1])
            assert table.action[pairs.start:pairs.stop].tolist() == list(acts)
            assert table.cost[pairs.start:pairs.stop].tolist() == list(costs)
            assert len(pairs) == len(dists)
            for pair, dist in zip(pairs, dists):
                lo, hi = table.first_outcome[pair], table.first_outcome[pair + 1]
                assert table.states[table.succ[lo:hi]].tolist() == [s2 for s2, _ in dist]
                assert table.prob[lo:hi].tolist() == [p for _, p in dist]
                probs = np.diff(np.concatenate(([pair], table.cum[lo:hi])))
                assert probs == pytest.approx([p for _, p in dist], abs=1e-9)

    def test_last_cumulative_entry_is_pair_plus_one(self, domain_table):
        _, _, table = domain_table
        n_pairs = len(table.first_outcome) - 1
        assert n_pairs == table.first_pair[-1]
        last = table.cum[table.first_outcome[1:] - 1]
        assert np.array_equal(last, np.arange(1, n_pairs + 1, dtype=float))
        assert (np.diff(table.cum) >= 0).all()

    def test_dead_end_raises(self):
        # State 1 is neither a goal nor has an action: a walk could not leave it.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)]}, costs={(0, 0): 1.0}, start=0, goals={2}
        )
        with pytest.raises(DeadEndError, match="state 1"):
            compile_model(problem)

    def test_every_draw_lands_in_its_pair(self, domain_table):
        _, _, table = domain_table
        n_pairs = len(table.first_outcome) - 1
        pairs = np.arange(n_pairs)
        below_one = np.nextafter(1.0, 0.0)
        rng = np.random.default_rng(0)
        for u in (np.zeros(n_pairs), np.full(n_pairs, below_one), rng.random(n_pairs)):
            j = table.draw(pairs, u)
            assert (table.first_outcome[:-1] <= j).all()
            assert (j < table.first_outcome[1:]).all()


class TestRiskProfile:
    def test_risky_mask_matches_predicate(self, domain_table):
        problem, predicate, table = domain_table
        profile = RiskProfile(problem, predicate)
        model, risky = profile._model()
        assert model is table
        assert risky.tolist() == [predicate(s) for s in table.states.tolist()]

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
