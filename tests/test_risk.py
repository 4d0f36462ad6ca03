"""Risk predicates, NSE sets, the random walker, and reachability estimates."""

import math
import tracemalloc
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
from prmplan.risk import _cumulative


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
    """An instance, its predicate, a profile of it and the walks' table,
    which the profile drops once it has estimated."""
    problem, predicate = build_instance(*request.param)
    profile = RiskProfile(problem, predicate, seed=3)
    return problem, predicate, profile, _cumulative(profile._model)


def reference_walk_positions(model, cum, start, n, depth, seed):
    """(n, depth + 1) model positions of n lockstep walks from position start:
    each step picks an action as floor(u * k) and a successor by inverse CDF.
    The per-state walker that `RiskProfile` batches across states."""
    rng = np.random.default_rng(seed)
    walks = np.empty((n, depth + 1), dtype=np.int64)
    here = walks[:, 0] = start
    for t in range(1, depth + 1):
        first = model.first_pair[here]
        k = model.first_pair[here + 1] - first
        pair = first + (rng.random(n) * k).astype(np.int64)
        j = np.searchsorted(cum, pair + rng.random(n), side="right")
        # pair + u can round up to pair + 1, one past the pair's last outcome.
        here = walks[:, t] = model.succ[np.minimum(j, model.first_outcome[pair + 1] - 1)]
    return walks


def walks_from(model, cum, s, n, depth, seed):
    """State ids of n reference walks from state s over a model and its table."""
    return model.states[reference_walk_positions(model, cum, model.position(s), n, depth, seed)]


def reference_reach(model, cum, risky_ids, s, samples, depth, seed):
    """The share of the reference walks seeded [seed, s] that meet a risky id."""
    walks = walks_from(model, cum, s, samples, depth, [seed, s])
    return int(np.isin(walks, risky_ids).any(axis=1).sum()) / samples


class FixedDraws:
    """Stands in for a walk's generator: each random(n) returns the next of
    the given arrays."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def random(self, n):
        u = next(self._arrays)
        assert len(u) == n
        return u


class ConstantDraws:
    """Stands in for a walk's generator, in either walker's calls: every
    draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, n=None, out=None):
        if out is None:
            return np.full(n, self.u)
        out[...] = self.u


def supports(problem, s):
    """Successor ids of each applicable action of s, in record order."""
    return [[s2 for s2, _ in dist] for dist in problem.record(s)[2]]


def fresh_walks(problem, s, n, depth, seed):
    """walks_from over the problem's compiled model and a table built for it."""
    model = compile_model(problem)
    return walks_from(model, _cumulative(model), s, n, depth, seed)


class TestSampleWalks:
    """The reference walker that `RiskProfile.reach` matches, over a
    compiled model and its table."""

    def test_depth_one_transitions(self, self_loop):
        walks = fresh_walks(self_loop, 0, n=50, depth=1, seed=1)
        assert walks.shape == (50, 2)
        assert (walks[:, 0] == 0).all()
        assert set(walks[:, 1].tolist()) <= {0, 1}

    def test_deterministic_chain_identical(self, chain3):
        walks = fresh_walks(chain3, 0, n=10, depth=5, seed=3)
        assert walks.tolist() == [[0, 1, 2, 2, 2, 2]] * 10

    def test_goal_absorbs(self, chain3):
        walks = fresh_walks(chain3, 2, n=5, depth=9, seed=0)
        assert walks.tolist() == [[2] * 10] * 5

    def test_seed_determinism(self, self_loop):
        a = fresh_walks(self_loop, 0, n=100, depth=4, seed=7)
        b = fresh_walks(self_loop, 0, n=100, depth=4, seed=7)
        c = fresh_walks(self_loop, 0, n=100, depth=4, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_binomial_concentration(self, self_loop):
        walks = fresh_walks(self_loop, 0, n=10_000, depth=1, seed=0)
        frac = float((walks[:, -1] == 1).mean())
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_steps_follow_positive_outcomes(self, domain_table):
        # Every step leaves a state through a positive-probability outcome
        # of one of its applicable actions (a goal through its self-loop).
        problem, _, profile, cum = domain_table
        steps = set()
        for s in profile._model.states[::7].tolist():
            walks = walks_from(profile._model, cum, s, n=20, depth=4, seed=[5, s])
            pairs = np.stack([walks[:, :-1].ravel(), walks[:, 1:].ravel()], axis=1)
            steps.update(map(tuple, np.unique(pairs, axis=0).tolist()))
        assert steps
        for s, s2 in steps:
            assert any(s2 in support for support in supports(problem, s)), (s, s2)


class TestPairTable:
    """The pair table layout of the compiled model that the walks read, and
    the risk profile's inverse-CDF table over it."""

    def test_layout_matches_records(self, domain_table):
        problem, _, profile, cum = domain_table
        table = profile._model
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
        _, _, profile, cum = domain_table
        table = profile._model
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
        _, _, profile, cum = domain_table
        table = profile._model
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
            draws = FixedDraws(pick, u)
            j = reference_walk_positions(by_outcome, cum, start, n_pairs, 1, draws)[:, 1]
            assert (table.first_outcome[:-1] <= j).all()
            assert (j < table.first_outcome[1:]).all()


class TestRiskProfile:
    def test_risky_mask_matches_predicate(self, domain_table):
        problem, predicate, profile, _ = domain_table
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

    @pytest.mark.parametrize(
        "instance,samples,seed",
        [(instance, 30, 3) for instance in DOMAIN_INSTANCES]
        + [(("ev", EV_FILE), 300, 1), (("ev", EV_FILE), 300, 7)]
        + [(("racetrack", "zigzag-5"), 30, 1)],
        ids=["-".join(instance) for instance in DOMAIN_INSTANCES]
        + ["ev-file-300-seed1", "ev-file-300-seed7", "racetrack-zigzag-5-seed1"],
    )
    def test_reach_is_the_hit_share_of_sample_walks(self, instance, samples, seed):
        # reach(s) is, on every reachable state, the share of the reference
        # walks seeded [seed, s] that meet a risky id, to the last bit. The
        # EV file at 300 walks and zigzag-5 at 30 are the benchmark's.
        problem, predicate = build_instance(*instance)
        profile = RiskProfile(problem, predicate, samples=samples, seed=seed)
        model = profile._model
        cum = _cumulative(model)
        risky = np.array(sorted(profile.risky_states()), dtype=np.int64)
        for s in model.states.tolist():
            expected = reference_reach(model, cum, risky, s, samples, profile.depth, seed)
            assert profile.reach(s) == expected, s

    def test_extreme_draws_match_reference(self, domain_table, monkeypatch):
        # Every draw at 0, or every draw just below 1: each walk takes its
        # state's first action and outcome, or its last ones, where the
        # reference lands by its clamp. reach(s) still matches it.
        problem, predicate, _, cum = domain_table
        below_one = np.nextafter(1.0, 0.0)
        for u in (0.0, below_one):
            monkeypatch.setattr(np.random, "default_rng", lambda seed, u=u: ConstantDraws(u))
            profile = RiskProfile(problem, predicate, samples=2, depth=3, seed=0)
            model = profile._model
            risky = np.array(sorted(profile.risky_states()), dtype=np.int64)
            for s in model.states.tolist():
                expected = reference_reach(model, cum, risky, s, 2, 3, 0)
                assert profile.reach(s) == expected, (u, s)

    def test_first_query_holds_no_whole_model_array(self):
        # The first reach() walks every state of the EV file, 300 walks each,
        # in chunks of about CHUNK_WALKS walks whose draws and lanes are
        # allocated once: it traced 0.34 MB at its peak. One outcome-sized
        # array (a second table, an index per outcome) is 0.79 MB; the bound
        # sits midway, so such an array fails it, as do every state's draws
        # held at once (2,206 x 2,400 doubles, 42 MB).
        import numpy.random  # noqa: F401  (its import is not the walks' memory)

        problem, predicate = build_instance("ev", EV_FILE)
        profile = RiskProfile(problem, predicate, samples=300, seed=1)
        outcome_mb = profile._model.succ.nbytes / 1e6
        tracemalloc.start()
        try:
            profile.reach(problem.start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (0.34 + outcome_mb) / 2 * 1e6

    def test_table_is_dropped_once_estimated(self):
        # No walk follows the estimate, so the profile lets its inverse-CDF
        # table (0.79 MB on the EV file) go: making a profile and its first
        # query leave 0.10 MB allocated, the risky mask and ids and the
        # values. Half the table's size bounds it, so a kept table fails it.
        problem, predicate = build_instance("ev", EV_FILE)
        outcome_mb = compile_model(problem).succ.nbytes / 1e6
        tracemalloc.start()
        try:
            profile = RiskProfile(problem, predicate, samples=30, seed=1)
            profile.reach(problem.start)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < outcome_mb / 2 * 1e6

    def test_draw_at_an_entry_takes_the_next_outcome(self, monkeypatch):
        # A draw pair + u equal to an entry of the table is past that entry's
        # outcome, as searchsorted(side="right") puts it in the reference:
        # u = 0.5 over outcomes {1: 0.5, 2: 0.5} lands on the risky 2.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 0.5), (2, 0.5)], (1, 0): [(3, 1.0)], (2, 0): [(3, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0},
            start=0,
            goals={3},
        )
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ConstantDraws(0.5))
        profile = RiskProfile(problem, RiskPredicate(evaluate=lambda s: s == 2), samples=3, depth=1)
        model = profile._model
        reference = reference_reach(model, _cumulative(model), np.array([2]), 0, 3, 1, 0)
        assert profile.reach(0) == reference == 1.0

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

    @pytest.mark.parametrize("s", [-1, -4, 4, 10**6])
    def test_out_of_range_state_raises(self, risky_fork, s):
        # Values are read by state id: an id outside 0..n_states-1, negative
        # included, is as unreachable as state 5 above, not a wrapped index.
        problem, predicate = risky_fork
        profile = RiskProfile(problem, predicate, seed=0)
        assert profile.reach(3) == 0.0
        with pytest.raises(KeyError, match=f"state {s} "):
            profile.reach(s)

    def test_risky_goal_raises(self, risky_fork):
        # A walk, and the exact oracle, would count a risky goal as a hit.
        problem, _ = risky_fork
        with pytest.raises(ValueError, match="goal state 3"):
            RiskProfile(problem, RiskPredicate(evaluate=lambda s: s in (2, 3)))

    def test_unreachable_risky_goal_is_allowed(self):
        # Goal 5 is risky but not reachable from s0: no walk meets it.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (4, 0): [(5, 1.0)]},
            costs={(0, 0): 1.0, (4, 0): 1.0},
            start=0,
            goals={1, 5},
        )
        profile = RiskProfile(problem, RiskPredicate(evaluate=lambda s: s == 5), seed=0)
        assert profile.reach(0) == 0.0

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
        in_order = [a.reach(0), a.reach(1)]
        reversed_order = [b.reach(1), b.reach(0)]
        assert in_order == reversed_order[::-1]
        states = compile_model(problem).states.tolist()
        assert [a.reach(s) for s in states] == [b.reach(s) for s in states[::-1]][::-1]


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
