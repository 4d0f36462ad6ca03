"""Core model layer: distributions, backups, reachability, model checks."""

import argparse
import math
import tracemalloc
import weakref
from array import array
from pathlib import Path

import numpy as np
import pytest
from conftest import SelectorError, TableSelector
from hypothesis import given
from hypothesis import strategies as st
from random_ssps import random_proper_ssp

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
from prmplan.risk import _cumulative

REDUCTIONS = ("mlod", "m02", "rm01")
# perfbench's ev-risk scenario file, read only.
EV_FILE = str(Path(__file__).resolve().parents[1] / "perfbench" / "ev-gen-1.json")


def reference_backup(problem, values, s, heuristic=None):
    """The Bellman backup by plain loops over the record's costs and the
    per-pair `transition`: costs first, then outcomes in distribution order, each unseen successor
    filled into `values` with its heuristic value (0.0 without one). The
    first action's Q is taken as is; a later action replaces the best only
    when its Q is lower by more than a relative 1e-12 (any finite Q beats
    an infinite best)."""
    acts, costs, _ = problem.record(s)
    best_q = best_a = None
    for a, q in zip(acts, costs):
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


def expected_record(problem, s, twin):
    """The record of s rebuilt from the raw domain callback of `twin`, a
    freshly built copy of the base (a compiled base has released its own),
    and, on a reduced model, cut by the selector: a distribution kept whole
    stays as it is, a cut one is renormalized. A goal's is its self-loop."""
    if problem.is_goal(s):
        return (0,), (0.0,), (((s, 1.0),),)
    base = getattr(problem, "base", problem)
    expanded = {a: (c, outcomes) for a, c, outcomes in twin._expand_fn(s)}
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
            twin, _ = build_instance(*label.split("-", 1))
            for name, problem in model_variants(base, selectors):
                for s in reachable_states(base):
                    expected = expected_record(problem, s, twin)
                    assert problem.record(s) == expected, f"{label}/{name} state {s}"
                    for a, c, dist in zip(*expected):
                        assert problem.record(s)[1][problem.actions(s).index(a)] == c
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
                assert full.record(s) is base.record(s), f"{label} state {s}"

    def test_whole_kept_rm01_state_is_the_base_record(self, domain_models):
        # A state whose every pair keeps its base distribution (a `full`
        # assignment, or most-likely of a single outcome) reuses the base's
        # record object; any cut gives the state a record of its own.
        for label, base, selectors in domain_models:
            selector = selectors["rm01"]
            rm01 = build_reduced_model(base, selector)
            seen = set()
            for s in reachable_states(base):
                if base.is_goal(s):
                    continue
                acts, _, dists = base.record(s)
                whole = all(
                    select_outcomes(selector.principle(s, a), d) is d for a, d in zip(acts, dists)
                )
                assert (rm01.record(s) is base.record(s)) == whole, f"{label} state {s}"
                seen.add(whole)
            assert seen == {True, False}, label

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


class TestPairSharing:
    @staticmethod
    def base_and_reductions(instance):
        """The states reachable in a compiled build of the instance, and that
        base followed by every reduction cut from it."""
        base, predicate = build_instance(*instance)
        compile_model(base)
        args = argparse.Namespace(samples=30, depth=4, seed=0, threshold=0.25)
        reduced = [
            build_reduced_model(base, _make_selector(name, base, predicate, args))
            for name in REDUCTIONS
        ]
        return reachable_states(base), [base, *reduced]

    @pytest.mark.parametrize(
        "instance", [("racetrack", "zigzag-5"), ("ev", EV_FILE)], ids=["zigzag-5", "ev-file"]
    )
    def test_equal_pairs_are_one_object(self, instance):
        # The base and every reduction cut from it draw their outcome pairs
        # from the base's one table.
        states, problems = self.base_and_reductions(instance)
        pairs = [o for p in problems for s in states for d in p.record(s)[2] for o in d]
        assert len({id(o) for o in pairs}) == len(set(pairs))

    @pytest.mark.parametrize(
        "instance", [("racetrack", "zigzag-5"), ("ev", EV_FILE)], ids=["zigzag-5", "ev-file"]
    )
    def test_equal_rows_are_one_object(self, instance):
        # Equal action rows, and equal cost rows, are one object over the
        # base and every reduction cut from it.
        states, problems = self.base_and_reductions(instance)
        for i in (0, 1):
            rows = [p.record(s)[i] for p in problems for s in states]
            assert len({id(r) for r in rows}) == len(set(rows)) < len(states)

    def test_shared_rows_keep_their_types(self):
        # Sailing 8M has states whose actions (1, 2, 3, 4) or (2, 3, 4)
        # equal their costs; no shared row may change an element's type.
        problem, _ = build_instance("sailing", "8M")
        for s in compile_model(problem).states.tolist():
            acts, costs, _ = problem.record(s)
            assert {type(a) for a in acts} == {int}, s
            assert {type(c) for c in costs} == {float}, s

    def test_sharing_keeps_every_repr(self):
        # (1, 1) equals (1, 1.0) and hashes alike, and state 0's actions
        # (1, 2) equal its costs (1.0, 2.0); each record must read exactly
        # as the unshared build (make_distribution per pair) gives it, in
        # whichever order the records are built.
        transitions = {
            (0, 1): [(1, 1)],
            (0, 2): [(1, 1.0)],
            (2, 1): [(1, 1.0)],
            (2, 2): [(1, 0.75), (0, 0.25)],
            (3, 1): [(1, 1)],
            (3, 2): [(2, 0.25), (1, 0.75)],
        }
        costs = {(0, 1): 1.0, (0, 2): 2.0, (2, 1): 1.0, (2, 2): 1, (3, 1): 3, (3, 2): 1.0}
        states = (0, 1, 2, 3)
        expected = {1: "((0,), (0.0,), (((1, 1.0),),))"}
        for s in (0, 2, 3):
            acts = (1, 2)
            dists = tuple(make_distribution(transitions[(s, a)]) for a in acts)
            expected[s] = repr((acts, tuple(costs[(s, a)] for a in acts), dists))
        assert expected[0] == "((1, 2), (1.0, 2.0), (((1, 1),), ((1, 1.0),)))"
        for order in (states, states[::-1]):
            problem = tabular_problem(transitions, costs, start=0, goals={1})
            mlod = build_reduced_model(problem, UniformSelector(MOST_LIKELY))
            for s in order:
                assert repr(problem.record(s)) == expected[s], s
                assert repr(mlod.record(s)[:2]) == repr(problem.record(s)[:2]), s
            assert mlod.record(2)[2][1] == ((1, 1.0),)
            assert mlod.record(2)[2][1][0] is problem.record(0)[2][1][0]
            assert repr(mlod.record(3)[2]) == "(((1, 1),), ((1, 1.0),))"


class TestStateIds:
    """An id outside 0..n_states-1 is named in a KeyError, before and after
    the problem is compiled, and no solve starts from it."""

    @staticmethod
    def assert_rejects_outside_ids(problem):
        n = problem.n_states
        for s in (-1, n):
            with pytest.raises(KeyError, match=rf"state {s} is outside 0\.\.{n - 1}"):
                problem.record(s)
        with pytest.raises(KeyError, match=r"state -1 is outside"):
            solve_lao_star(problem, -1)

    def test_numbered_problem(self):
        problem, _ = build_instance("racetrack", "ring-3")
        self.assert_rejects_outside_ids(problem)
        compile_model(problem)
        self.assert_rejects_outside_ids(problem)

    def test_tabular_problem(self, chain3):
        self.assert_rejects_outside_ids(chain3)
        compile_model(chain3)
        self.assert_rejects_outside_ids(chain3)


class TestCallbackRelease:
    """compile_model drops the expansion callback once every id has its
    record, and keeps it while an id that s0 does not reach has none."""

    def test_compiled_numbered_problem_serves_every_record(self):
        problem, _ = build_instance("racetrack", "ring-3")
        twin, _ = build_instance("racetrack", "ring-3")
        compile_model(problem)
        for s in range(problem.n_states):
            assert problem.record(s) == twin.record(s), s
        with pytest.raises(KeyError, match=rf"state {problem.n_states} is outside"):
            problem.record(problem.n_states)

    def test_compile_releases_the_domain_callback(self):
        expand, _ = raising_on("g", TestSearchProblem.TRANSITIONS)
        problem = search_problem("s", expand, lambda state: state == "g")
        released = weakref.ref(expand)
        del expand
        compile_model(problem)
        assert released() is None

    def test_unreached_id_still_builds_after_compile(self):
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (2, 0): [(1, 1.0)]},
            costs={(0, 0): 1.0, (2, 0): 2.0},
            start=0,
            goals={1},
        )
        assert compile_model(problem).states.tolist() == [0, 1]
        assert problem.record(2) == ((0,), (2.0,), (((1, 1.0),),))


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

    def test_equals_bfs_that_skips_goals(self, domain_models):
        # reachable_states reads a goal's record like any other; its one
        # successor is itself, so the order is that of a BFS that stops at goals.
        for label, base, selectors in domain_models:
            for name, problem in model_variants(base, selectors):
                order, seen = [problem.start], {problem.start}
                for s in order:  # order grows while it is walked
                    if problem.is_goal(s):
                        continue
                    for dist in problem.record(s)[2]:
                        for s2, _ in dist:
                            if s2 not in seen:
                                seen.add(s2)
                                order.append(s2)
                assert reachable_states(problem) == order, f"{label}/{name}"


def assert_goals_are_self_loops(problem):
    """Each goal position of the compiled model has exactly one pair, of
    cost 0.0, whose one outcome is the goal itself with probability 1.0."""
    model = compile_model(problem)
    positions = [i for i, s in enumerate(model.states.tolist()) if s in problem.goals]
    assert positions
    for i in positions:
        pair = model.first_pair[i]
        assert model.first_pair[i + 1] == pair + 1
        assert model.cost[pair] == 0.0
        lo, hi = model.first_outcome[pair], model.first_outcome[pair + 1]
        assert model.succ[lo:hi].tolist() == [i]
        assert model.prob[lo:hi].tolist() == [1.0]


class TestGoalSelfLoop:
    """A goal's self-loop is the only statement of its dynamics: value
    iteration, reachable_states and nse_set read no goal set, and h_min's
    sweeps keep its seed of 0 on the goals through the loop alone."""

    def test_tabular(self, chain3, self_loop):
        for problem in (chain3, self_loop, *map(random_proper_ssp, range(4))):
            assert_goals_are_self_loops(problem)

    def test_tabular_goal_with_its_own_transitions(self):
        # Entries given for goal 1 are never read: it stays absorbing at 0.
        problem = tabular_problem(
            transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)], (1, 1): [(0, 1.0)]},
            costs={(0, 0): 1.0, (1, 0): 5.0, (1, 1): 2.0},
            start=0,
            goals={1},
        )
        assert problem.record(1) == ((0,), (0.0,), (((1, 1.0),),))
        assert reachable_states(problem) == [0, 1]
        assert_goals_are_self_loops(problem)
        assert solve_value_iteration(problem).values == {0: 1.0, 1: 0.0}
        h = compute_hmin(problem)
        assert (h(0), h(1)) == (1.0, 0.0)

    def test_domain_models_and_reductions(self, domain_models):
        for label, base, selectors in domain_models:
            for name, problem in model_variants(base, selectors):
                assert_goals_are_self_loops(problem)


def flatten_reference(problem):
    """The compiled arrays, and the risk walks' inverse-CDF table as "cum",
    by a plain loop, one outcome at a time: states sorted, pairs in record
    order, each pair's cumulative probabilities summed from 0.0 in outcome
    order and shifted by the pair id, its last entry set to exactly
    pair + 1, successors as positions in `states`."""
    states = sorted(reachable_states(problem))
    first_pair, first_outcome = array("q", [0]), array("q", [0])
    cost, succ, prob, cum = array("d"), array("q"), array("d"), array("d")
    for s in states:
        _, costs, dists = problem.record(s)
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
        "cost": np.frombuffer(cost, dtype=np.float64),
        "succ": np.searchsorted(states, np.frombuffer(succ, dtype=np.int64)),
        "prob": np.frombuffer(prob, dtype=np.float64),
        "cum": np.frombuffer(cum, dtype=np.float64),
    }


class TestCompileModel:
    @pytest.mark.parametrize(
        "instance",
        [*(("random", seed) for seed in range(4)), ("sailing", "8M"), ("ev", "gen-1")],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_equals_plain_loop_reference(self, instance):
        # Same additions in the same order: every array is equal exactly,
        # and the risk profile's table byte for byte.
        if instance[0] == "random":
            problem = random_proper_ssp(instance[1])
        else:
            problem, _ = build_instance(*instance)
        model = compile_model(problem)
        expected = flatten_reference(problem)
        cum = expected.pop("cum")
        assert set(model._fields) == set(expected)
        for field, want in expected.items():
            got = getattr(model, field)
            assert got.dtype == want.dtype, field
            assert np.array_equal(got, want), field
        got = _cumulative(model)
        assert got.dtype == cum.dtype
        assert got.tobytes() == cum.tobytes()

    def test_memo_is_one_slot(self, chain3):
        # Every model is compiled from s0 only, once.
        model = compile_model(chain3)
        assert compile_model(chain3) is model
        assert model.states.tolist() == [0, 1, 2]

    @staticmethod
    def traced_compile(instance):
        """(bytes left allocated, peak bytes) of compiling a fresh build."""
        problem, _ = build_instance(*instance)
        tracemalloc.start()
        try:
            compile_model(problem)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "instance,bound_mb",
        [(("racetrack", "zigzag-5"), 10.4), (("ev", EV_FILE), 11.0)],
        ids=["zigzag-5", "ev-file"],
    )
    def test_retained_bytes_bounded(self, instance, bound_mb):
        # What compile_model leaves allocated: every reachable record and
        # the flat arrays. Sharing equal outcome pairs took these from 11.8
        # to 9.0 MB (zigzag-5) and from 13.7 to 8.1 MB (the EV file); each
        # bound sits about midway, so losing the sharing fails it.
        retained, _ = self.traced_compile(instance)
        assert retained < bound_mb * 1e6

    @pytest.mark.parametrize(
        "instance,bound_mb",
        [(("racetrack", "zigzag-5"), 10.5), (("ev", EV_FILE), 9.0)],
        ids=["zigzag-5", "ev-file"],
    )
    def test_peak_bytes_bounded(self, instance, bound_mb):
        # The most compile_model holds at once. Writing the arrays without
        # whole-model copies (an outcome list, an outcome-sized pair index,
        # a second cumulative array) took it from 11.8 to 9.3 MB (zigzag-5)
        # and from 10.5 to 7.7 MB (the EV file); each bound sits about
        # midway, so a whole-model temporary coming back fails it.
        _, peak = self.traced_compile(instance)
        assert peak < bound_mb * 1e6

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
