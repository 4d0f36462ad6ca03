"""Core stochastic shortest path model: problems, values, policies, backups.

States and actions are dense integer ids within one problem instance.
A problem reads one callback, `expand_fn(s)`, that yields
`(action, cost, outcomes)` for every applicable action of a non-goal s;
each goal is made absorbing by one zero-cost self-loop. Domain builders
state their dynamics once, as `expand(state)` over their own state
objects; `search_problem` numbers the states it reaches and wraps it as
the callback. Each problem memoizes the per-state record built on first
use, and the `CompiledModel` that `compile_model` flattens, once, from the
records of the states reachable from s0; its records draw equal outcome
pairs and equal rows from its tables. The Bellman kernel, LAO* and the model
walkers read records; value iteration, h_min and the risk walker read the
compiled model, the walker with its own inverse-CDF table. A goal's
self-loop is the one statement of its dynamics: the compiled model marks no
goal, and a walk over records or arrays stays on a goal by that loop. The
per-pair API (`actions`, `transition`) is a view of the records.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

PROB_TOL = 1e-9
TIE_TOL = 1e-12  # relative Q-value gap that bellman_backup treats as a tie

Outcome = tuple[int, float]
Distribution = tuple[Outcome, ...]
# Parallel tuples (actions, costs, distributions) of one state.
StateRecord = tuple[tuple[int, ...], tuple[float, ...], tuple[Distribution, ...]]
# A domain's dynamics: (action, cost, {successor_state: p}) per applicable action.
Expand = Callable[[Hashable], Iterable[tuple[int, float, Mapping[Hashable, float]]]]

# Partial policies are plain dicts: states outside the solved envelope are
# simply absent, so policy.get(s) is None exactly when replanning is needed.
Policy = dict[int, int]


class ModelError(ValueError):
    """Malformed problem data: a non-goal state with no applicable action, a
    cost that is not > 0, a bad distribution, or an inapplicable action id."""


def make_distribution(entries: Iterable[tuple[int, float]]) -> Distribution:
    """Validate a successor distribution and renormalize it exactly.

    Probabilities must be strictly positive, successors distinct, and the
    total mass within PROB_TOL of 1; anything else raises ModelError. The
    result is sorted by successor id with mass rescaled to exactly 1.
    """
    items = sorted(entries)
    if not items:
        raise ModelError("empty outcome distribution")
    total = 0.0
    prev = -1
    for s, p in items:
        if s == prev:
            raise ModelError(f"duplicate successor {s} in distribution")
        if not p > 0.0:
            raise ModelError(f"non-positive probability {p} for successor {s}")
        prev = s
        total += p
    if abs(total - 1.0) > PROB_TOL:
        raise ModelError(f"distribution mass {total!r} not within {PROB_TOL} of 1")
    if total == 1.0:
        return tuple(items)
    return tuple((s, p / total) for s, p in items)


class SspProblem:
    """Explicit-state SSP ⟨states, actions, transition, cost, start, goals⟩.

    `expand_fn(s)` yields `(action, cost, outcomes)` for every applicable
    action of a non-goal s, in any order; it is never called on a goal. It
    yields at least one action, and each costs > 0 (inf included), as an
    SSP needs. `record(s)` holds those actions in id order, their costs and
    their validated distributions, memoized per state; building it is where
    the model is checked; an id outside 0..n_states-1 raises KeyError. A
    goal's record is one zero-cost self-loop on action 0. `actions` and
    `transition` read it. `compile_model` memoizes its flat arrays beside
    the records, then drops `expand_fn` if every id has its record. Equal
    (int, float) outcome pairs, and equal action or cost rows of the same
    element types, are one object per problem.
    Immutable after construction (the memos fill idempotently), so one
    instance can back any number of concurrent solves and trials.
    """

    def __init__(
        self,
        n_states: int,
        start: int,
        goals: Iterable[int],
        expand_fn: Callable[[int], Iterable[tuple[int, float, Iterable[Outcome]]]],
        name: str = "",
    ):
        self.n_states = n_states
        self.start = start
        self.goals = frozenset(goals)
        self.name = name
        self._expand_fn = expand_fn
        self._record_memo: dict[int, StateRecord] = {}
        self._pairs: dict[Outcome, Outcome] = {}
        self._rows: dict[tuple, tuple] = {}
        self._compiled: CompiledModel | None = None

    def is_goal(self, s: int) -> bool:
        return s in self.goals

    def record(self, s: int) -> StateRecord:
        """The applicable actions of s in id order, with their costs and
        distributions, as three parallel tuples. A ModelError names the state
        or pair that raised it, and a record whose build raised is not kept."""
        rec = self._record_memo.get(s)
        if rec is None:
            if not 0 <= s < self.n_states:
                raise KeyError(f"state {s} is outside 0..{self.n_states - 1}")
            rec = self._record_memo[s] = self._build_record(s)
        return rec

    def _build_record(self, s: int) -> StateRecord:
        if s in self.goals:
            return (0,), (0.0,), (self._share(((s, 1.0),)),)
        expand_fn = self._expand_fn
        if expand_fn is None:  # dropped by compile_model once all were built; s lost a race
            return self._record_memo[s]
        entries = sorted(expand_fn(s), key=itemgetter(0))
        if not entries:
            raise ModelError(f"state {s} is not a goal and has no applicable action")
        dists = []
        for a, c, outcomes in entries:
            try:
                if not c > 0.0:  # nan fails too
                    raise ModelError(f"cost {c} is not > 0")
                dists.append(self._share(make_distribution(outcomes)))
            except ModelError as exc:
                raise ModelError(f"at (s={s}, a={a}): {exc}") from None
        rows = tuple(e[0] for e in entries), tuple(e[1] for e in entries)
        # Keyed by element types too, so that (1, 2) never stands in for (1.0, 2.0).
        acts, costs = [self._rows.setdefault((r, tuple(map(type, r))), r) for r in rows]
        return acts, costs, tuple(dists)

    def _share(self, d: Distribution) -> Distribution:
        """d with each (int, float) pair swapped for the table's equal one;
        other types (a tabular `(s, 1)`) stay as given, so no repr changes."""
        share = self._pairs.setdefault
        return tuple([share(o, o) if type(o[0]) is int and type(o[1]) is float else o for o in d])

    def actions(self, s: int) -> tuple[int, ...]:
        return self.record(s)[0]

    def transition(self, s: int, a: int) -> Distribution:
        acts, _, dists = self.record(s)
        try:
            return dists[acts.index(a)]
        except ValueError:
            raise ModelError(f"action {a} not applicable in state {s}") from None


def tabular_problem(
    transitions: Mapping[tuple[int, int], Iterable[tuple[int, float]]],
    costs: Mapping[tuple[int, int], float],
    start: int,
    goals: Iterable[int],
    n_states: int | None = None,
    name: str = "",
) -> SspProblem:
    """Build a problem from explicit dicts keyed by (state, action).

    Goal states need no entries: `SspProblem` makes them absorbing. Mainly
    for tests and hand-built desk examples.
    """
    goals = frozenset(goals)
    per_state: dict[int, list[int]] = {}
    hi_s = start
    for (s, a) in transitions:
        per_state.setdefault(s, []).append(a)
        hi_s = max(hi_s, s)
    for entries in transitions.values():
        for s2, _ in entries:
            hi_s = max(hi_s, s2)
    for g in goals:
        hi_s = max(hi_s, g)

    def expand_fn(s: int) -> list[tuple[int, float, Iterable[Outcome]]]:
        return [(a, costs[(s, a)], transitions[(s, a)]) for a in per_state.get(s, [])]

    return SspProblem(
        n_states=n_states if n_states is not None else hi_s + 1,
        start=start,
        goals=goals,
        expand_fn=expand_fn,
        name=name,
    )


def search_problem(
    start: Hashable, expand: Expand, is_goal: Callable[[Hashable], bool], name: str = ""
) -> SspProblem:
    """Number the states reachable from `start` and build their problem.

    `expand(state)` yields `(action, cost, {successor_state: p})` for every
    applicable action of a non-goal state; it is never called on a goal.
    States get ids breadth-first in order of discovery, start = 0, and
    `problem.states[i]` is the state with id i.
    """
    index = {start: 0}
    states = [start]
    goals = []
    for i, state in enumerate(states):  # states grows while it is walked
        if is_goal(state):
            goals.append(i)
            continue
        for _, _, outcomes in expand(state):
            for succ in outcomes:
                if succ not in index:
                    index[succ] = len(states)
                    states.append(succ)
    return numbered_problem(states, index, goals, expand, name)


def numbered_problem(
    states: list, index: Mapping[Hashable, int], goals: Iterable[int], expand: Expand, name=""
) -> SspProblem:
    """The problem whose state i is `states[i]`, with `index` its inverse and
    start 0. `expand` is as for `search_problem`. Its callback holds `index`
    and `expand`, so both are freed once `compile_model` has built every
    record; `problem.states` stays."""

    def expand_fn(s: int) -> list[tuple[int, float, list[Outcome]]]:
        return [
            (a, c, [(index[succ], p) for succ, p in outcomes.items()])
            for a, c, outcomes in expand(states[s])
        ]

    problem = SspProblem(len(states), 0, goals, expand_fn, name=name)
    problem.states = states
    return problem


def bellman_backup(
    problem: SspProblem,
    values: dict[int, float],
    s: int,
    heuristic: Callable[[int], float] | None = None,
) -> tuple[float, int]:
    """One Bellman backup: min over actions of C(s,a) + E[V(successor)].

    Reads the state's record and `values` directly; an unseen successor
    gets `heuristic(s2)` (0.0 without one), stored in `values`.
    Ties within a relative TIE_TOL break toward the lowest action id, so
    that rounding in the order of backups does not pick the action.
    """
    acts, costs, dists = problem.record(s)
    best_q = math.inf
    best_a = acts[0]
    # A later action must beat best_q by the tolerance. While best_q is inf
    # (no finite Q yet) any finite Q does: inf - TIE_TOL * inf is nan.
    bound = math.inf
    for a, q, dist in zip(acts, costs, dists):
        for s2, p in dist:
            try:
                v = values[s2]
            except KeyError:
                v = values[s2] = float(heuristic(s2)) if heuristic is not None else 0.0
            q += p * v
        if q < bound:
            best_q = q
            best_a = a
            bound = q - TIE_TOL * abs(q)
    return best_q, best_a


def reachable_states(problem: SspProblem) -> list[int]:
    """All states reachable from s0, in BFS order. A goal's only successor
    is itself."""
    seen = {problem.start}
    order = [problem.start]
    queue = deque(order)
    while queue:
        s = queue.popleft()
        for dist in problem.record(s)[2]:
            for s2, _ in dist:
                if s2 not in seen:
                    seen.add(s2)
                    order.append(s2)
                    queue.append(s2)
    return order


class CompiledModel(NamedTuple):
    """The records of every state reachable from s0, goals included, in flat
    arrays.

    Positions index `states` (sorted ids). The pairs of position i are
    `first_pair[i]:first_pair[i + 1]`, in record order, with their `cost`
    only; their action ids stay in the records.
    The outcomes of pair j are `first_outcome[j]:first_outcome[j + 1]`, with
    successor positions `succ` and probabilities `prob`; the walks'
    inverse-CDF table is risk's. A goal's one pair is its zero-cost
    self-loop, as in its record.
    """

    states: np.ndarray
    first_pair: np.ndarray
    first_outcome: np.ndarray
    cost: np.ndarray
    succ: np.ndarray
    prob: np.ndarray

    def position(self, s: int) -> int:
        i = int(np.searchsorted(self.states, s))
        if i == len(self.states) or self.states[i] != s:
            raise KeyError(f"state {s} is not reachable from s0")
        return i


def compile_model(problem: SspProblem) -> CompiledModel:
    """The problem's records over the states reachable from s0, flattened
    once and memoized on the problem. A goal's zero-cost self-loop makes it
    absorbing. A record that fails its checks raises its ModelError here.
    The arrays are written without whole-model temporaries. When s0 reaches
    every id, the problem drops its callback: no record is left to build."""
    if problem._compiled is None:
        problem._compiled = _flatten(problem)
        if len(problem._record_memo) == problem.n_states:
            problem._expand_fn = None
    return problem._compiled


def _flatten(problem: SspProblem) -> CompiledModel:
    states = np.array(sorted(reachable_states(problem)), dtype=np.int64)
    records = [problem.record(s) for s in states.tolist()]
    n_acts = np.fromiter((len(r[0]) for r in records), np.int64, len(records))
    dists = [d for r in records for d in r[2]]
    n_pairs = len(dists)
    counts = np.fromiter(map(len, dists), np.int64, n_pairs)
    first_outcome = np.concatenate(([0], np.cumsum(counts)))
    n_outcomes = int(first_outcome[-1])
    prob = np.fromiter(map(itemgetter(1), chain.from_iterable(dists)), np.float64, n_outcomes)
    succ = np.fromiter(map(itemgetter(0), chain.from_iterable(dists)), np.int64, n_outcomes)
    if states[-1] != len(states) - 1:  # else positions are ids
        succ = np.searchsorted(states, succ)
    return CompiledModel(
        states=states,
        first_pair=np.concatenate(([0], np.cumsum(n_acts))),
        first_outcome=first_outcome,
        cost=np.fromiter(chain.from_iterable(r[1] for r in records), np.float64, n_pairs),
        succ=succ,
        prob=prob,
    )
