"""Core stochastic shortest path model: problems, values, policies, backups.

States and actions are dense integer ids within one problem instance.
A domain supplies one callback, `expand_fn(s)`, that yields
`(action, cost, outcomes)` for every applicable action of s, goals
included. Each problem keeps one memo: the per-state record built from
that callback on first use, and the `CompiledModel` that `compile_model`
flattens from them once per root. The Bellman kernel, LAO*, A* and the
model walkers read records; value iteration, h_min and the risk walker read
the compiled model. The per-pair API (`actions`, `cost`, `transition`) is a
view of the records.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter
from typing import NamedTuple

import numpy as np

PROB_TOL = 1e-9
TIE_TOL = 1e-12  # relative Q-value gap that bellman_backup treats as a tie

Outcome = tuple[int, float]
Distribution = tuple[Outcome, ...]
# Parallel tuples (actions, costs, distributions) of one state.
StateRecord = tuple[tuple[int, ...], tuple[float, ...], tuple[Distribution, ...]]

# Partial policies are plain dicts: states outside the solved envelope are
# simply absent, so policy.get(s) is None exactly when replanning is needed.
Policy = dict[int, int]


class ModelError(ValueError):
    """Malformed problem data: bad distribution, cost sign, or action id."""


class DeadEndError(RuntimeError):
    """A state with no applicable action, or no remaining route to a goal."""


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
    action of s, in any order; a goal yields zero-cost self-loops.
    `record(s)` holds those actions in id order, their costs and their
    validated distributions, memoized per state; `actions`, `cost` and
    `transition` read it. `compile_model` memoizes its flat arrays beside
    the records. Immutable after construction (the memos fill
    idempotently), so one instance can back any number of concurrent solves
    and trials.
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
        self._compiled_memo: dict[int, CompiledModel] = {}

    def is_goal(self, s: int) -> bool:
        return s in self.goals

    def record(self, s: int) -> StateRecord:
        """The applicable actions of s in id order, with their costs and
        distributions, as three parallel tuples. A ModelError names the pair
        that raised it, and a record whose build raised is not kept."""
        rec = self._record_memo.get(s)
        if rec is None:
            rec = self._record_memo[s] = self._build_record(s)
        return rec

    def _build_record(self, s: int) -> StateRecord:
        entries = sorted(self._expand_fn(s), key=itemgetter(0))
        dists = []
        for a, _, outcomes in entries:
            try:
                dists.append(make_distribution(outcomes))
            except ModelError as exc:
                raise ModelError(f"at (s={s}, a={a}): {exc}") from None
        return tuple(e[0] for e in entries), tuple(e[1] for e in entries), tuple(dists)

    def actions(self, s: int) -> tuple[int, ...]:
        return self.record(s)[0]

    def cost(self, s: int, a: int) -> float:
        return self._pair(s, a)[0]

    def transition(self, s: int, a: int) -> Distribution:
        return self._pair(s, a)[1]

    def _pair(self, s: int, a: int) -> tuple[float, Distribution]:
        acts, costs, dists = self.record(s)
        try:
            i = acts.index(a)
        except ValueError:
            raise ModelError(f"action {a} not applicable in state {s}") from None
        return costs[i], dists[i]


def tabular_problem(
    transitions: Mapping[tuple[int, int], Iterable[tuple[int, float]]],
    costs: Mapping[tuple[int, int], float],
    start: int,
    goals: Iterable[int],
    n_states: int | None = None,
    name: str = "",
) -> SspProblem:
    """Build a problem from explicit dicts keyed by (state, action).

    Goal states need no entries: they get a zero-cost self-loop on action 0
    automatically. Mainly for tests and hand-built desk examples.
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
        if s in goals:
            return [(0, 0.0, [(s, 1.0)])]
        return [(a, costs[(s, a)], transitions[(s, a)]) for a in per_state.get(s, [])]

    return SspProblem(
        n_states=n_states if n_states is not None else hi_s + 1,
        start=start,
        goals=goals,
        expand_fn=expand_fn,
        name=name,
    )


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
    that rounding in the order of backups does not pick the action. Raises
    DeadEndError when the state has no applicable action (improper model).
    """
    acts, costs, dists = problem.record(s)
    if not acts:
        raise DeadEndError(f"state {s} has no applicable action")
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


def reachable_states(problem: SspProblem, start: int | None = None) -> list[int]:
    """All states reachable from start (default s0), in BFS order."""
    root = problem.start if start is None else start
    seen = {root}
    order = [root]
    queue = deque([root])
    while queue:
        s = queue.popleft()
        if problem.is_goal(s):
            continue
        for dist in problem.record(s)[2]:
            for s2, _ in dist:
                if s2 not in seen:
                    seen.add(s2)
                    order.append(s2)
                    queue.append(s2)
    return order


class CompiledModel(NamedTuple):
    """The records of every state reachable from one root, goals included,
    in flat arrays.

    Positions index `states` (sorted ids); `goal` marks the goals. The
    pairs of position i are `first_pair[i]:first_pair[i + 1]`, in record
    order, with their `action` and `cost`. The outcomes of pair j are
    `first_outcome[j]:first_outcome[j + 1]`, with successor positions
    `succ`, probabilities `prob`, and cumulative probabilities shifted by
    the pair id in `cum`, so the whole of `cum` is sorted and pair j's last
    entry is exactly j + 1.
    """

    states: np.ndarray
    first_pair: np.ndarray
    first_outcome: np.ndarray
    action: np.ndarray
    cost: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    cum: np.ndarray
    goal: np.ndarray

    def position(self, s: int) -> int:
        i = int(np.searchsorted(self.states, s))
        if i == len(self.states) or self.states[i] != s:
            raise KeyError(f"state {s} is not reachable from the compiled root")
        return i

    def draw(self, pair: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outcome indices of the given pairs, by inverse CDF at u in [0, 1)."""
        j = np.searchsorted(self.cum, pair + u, side="right")
        # pair + u can round up to pair + 1, one past the pair's last outcome.
        return np.minimum(j, self.first_outcome[pair + 1] - 1)


def compile_model(problem: SspProblem, start: int | None = None) -> CompiledModel:
    """The problem's records over the states reachable from start (default
    s0), flattened once per root and memoized on the problem. A goal's
    zero-cost self-loop makes it absorbing. Raises DeadEndError for a state
    without actions."""
    root = problem.start if start is None else start
    model = problem._compiled_memo.get(root)
    if model is None:
        model = problem._compiled_memo[root] = _flatten(problem, root)
    return model


def _flatten(problem: SspProblem, root: int) -> CompiledModel:
    states = np.array(sorted(reachable_states(problem, root)), dtype=np.int64)
    first_pair = array("q", [0])
    first_outcome = array("q", [0])
    action = array("q")
    cost = array("d")
    succ = array("q")
    prob = array("d")
    cum = array("d")
    for s in states.tolist():
        acts, costs, dists = problem.record(s)
        if not acts:
            raise DeadEndError(f"state {s} has no applicable action")
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
    goals = problem.goals
    return CompiledModel(
        states=states,
        first_pair=np.frombuffer(first_pair, dtype=np.int64),
        first_outcome=np.frombuffer(first_outcome, dtype=np.int64),
        action=np.frombuffer(action, dtype=np.int64),
        cost=np.frombuffer(cost, dtype=np.float64),
        succ=np.searchsorted(states, np.frombuffer(succ, dtype=np.int64)),
        prob=np.frombuffer(prob, dtype=np.float64),
        cum=np.frombuffer(cum, dtype=np.float64),
        goal=np.fromiter((s in goals for s in states.tolist()), dtype=bool, count=len(states)),
    )


def validate_problem(problem: SspProblem) -> list[str]:
    """Check model well-formedness; violations are returned, not raised.

    Covers: distribution normalization, absorbing zero-cost goals, positive
    non-goal costs, no dead ends, and properness (a goal is reachable from
    every state reachable from s0).
    """
    violations: list[str] = []
    try:
        states = reachable_states(problem)
    except ModelError as exc:
        return [f"transition error during reachability sweep: {exc}"]

    successors: dict[int, list[int]] = {}
    for s in states:
        # Only goal records can fail here: the sweep built every other one.
        try:
            acts, costs, dists = problem.record(s)
        except ModelError as exc:
            violations.append(f"normalization violation {exc}")
            continue
        if not acts:
            violations.append(f"dead end: state {s} has no applicable action")
            continue
        goal = problem.is_goal(s)
        for a, c, dist in zip(acts, costs, dists):
            if goal:
                if c != 0.0:
                    violations.append(f"goal cost violation: cost({s},{a}) = {c} != 0")
                if dist != ((s, 1.0),):
                    violations.append(f"goal absorption violation at (s={s}, a={a})")
            elif not c > 0.0:
                violations.append(f"cost sign violation: cost({s},{a}) = {c} <= 0")
        successors[s] = [s2 for dist in dists for s2, _ in dist]

    # Properness: reverse reachability from the goals over the forward graph.
    reverse: dict[int, list[int]] = {s: [] for s in states}
    for s, succ in successors.items():
        for s2 in succ:
            if s2 in reverse:
                reverse[s2].append(s)
    can_reach_goal = {s for s in states if problem.is_goal(s)}
    queue = deque(can_reach_goal)
    while queue:
        s = queue.popleft()
        for prev in reverse.get(s, ()):
            if prev not in can_reach_goal:
                can_reach_goal.add(prev)
                queue.append(prev)
    for s in states:
        if s not in can_reach_goal:
            violations.append(f"proper-policy violation: no goal reachable from state {s}")
    return violations
