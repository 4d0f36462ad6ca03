"""Core stochastic shortest path model: problems, values, policies, backups.

States and actions are dense integer ids within one problem instance.
A domain supplies one callback, `expand_fn(s)`, that yields
`(action, cost, outcomes)` for every applicable action of s, goals
included. Each problem keeps one memo: the per-state record built from
that callback on first use. The Bellman kernel, LAO*, A* and the model
walkers read records, and the risk walker's pair table is flattened from
them; the per-pair API (`actions`, `cost`, `transition`) is a view of them.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter

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
    `transition` read it. Immutable after construction (the memo fills
    idempotently), so one instance can back any number of concurrent solves
    and trials.
    """

    def __init__(
        self,
        n_states: int,
        n_actions: int,
        start: int,
        goals: Iterable[int],
        expand_fn: Callable[[int], Iterable[tuple[int, float, Iterable[Outcome]]]],
        name: str = "",
    ):
        self.n_states = n_states
        self.n_actions = n_actions
        self.start = start
        self.goals = frozenset(goals)
        self.name = name
        self._expand_fn = expand_fn
        self._record_memo: dict[int, StateRecord] = {}

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
    n_actions: int | None = None,
    name: str = "",
) -> SspProblem:
    """Build a problem from explicit dicts keyed by (state, action).

    Goal states need no entries: they get a zero-cost self-loop on action 0
    automatically. Mainly for tests and hand-built desk examples.
    """
    goals = frozenset(goals)
    per_state: dict[int, list[int]] = {}
    hi_s, hi_a = start, 0
    for (s, a) in transitions:
        per_state.setdefault(s, []).append(a)
        hi_s = max(hi_s, s)
        hi_a = max(hi_a, a)
    for (entries) in transitions.values():
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
        n_actions=n_actions if n_actions is not None else hi_a + 1,
        start=start,
        goals=goals,
        expand_fn=expand_fn,
        name=name,
    )


class ValueTable:
    """Partial value function V(s) with a heuristic fallback for new states."""

    __slots__ = ("_values", "heuristic")

    def __init__(
        self,
        heuristic: Callable[[int], float] | None = None,
        values: Mapping[int, float] | None = None,
    ):
        self._values: dict[int, float] = dict(values) if values else {}
        self.heuristic = heuristic

    def __getitem__(self, s: int) -> float:
        v = self._values.get(s)
        if v is None:
            v = float(self.heuristic(s)) if self.heuristic is not None else 0.0
            self._values[s] = v
        return v

    def __setitem__(self, s: int, v: float) -> None:
        self._values[s] = v

    def __contains__(self, s: int) -> bool:
        return s in self._values

    def __len__(self) -> int:
        return len(self._values)

    def known(self) -> dict[int, float]:
        return dict(self._values)

    def copy(self) -> "ValueTable":
        return ValueTable(self.heuristic, self._values)


def bellman_backup(problem: SspProblem, values: ValueTable, s: int) -> tuple[float, int]:
    """One Bellman backup: min over actions of C(s,a) + E[V(successor)].

    Reads the state's record and the table's dict directly; an unseen
    successor gets the table's heuristic value, stored as on a table read.
    Ties within a relative TIE_TOL break toward the lowest action id, so
    that rounding in the order of backups does not pick the action. Raises
    DeadEndError when the state has no applicable action (improper model).
    """
    acts, costs, dists = problem.record(s)
    if not acts:
        raise DeadEndError(f"state {s} has no applicable action")
    known = values._values
    h = values.heuristic
    best_q = math.inf
    best_a = acts[0]
    # A later action must beat best_q by the tolerance. While best_q is inf
    # (no finite Q yet) any finite Q does: inf - TIE_TOL * inf is nan.
    bound = math.inf
    for a, q, dist in zip(acts, costs, dists):
        for s2, p in dist:
            try:
                v = known[s2]
            except KeyError:
                v = known[s2] = float(h(s2)) if h is not None else 0.0
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
