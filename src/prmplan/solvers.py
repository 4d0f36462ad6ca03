"""Solvers: value iteration oracle, exact h_min heuristic and LAO*.

Every solver reads the problem's per-state records: value iteration and
h_min through its memoized compiled model, as flat numpy arrays of pairs
and outcomes, LAO* through the Bellman kernel. LAO* plans every reduced
model, determinized ones included, and runs as ILAO*: each iteration is
one depth-first pass over the greedy envelope that expands the tips it
meets and backs its states up in postorder. Value iteration shares no
code with it, so it stays an independent oracle. `SolverConfig.max_iterations`
bounds VI's sweeps and LAO*'s passes. Value iteration, the oracle, raises
NonconvergenceError when it does not converge; LAO* returns its best greedy
policy with `Solution.converged` false, which the executor acts on like any
other.

LAO* labels states as LRTDP does (Bonet & Geffner 2003): a converged solve
reports its final pass's postorder as `Solution.solved`, and a later solve
given those states in `solved` treats them like goals. It reads their
values but neither enters nor backs them up. This is sound for replans in
one model warm-started from the same values: the final pass's greedy graph
is closed over its own states, the solved ones and goals, so a labelled
state's value depends only on other labelled states. Later solves only
raise the values of the other states (h_min is consistent), which can only
raise the Q-values of a labelled state's other actions, so its residual
stays below epsilon. A stalled solve and value iteration label nothing.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Callable, Iterator, Set
from dataclasses import dataclass

import numpy as np

from .mdp import (
    CompiledModel,
    Policy,
    SspProblem,
    bellman_backup,
    compile_model,
)


class NonconvergenceError(RuntimeError):
    """Value iteration hit its sweep budget before its residual fell below
    epsilon. LAO* never raises it."""


@dataclass
class SolverConfig:
    epsilon: float = 1e-3
    max_iterations: int = 100_000
    heuristic: Callable[[int], float] | None = None


@dataclass
class Solution:
    """A solver's (partial) policy, its value dict and its work counters.
    `converged` is false only for a LAO* solve that stalled or ran out of
    passes. `solved` is the set of states labelled by a converged LAO*
    solve: its final pass's postorder, which is exactly the policy's
    states. It is empty for a stalled LAO* solve and for VI."""

    policy: Policy
    values: dict[int, float]
    expanded_states: int
    solve_time: float
    start: int
    converged: bool = True
    backups: int = 0  # Bellman kernel calls (LAO*)
    solved: frozenset[int] = frozenset()

    @property
    def start_value(self) -> float:
        return self.values[self.start]


def _owners(model: CompiledModel) -> np.ndarray:
    """The position of the state each pair belongs to."""
    return np.repeat(np.arange(len(model.states)), np.diff(model.first_pair))


def _outcome_pairs(model: CompiledModel) -> np.ndarray:
    """The pair each outcome belongs to."""
    return np.repeat(np.arange(len(model.cost)), np.diff(model.first_outcome))


def solve_value_iteration(problem: SspProblem, config: SolverConfig | None = None) -> Solution:
    """Full-sweep value iteration over all states reachable from s0.

    The desk-scale oracle: Jacobi sweeps over the compiled model until the
    sup-norm residual drops below epsilon. A sweep computes every pair's
    Q-value as its cost plus its expected successor value, takes each
    state's minimum over its pairs and pins goals to 0. The policy takes
    the lowest action among the minimal pairs. Raises NonconvergenceError
    after `config.max_iterations` sweeps.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    model = compile_model(problem)
    # bincount adds each pair's terms from 0.0 in outcome order, as a plain
    # loop does (np.add.reduceat sums pairwise, so it would not be bit-equal).
    pair_of = _outcome_pairs(model)
    n_pairs = len(model.cost)
    first = model.first_pair[:-1]
    n = len(model.states)

    v = np.zeros(n)
    for _ in range(config.max_iterations):
        q = model.cost + np.bincount(pair_of, model.prob * v[model.succ], n_pairs)
        v_new = np.minimum.reduceat(q, first)
        v_new[model.goal] = 0.0
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual < config.epsilon:
            break
    else:
        raise NonconvergenceError(
            f"value iteration did not converge in {config.max_iterations} sweeps"
        )

    # Each state's policy action is that of its first minimal pair.
    minimal = q == np.minimum.reduceat(q, first)[_owners(model)]
    best = np.minimum.reduceat(np.where(minimal, np.arange(len(q)), len(q)), first)
    states = model.states.tolist()
    values = dict(zip(states, v.tolist()))
    actions = model.action[best].tolist()
    policy: Policy = {
        s: a for s, a, goal in zip(states, actions, model.goal.tolist()) if not goal
    }
    return Solution(policy, values, n, time.perf_counter() - t0, problem.start)


def compute_hmin(
    problem: SspProblem,
    start: int | None = None,
    config: SolverConfig | None = None,
) -> Callable[[int], float]:
    """Exact h_min (Bonet & Geffner 2003) on the states reachable from s0.

    h_min is the fixpoint of ``h(s) = min_a [C(s,a) + min_{s'} h(s')]`` over
    the support of (s, a), with h = 0 on goals and inf where no goal is
    reachable. One backward Dijkstra pass from the goals computes it, which
    needs non-negative costs (every record checks that they are > 0). It is
    consistent on the edges of the base model and so of every reduced model,
    whose supports are subsets. The returned h raises KeyError for states
    not reachable from s0. `start` may only name s0 and `config` is unused;
    both remain for callers that pass them positionally.
    """
    if start is not None and start != problem.start:
        raise ValueError(f"h_min is computed from s0 = {problem.start}, not from {start}")
    model = compile_model(problem)
    # The outcomes into position s', grouped by s' in outcome order, list
    # each pair (s, a) with s' in its support: through it, s is a
    # predecessor of s' at cost C(s, a). Edges and distances stay in numpy
    # buffers read through memoryviews; a Python object per edge or per
    # distance would lift peak memory above VI's.
    n = len(model.states)
    ptr = memoryview(np.concatenate(([0], np.cumsum(np.bincount(model.succ, minlength=n)))))
    pairs = memoryview(_outcome_pairs(model)[np.argsort(model.succ, kind="stable")])
    owner = memoryview(_owners(model))
    weight = memoryview(model.cost)
    h = np.full(n, np.inf)
    dist = memoryview(h)
    frontier = [(0.0, g) for g in np.flatnonzero(model.goal).tolist()]  # sorted, so a heap
    for _, g in frontier:
        dist[g] = 0.0
    while frontier:
        d, j = heapq.heappop(frontier)
        if d > dist[j]:
            continue
        for k in range(ptr[j], ptr[j + 1]):
            pair = pairs[k]
            i = owner[pair]
            new = weight[pair] + d
            if new < dist[i]:
                dist[i] = new
                heapq.heappush(frontier, (new, i))
    return dict(zip(model.states.tolist(), h.tolist())).__getitem__


def proper_hmin(problem: SspProblem) -> Callable[[int], float]:
    """compute_hmin(problem), once every state reachable from s0 is known to
    reach a goal; raises ValueError naming one that cannot."""
    h = compute_hmin(problem)
    for s in compile_model(problem).states.tolist():
        if h(s) == math.inf:
            raise ValueError(f"state {s} is reachable from s0 but reaches no goal")
    return h


def solve_lao_star(
    problem: SspProblem,
    start: int | None = None,
    config: SolverConfig | None = None,
    values: dict[int, float] | None = None,
    solved: Set[int] = frozenset(),
) -> Solution:
    """ILAO* (Hansen & Zilberstein 2001): one depth-first pass per iteration.

    Each pass walks the greedy envelope from start. A state met for the
    first time is expanded: one backup fixes its greedy action, and the
    pass goes on into that action's successors. Every non-goal state of the
    pass is backed up in postorder. The solve has converged after a pass
    that expands nothing, changes no greedy action and has a residual below
    epsilon, so the bound holds on the returned policy's envelope.
    `config.max_iterations` counts passes.

    A value dict may be passed in for warm-started replanning; it is
    updated in place, and states new to it start at `config.heuristic`.
    A solve that stalls or runs out of passes returns the best greedy policy
    found, with `converged` false. Improper inputs stall: once the envelope
    is tip-free, its residual stops halving when no goal is reachable along
    it.

    `solved` holds states labelled by earlier converged solves of the same
    model whose values are in `values` (see the module docstring). A pass
    treats them like goals: it reads their values but does not enter or
    back them up. The start is always expanded. The returned policy then
    covers only the states of the final pass, and `Solution.solved` labels
    them when the solve converged.
    """
    config = config or SolverConfig()
    root = problem.start if start is None else start
    t0 = time.perf_counter()
    v = values if values is not None else {}
    h = config.heuristic
    goals = problem.goals
    if root in goals:
        v[root] = 0.0  # no pass backs a goal up
    greedy: dict[int, int] = {}
    backups = 0

    def successors(s: int) -> Iterator[tuple[int, float]]:
        """Enter s: expand it if it is new, then iterate the outcomes of its
        greedy action."""
        nonlocal backups
        a = greedy.get(s)
        if a is None:
            v[s], a = bellman_backup(problem, v, s, h)
            greedy[s] = a
            backups += 1
        acts, _, dists = problem.record(s)
        return iter(dists[acts.index(a)])

    def sweep() -> tuple[list[int], int, float, bool]:
        """One pass: the postorder of the states it backed up, how many it
        expanded, its max residual, and whether a greedy action changed."""
        nonlocal backups
        order: list[int] = []
        n_before = len(greedy)
        residual = 0.0
        changed = False
        seen = {root}
        stack = [] if root in goals else [(root, successors(root))]
        while stack:
            s, succ = stack[-1]
            for s2, _ in succ:
                if s2 not in seen:
                    seen.add(s2)
                    if s2 not in goals and s2 not in solved:
                        stack.append((s2, successors(s2)))
                        break
            else:
                stack.pop()
                val, a = bellman_backup(problem, v, s, h)
                diff = abs(val - v[s])
                if diff > residual:
                    residual = diff
                if a != greedy[s]:
                    changed = True
                    greedy[s] = a
                v[s] = val
                order.append(s)
        backups += len(order)
        return order, len(greedy) - n_before, residual, changed

    def snapshot(order: list[int], converged: bool) -> Solution:
        policy = {s: greedy[s] for s in order}
        labels = frozenset(policy) if converged else frozenset()
        return Solution(
            policy, v, len(greedy), time.perf_counter() - t0, root, converged, backups, labels
        )

    order: list[int] = []
    tip_free = stall = 0
    block_residual = math.inf
    for _ in range(config.max_iterations):
        order, new, residual, changed = sweep()
        if new:
            tip_free = stall = 0
            block_residual = math.inf
            continue
        if residual < config.epsilon and not changed:
            return snapshot(order, converged=True)
        # A tip-free envelope that will not converge: values only keep
        # growing when no goal is reachable along the greedy graph. It has
        # stalled when its residual fails to halve over 5 blocks of passes.
        tip_free += 1
        if tip_free % 200 == 0:
            stall = stall + 1 if residual >= 0.5 * block_residual else 0
            block_residual = residual
            if stall >= 5:
                break
    return snapshot(order, converged=False)

