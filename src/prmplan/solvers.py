"""Solvers: value iteration oracle, exact h_min heuristic, LAO*, and A*.

Every solver reads the problem's per-state records: value iteration and
h_min through its memoized compiled model, as one (pairs x states) sparse
transition matrix, LAO* through the Bellman kernel, and A* directly. LAO*
runs as ILAO*: each iteration is one depth-first pass over the greedy
envelope that expands the tips it meets and backs its states up in
postorder. Value
iteration shares no code with it, so it stays an independent oracle.
`SolverConfig.max_iterations` bounds VI's sweeps and LAO*'s passes.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mdp import (
    CompiledModel,
    DeadEndError,
    ModelError,
    Policy,
    SspProblem,
    bellman_backup,
    compile_model,
)


class NonconvergenceError(RuntimeError):
    """Solver hit its iteration budget; carries the best solution so far."""

    def __init__(self, message: str, solution: "Solution"):
        super().__init__(message)
        self.solution = solution


@dataclass
class SolverConfig:
    epsilon: float = 1e-3
    max_iterations: int = 100_000
    heuristic: Callable[[int], float] | None = None


@dataclass
class Solution:
    policy: Policy
    values: dict[int, float]
    expanded_states: int
    solve_time: float
    start: int
    converged: bool = True
    backups: int = 0  # Bellman kernel calls (LAO*)

    @property
    def start_value(self) -> float:
        return self.values[self.start]


def _transitions(model: CompiledModel) -> sparse.csr_array:
    """The (pairs x states) transition matrix of the model, sharing its
    arrays: row j holds the outcome probabilities of pair j."""
    shape = (len(model.cost), len(model.states))
    return sparse.csr_array((model.prob, model.succ, model.first_outcome), shape=shape)


def _owners(model: CompiledModel) -> np.ndarray:
    """The position of the state each pair belongs to."""
    return np.repeat(np.arange(len(model.states)), np.diff(model.first_pair))


def solve_value_iteration(
    problem: SspProblem,
    config: SolverConfig | None = None,
    start: int | None = None,
) -> Solution:
    """Full-sweep value iteration over all states reachable from start.

    The desk-scale oracle: Jacobi sweeps over the compiled model until the
    sup-norm residual drops below epsilon. A sweep computes every pair's
    Q-value as its cost plus one sparse row product, takes each state's
    minimum over its pairs and pins goals to 0. The policy takes the
    lowest action among the minimal pairs.
    """
    config = config or SolverConfig()
    root = problem.start if start is None else start
    t0 = time.perf_counter()
    model = compile_model(problem, root)
    transitions = _transitions(model)
    first = model.first_pair[:-1]
    n = len(model.states)

    v = np.zeros(n)
    q = model.cost
    converged = False
    for _ in range(config.max_iterations):
        q = model.cost + transitions @ v
        v_new = np.minimum.reduceat(q, first)
        v_new[model.goal] = 0.0
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual < config.epsilon:
            converged = True
            break

    # Each state's policy action is that of its first minimal pair.
    minimal = q == np.minimum.reduceat(q, first)[_owners(model)]
    best = np.minimum.reduceat(np.where(minimal, np.arange(len(q)), len(q)), first)
    states = model.states.tolist()
    values = dict(zip(states, v.tolist()))
    actions = model.action[best].tolist()
    policy: Policy = {
        s: a for s, a, goal in zip(states, actions, model.goal.tolist()) if not goal
    }
    solution = Solution(policy, values, n, time.perf_counter() - t0, root, converged)
    if not converged:
        raise NonconvergenceError(
            f"value iteration did not converge in {config.max_iterations} sweeps",
            solution,
        )
    return solution


def compute_hmin(
    problem: SspProblem,
    start: int | None = None,
    config: SolverConfig | None = None,
) -> Callable[[int], float]:
    """Exact h_min (Bonet & Geffner 2003) on the states reachable from start.

    h_min is the fixpoint of ``h(s) = min_a [C(s,a) + min_{s'} h(s')]`` over
    the support of (s, a), with h = 0 on goals and inf where no goal is
    reachable. One backward Dijkstra pass from the goals computes it, which
    needs non-negative costs (validate_problem checks them). It is
    consistent on the edges of the base model and so of every reduced model,
    whose supports are subsets. `config` is unused. The returned h raises
    KeyError for states not reachable from start.
    """
    model = compile_model(problem, start)
    # Column s' of the transposed matrix lists each pair (s, a) with s' in
    # its support: through it, s is a predecessor of s' at cost C(s, a).
    # Edges and distances stay in numpy buffers read through memoryviews; a
    # Python object per edge or per distance would lift peak memory above
    # VI's.
    into = _transitions(model).tocsc()
    ptr = memoryview(into.indptr)
    pairs = memoryview(into.indices)
    owner = memoryview(_owners(model))
    weight = memoryview(model.cost)
    h = np.full(len(model.states), np.inf)
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


def solve_lao_star(
    problem: SspProblem,
    start: int | None = None,
    config: SolverConfig | None = None,
    values: dict[int, float] | None = None,
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
    Improper inputs surface as NonconvergenceError carrying the best greedy
    policy found: once the envelope is tip-free, its residual stops halving
    when no goal is reachable along it.
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
                    if s2 not in goals:
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
        return Solution(
            policy, v, len(greedy), time.perf_counter() - t0, root, converged, backups
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
                raise NonconvergenceError(
                    "LAO* stalled: greedy envelope does not converge "
                    "(no proper policy in this model from the start state)",
                    snapshot(order, converged=False),
                )
    raise NonconvergenceError(
        f"LAO* exceeded {config.max_iterations} passes", snapshot(order, False)
    )


def solve_deterministic(
    problem: SspProblem,
    start: int | None = None,
    heuristic: Callable[[int], float] | None = None,
) -> Solution:
    """A* over a deterministic model (every distribution has one outcome).

    Returns a min-cost path policy; values along the path hold the
    remaining cost to the goal. Raises DeadEndError when no goal is
    reachable and ModelError on stochastic input.
    """
    root = problem.start if start is None else start
    t0 = time.perf_counter()
    h = heuristic or (lambda s: 0.0)
    g_cost: dict[int, float] = {root: 0.0}
    parent: dict[int, tuple[int, int]] = {}
    closed: set[int] = set()
    counter = 0
    frontier: list[tuple[float, int, int]] = [(float(h(root)), counter, root)]
    goal = None
    while frontier:
        _, _, s = heapq.heappop(frontier)
        if s in closed:
            continue
        closed.add(s)
        if problem.is_goal(s):
            goal = s
            break
        for a, c, dist in zip(*problem.record(s)):
            if len(dist) != 1:
                raise ModelError(
                    f"stochastic outcome at (s={s}, a={a}); A* needs a determinized model"
                )
            s2 = dist[0][0]
            new_g = g_cost[s] + c
            if s2 not in g_cost or new_g < g_cost[s2]:
                g_cost[s2] = new_g
                parent[s2] = (s, a)
                counter += 1
                heapq.heappush(frontier, (new_g + float(h(s2)), counter, s2))
    if goal is None:
        raise DeadEndError(f"no goal reachable from state {root} in determinized model")

    policy: Policy = {}
    values: dict[int, float] = {}
    total = g_cost[goal]
    s = goal
    values[s] = 0.0
    while s != root:
        prev, a = parent[s]
        policy[prev] = a
        values[prev] = total - g_cost[prev]
        s = prev
    return Solution(policy, values, len(closed), time.perf_counter() - t0, root, True)
