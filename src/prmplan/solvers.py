"""Solvers: value iteration oracle, exact h_min heuristic, LAO*, and A*.

Every solver reads the problem's one memo, its per-state records: value
iteration and h_min compile them to per-action sparse transition matrices,
LAO* reads them through the Bellman kernel, and A* directly.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .mdp import (
    DeadEndError,
    ModelError,
    Policy,
    SspProblem,
    ValueTable,
    bellman_backup,
    reachable_states,
)


class EnumerationCapError(RuntimeError):
    """The instance is too large for full-sweep enumeration."""


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
    enumeration_cap: int = 200_000


@dataclass
class Solution:
    policy: Policy
    values: ValueTable
    expanded_states: int
    solve_time: float
    start: int
    converged: bool = True

    @property
    def start_value(self) -> float:
        return self.values[self.start]


class CompiledModel(NamedTuple):
    """States reachable from one root (root first), compiled to arrays
    indexed by position in `states`: the (n, |A|) cost array, inf where an
    action does not apply and on goal rows; one sparse n x n transition
    matrix per action; and the goal rows."""

    states: list[int]
    cost: np.ndarray
    mats: list[sparse.csr_matrix]
    goal_rows: np.ndarray


def _transition_matrices(problem: SspProblem, states: list[int]) -> CompiledModel:
    """Compile the records of `states` (closed under successors).
    Raises DeadEndError for a non-goal state without actions.
    """
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    n_a = problem.n_actions
    cost = np.full((n, n_a), np.inf)
    rows: list[list[int]] = [[] for _ in range(n_a)]
    cols: list[list[int]] = [[] for _ in range(n_a)]
    data: list[list[float]] = [[] for _ in range(n_a)]
    goal_rows = []
    for i, s in enumerate(states):
        if problem.is_goal(s):
            goal_rows.append(i)
            continue
        rec = problem.record(s)
        if not rec[0]:
            raise DeadEndError(f"state {s} has no applicable action")
        for a, c, dist in zip(*rec):
            cost[i, a] = c
            for s2, p in dist:
                rows[a].append(i)
                cols[a].append(index[s2])
                data[a].append(p)
    mats = [
        sparse.csr_matrix((data[a], (rows[a], cols[a])), shape=(n, n))
        for a in range(n_a)
    ]
    return CompiledModel(states, cost, mats, np.array(goal_rows, dtype=int))


def compile_model(problem: SspProblem, start: int | None = None) -> CompiledModel:
    """The problem compiled over the states reachable from start (default s0)."""
    return _transition_matrices(problem, reachable_states(problem, start))


def solve_value_iteration(
    problem: SspProblem,
    config: SolverConfig | None = None,
    start: int | None = None,
    compiled: CompiledModel | None = None,
) -> Solution:
    """Full-sweep value iteration over all states reachable from start.

    The desk-scale oracle: vectorized sweeps over sparse per-action
    transition matrices until the sup-norm residual drops below epsilon.
    Refuses instances above the enumeration cap. `compiled`, when given,
    is `compile_model(problem, start)`, which is then not rebuilt.
    """
    config = config or SolverConfig()
    root = problem.start if start is None else start
    t0 = time.perf_counter()
    states = reachable_states(problem, root) if compiled is None else compiled.states
    n = len(states)
    if n > config.enumeration_cap:
        raise EnumerationCapError(
            f"{n} reachable states exceed enumeration cap {config.enumeration_cap}"
        )
    if compiled is None:
        compiled = _transition_matrices(problem, states)
    _, cost, mats, goal_rows = compiled
    n_a = problem.n_actions

    v = np.zeros(n)
    q = cost.copy()
    converged = False
    for _ in range(config.max_iterations):
        q = cost + np.stack([mats[a] @ v for a in range(n_a)], axis=1)
        v_new = np.min(q, axis=1)
        if goal_rows.size:
            v_new[goal_rows] = 0.0
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual < config.epsilon:
            converged = True
            break

    values = ValueTable(config.heuristic, {s: float(v[i]) for i, s in enumerate(states)})
    policy: Policy = {}
    for i, s in enumerate(states):
        if problem.is_goal(s):
            continue
        policy[s] = int(np.argmin(q[i]))
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
    compiled: CompiledModel | None = None,
) -> Callable[[int], float]:
    """Exact h_min (Bonet & Geffner 2003) on the states reachable from start.

    h_min is the fixpoint of ``h(s) = min_a [C(s,a) + min_{s'} h(s')]`` over
    the support of (s, a), with h = 0 on goals and inf where no goal is
    reachable. One backward Dijkstra pass from the goals computes it, which
    needs non-negative costs (validate_problem checks them). It is
    consistent on the edges of the base model and so of every reduced model,
    whose supports are subsets. `config` is unused. `compiled`, when given,
    is `compile_model(problem, start)`, which is then not rebuilt. The
    returned h raises KeyError for states not reachable from start.
    """
    if compiled is None:
        compiled = compile_model(problem, start)
    states, cost, mats, goal_rows = compiled
    # Column s' of action a's matrix lists each s with s' in the support of
    # (s, a): the predecessors of s' through a, at cost C(s, a). Edges and
    # distances stay in numpy buffers read through memoryviews; a Python
    # object per edge or per distance would lift peak memory above VI's.
    into = []
    for a, mat in enumerate(mats):
        csc = mat.tocsc()
        into.append((memoryview(csc.indptr), memoryview(csc.indices), memoryview(cost[:, a])))
    h = np.full(len(states), np.inf)
    dist = memoryview(h)
    frontier = [(0.0, g) for g in goal_rows.tolist()]  # sorted, so a heap
    for _, g in frontier:
        dist[g] = 0.0
    while frontier:
        d, j = heapq.heappop(frontier)
        if d > dist[j]:
            continue
        for ptr, src, weight in into:
            for k in range(ptr[j], ptr[j + 1]):
                i = src[k]
                new = weight[i] + d
                if new < dist[i]:
                    dist[i] = new
                    heapq.heappush(frontier, (new, i))
    return dict(zip(states, h.tolist())).__getitem__


def solve_lao_star(
    problem: SspProblem,
    start: int | None = None,
    config: SolverConfig | None = None,
    values: ValueTable | None = None,
) -> Solution:
    """LAO*: expand the best partial solution graph, backing up until the
    greedy envelope is tip-free and Bellman-residual-converged.

    An existing ValueTable may be passed in for warm-started replanning; it
    is updated in place. Improper inputs surface as NonconvergenceError
    carrying the best greedy policy found (its values stop improving once
    every greedy envelope without a goal has been expanded).
    """
    config = config or SolverConfig()
    root = problem.start if start is None else start
    t0 = time.perf_counter()
    v = values if values is not None else ValueTable(config.heuristic)
    expanded: set[int] = set()
    greedy: dict[int, int] = {}

    def build_graph() -> tuple[list[int], list[int]]:
        order: list[int] = []
        tips: list[int] = []
        seen = {root}
        stack = [root]
        while stack:
            s = stack.pop()
            if problem.is_goal(s):
                continue
            if s not in expanded:
                tips.append(s)
                continue
            order.append(s)
            a = greedy.get(s)
            if a is None:
                val, a = bellman_backup(problem, v, s)
                v[s] = val
                greedy[s] = a
            acts, _, dists = problem.record(s)
            for s2, _ in dists[acts.index(a)]:
                if s2 not in seen:
                    seen.add(s2)
                    stack.append(s2)
        return order, tips

    def dp(order: list[int], sweep_cap: int) -> float:
        residual = math.inf
        for _ in range(sweep_cap):
            residual = 0.0
            for s in reversed(order):
                val, a = bellman_backup(problem, v, s)
                diff = abs(val - v[s])
                if diff > residual:
                    residual = diff
                v[s] = val
                greedy[s] = a
            if residual < config.epsilon:
                break
        return residual

    def snapshot(order: list[int], converged: bool) -> Solution:
        policy = {s: greedy[s] for s in order if s in greedy}
        return Solution(
            policy, v, len(expanded), time.perf_counter() - t0, root, converged
        )

    stall = 0
    prev_residual = math.inf
    for _ in range(config.max_iterations):
        order, tips = build_graph()
        if tips:
            stall = 0
            prev_residual = math.inf
            for s in tips:
                expanded.add(s)
                v[s]  # pin the heuristic value before the first backup
            dp(order + tips, sweep_cap=5)
            continue
        residual = dp(order, sweep_cap=200)
        before = set(order)
        order, tips = build_graph()
        # Converged only when the residual bound applies to the final graph:
        # dp may reroute greedy actions into states it never backed up.
        if not tips and set(order) == before:
            if residual < config.epsilon:
                return snapshot(order, converged=True)
            # Stable tip-free envelope that will not converge: values only
            # keep growing when no goal is reachable along the greedy graph.
            stall = stall + 1 if residual >= 0.5 * prev_residual else 0
            prev_residual = residual
            if stall >= 5:
                raise NonconvergenceError(
                    "LAO* stalled: greedy envelope does not converge "
                    "(no proper policy in this model from the start state)",
                    snapshot(order, converged=False),
                )
        else:
            stall = 0
            prev_residual = math.inf
    order, _ = build_graph()
    raise NonconvergenceError(
        f"LAO* exceeded {config.max_iterations} iterations", snapshot(order, False)
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
    values = ValueTable(heuristic)
    total = g_cost[goal]
    s = goal
    values[s] = 0.0
    while s != root:
        prev, a = parent[s]
        policy[prev] = a
        values[prev] = total - g_cost[prev]
        s = prev
    return Solution(policy, values, len(closed), time.perf_counter() - t0, root, True)
