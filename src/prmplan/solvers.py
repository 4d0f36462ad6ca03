"""Solvers: value iteration oracle, exact h_min heuristic and LAO*.

Every solver reads the problem's per-state records: value iteration and
h_min through its memoized compiled model, as flat numpy arrays of pairs
and outcomes, LAO* through the Bellman kernel. A goal's record, a zero-cost
self-loop, keeps it at 0 in value iteration; h_min seeds 0 on the goals,
and LAO* stops at them. LAO* plans every reduced model, determinized ones
included, and runs as ILAO*: each iteration is one depth-first pass over
the greedy envelope that expands the tips it meets and backs its unlabelled
states up in postorder. Value iteration shares no code with it, so it stays an
independent oracle, and a value oracle only: every caller reads V*(s0), so
its policy is empty. `SolverConfig.max_iterations` bounds VI's sweeps and
LAO*'s passes. Value iteration raises NonconvergenceError when it does not
converge; LAO* returns its best greedy policy with `Solution.converged`
false, which the executor acts on like any other.

LAO* labels states as HDP does (Bonet & Geffner 2003). Within a solve, a
pass labels each strongly connected component of the greedy graph that it
closes when each member's backup in that pass kept its greedy action and
moved its value by less than epsilon, and every edge out of it ends at a
goal, a `solved` state or a label; later passes read a labelled state's
value but neither enter nor back it up. Across solves, a converged solve's
policy states are labels, and a later solve given them in `solved` treats
them the same way. Both are sound for one model warm-started from the same
values: a labelled state's greedy edges end at labelled states, solved ones
and goals, so its value depends only on theirs. Later backups only raise
the values of the other states (h_min is consistent), which can only raise
the Q-values of a labelled state's other actions, so its residual stays
below epsilon. An unconverged solve hands no labels to later solves.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator, Set
from dataclasses import dataclass

import numpy as np

from .mdp import Policy, SspProblem, bellman_backup, compile_model


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
    `converged` is false only for a LAO* solve that gave up or ran out of
    passes. A LAO* policy covers the greedy graph from its start up to goals
    and the `solved` states it was given. VI fills only `values`,
    `expanded_states` and `solve_time`; its policy is empty."""

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


def solve_value_iteration(problem: SspProblem, config: SolverConfig | None = None) -> Solution:
    """Full-sweep value iteration over all states reachable from s0.

    The desk-scale oracle: Jacobi sweeps over the compiled model until the
    sup-norm residual drops below epsilon. A sweep computes every pair's
    Q-value as its cost plus its expected successor value and takes each
    state's minimum over its pairs. A goal stays at 0 by its one pair, the
    zero-cost self-loop. Sweeps reuse one outcome-sized buffer. Returns the
    values with an empty policy. Raises NonconvergenceError after
    `config.max_iterations` sweeps.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    model = compile_model(problem)
    # bincount adds each pair's terms from 0.0 in outcome order, as a plain
    # loop does (np.add.reduceat sums pairwise, so it would not be bit-equal).
    n_pairs = len(model.cost)
    pair_of = np.repeat(np.arange(n_pairs), np.diff(model.first_outcome))
    first = model.first_pair[:-1]
    n = len(model.states)

    v = np.zeros(n)
    # mode="clip" fills `out` directly; mode="raise" would gather into a copy.
    terms = np.empty(len(model.succ))
    for _ in range(config.max_iterations):
        np.take(v, model.succ, out=terms, mode="clip")
        np.multiply(terms, model.prob, out=terms)
        q = model.cost + np.bincount(pair_of, terms, n_pairs)
        v_new = np.minimum.reduceat(q, first)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        if residual < config.epsilon:
            break
    else:
        raise NonconvergenceError(
            f"value iteration did not converge in {config.max_iterations} sweeps"
        )

    values = dict(zip(model.states.tolist(), v.tolist()))
    return Solution({}, values, n, time.perf_counter() - t0, problem.start)


def compute_hmin(
    problem: SspProblem,
    start: int | None = None,
    config: SolverConfig | None = None,
) -> Callable[[int], float]:
    """Exact h_min (Bonet & Geffner 2003) on the states reachable from s0.

    h_min is the fixpoint of ``h(s) = min_a [C(s,a) + min_{s'} h(s')]`` over
    the support of (s, a), with h = 0 on goals and inf where no goal is
    reachable. Jacobi min-plus sweeps over the compiled model compute it
    from 0 on goals (their zero-cost self-loops keep it) and inf elsewhere,
    reusing one outcome-sized buffer. Values only fall, and no cycle lowers
    one since every cost is > 0 (each record checks it), so h settles within
    n sweeps and the loop stops at the first sweep that changes nothing. It
    is consistent on the edges of the base model and so of every reduced
    model, whose supports are subsets. The returned h raises KeyError for
    states not reachable from s0. `start` may only name s0 and `config` is
    unused; both remain for callers that pass them positionally.
    """
    if start is not None and start != problem.start:
        raise ValueError(f"h_min is computed from s0 = {problem.start}, not from {start}")
    model = compile_model(problem)
    goals = problem.goals
    h = np.array([0.0 if s in goals else math.inf for s in model.states.tolist()])
    h_succ = np.empty(len(model.succ))
    while True:
        np.take(h, model.succ, out=h_succ, mode="clip")
        q = model.cost + np.minimum.reduceat(h_succ, model.first_outcome[:-1])
        new = np.minimum.reduceat(q, model.first_pair[:-1])
        if np.array_equal(new, h):
            return dict(zip(model.states.tolist(), h.tolist())).__getitem__
        h = new


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
    """ILAO* (Hansen & Zilberstein 2001) with HDP's labels (Bonet & Geffner
    2003): one depth-first pass per iteration.

    Each pass walks the greedy envelope from start. A state met for the
    first time is expanded: one backup fixes its greedy action, and the
    pass goes on into that action's successors. Every state the pass enters
    is backed up in postorder, and Tarjan's lowlinks over the greedy edges
    it follows close the strongly connected components of the greedy graph.
    A closing component is labelled when each member's postorder backup kept
    its greedy action and moved its value by less than epsilon, and each of
    its edges out ends at a goal, a `solved` state or a labelled one. Later
    passes read a labelled state's value but neither enter nor back it up.
    The solve has converged once its start is labelled, so the bound holds
    on the returned policy's envelope. `config.max_iterations` counts passes.

    A value dict may be passed in for warm-started replanning; it is
    updated in place, and states new to it start at `config.heuristic`.
    A solve that gives up or runs out of passes returns the best greedy
    policy found, with `converged` false. Every 200 tip-free passes it gives
    up if the residual is not below the one 200 passes earlier: improper
    inputs never converge, and their residual does not fall.

    `solved` holds states labelled by earlier converged solves of the same
    model whose values are in `values` (see the module docstring). A pass
    treats them like goals, and like its own labels. The start is always
    entered. The returned policy is the greedy graph from the start up to
    goals and `solved` states: the final pass's states and the labelled
    states they reach, which are the new labels when the solve converged.
    """
    config = config or SolverConfig()
    root = problem.start if start is None else start
    t0 = time.perf_counter()
    v = values if values is not None else {}
    h = config.heuristic
    epsilon = config.epsilon
    goals = problem.goals
    # Each expanded state's greedy action and that action's outcomes.
    greedy: dict[int, tuple[int, tuple]] = {}
    # 1 at each state this solve has labelled: a byte per state, not a set
    # entry, since nearly every state of an acyclic greedy graph is labelled.
    labelled = bytearray(problem.n_states)
    backups = 0

    def greedy_entry(s: int, a: int) -> tuple[int, tuple]:
        acts, _, dists = problem.record(s)
        return a, dists[acts.index(a)]

    def successors(s: int) -> Iterator[tuple[int, float]]:
        """Enter s: expand it if it is new, then iterate the outcomes of its
        greedy action."""
        nonlocal backups
        entry = greedy.get(s)
        if entry is None:
            v[s], a = bellman_backup(problem, v, s, h)
            entry = greedy[s] = greedy_entry(s, a)
            backups += 1
        return iter(entry[1])

    def sweep() -> tuple[list[int], int, float]:
        """One pass: the postorder of the states it backed up, how many it
        expanded and its max residual. It labels the components it closes."""
        nonlocal backups
        order: list[int] = []
        n_before = len(greedy)
        residual = 0.0
        # The entered states whose component is still open, in the order
        # they were entered; a state's position here is its DFS number.
        open_states = [root]
        # Each state the pass has met: its DFS number while its component
        # is open, -1 once that closed unlabelled, and inf for goals, solved
        # and labelled states, which the pass does not enter.
        number: dict[int, float] = {root: 0}
        # Frames: [state, outcome iterator, lowlink, DFS number, whether all
        # it reaches has converged so far].
        stack: list[list] = [[root, successors(root), 0, 0, True]]
        while stack:
            frame = stack[-1]
            for s2, _ in frame[1]:
                if s2 in number:
                    n = number[s2]
                    if n < frame[2]:
                        if n < 0:
                            frame[4] = False
                        else:
                            frame[2] = n
                elif s2 in goals or s2 in solved or labelled[s2]:
                    number[s2] = math.inf
                else:
                    number[s2] = n = len(open_states)
                    open_states.append(s2)
                    stack.append([s2, successors(s2), n, n, True])
                    break
            else:
                stack.pop()
                s, _, low, n, ok = frame
                val, a = bellman_backup(problem, v, s, h)
                diff = abs(val - v[s])
                if diff > residual:
                    residual = diff
                if a != greedy[s][0]:
                    greedy[s] = greedy_entry(s, a)
                    ok = False
                elif diff >= epsilon:
                    ok = False
                v[s] = val
                order.append(s)
                if low == n:
                    closed = math.inf if ok else -1
                    while len(open_states) > n:
                        m = open_states.pop()
                        number[m] = closed
                        if ok:
                            labelled[m] = 1
                elif low < stack[-1][2]:
                    stack[-1][2] = low
                if not ok and stack:
                    stack[-1][4] = False
        backups += len(order)
        return order, len(greedy) - n_before, residual

    def snapshot(order: list[int], converged: bool) -> Solution:
        policy = {s: greedy[s][0] for s in order}
        reached = list(order)
        while reached:
            for s2, _ in greedy[reached.pop()][1]:
                if labelled[s2] and s2 not in policy:
                    policy[s2] = greedy[s2][0]
                    reached.append(s2)
        return Solution(policy, v, len(greedy), time.perf_counter() - t0, root, converged, backups)

    if root in goals:
        v[root] = 0.0  # no pass backs a goal up
        return snapshot([], converged=True)
    order: list[int] = []
    tip_free = 0
    block_residual = math.inf
    for _ in range(config.max_iterations):
        order, new, residual = sweep()
        if labelled[root]:
            return snapshot(order, converged=True)
        if new:
            tip_free = 0
            block_residual = math.inf
            continue
        # A tip-free envelope along which no goal is reachable: values keep
        # growing, and the residual does not fall from block to block.
        tip_free += 1
        if tip_free % 200 == 0:
            if residual >= block_residual:
                break
            block_residual = residual
    return snapshot(order, converged=False)
