"""Solvers: value iteration oracle, exact h_min heuristic and LAO*.

Every solver reads the problem's per-state records: value iteration and
h_min through its memoized compiled model, as flat numpy arrays of pairs
and outcomes, LAO* through the Bellman kernel. A goal's record, a zero-cost
self-loop, keeps it at 0 in value iteration; h_min seeds 0 on the goals,
and LAO* stops at them. LAO* plans every reduced model, determinized ones
included, and runs as ILAO*: each iteration is one depth-first pass over
the greedy envelope that expands the tips it meets and backs its states up
in postorder. Value iteration shares no code with it, so it stays an
independent oracle, and a value oracle only: every caller reads V*(s0), so
its policy is empty. `SolverConfig.max_iterations` bounds VI's sweeps and
LAO*'s passes. Value iteration raises NonconvergenceError when it does not
converge; LAO* returns its best greedy policy with `Solution.converged`
false, which the executor acts on like any other.

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
    `converged` is false only for a LAO* solve that stalled or ran out of
    passes. `solved` is the set of states labelled by a converged LAO*
    solve: its final pass's postorder, which is exactly the policy's
    states. It is empty for a stalled LAO* solve. VI fills only `values`,
    `expanded_states` and `solve_time`; its policy and labels are empty."""

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

