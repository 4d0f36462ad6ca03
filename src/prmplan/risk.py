"""Risk predicates, NSE sets, and reachability-to-risk estimation.

Reachability to risky states is estimated per state as the share of
depth-limited walks, each choosing its action uniformly at random, that
meet a risky state. A profile advances each state's walks in lockstep over
the problem's memoized compiled model and its own inverse-CDF table, which
it builds when it is made, with its predicate's risky mask and the ids of
the risky states. The exact enumeration oracle walks the records instead.
The resulting profile feeds the 0/1 reduced model selector.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .mdp import CompiledModel, SspProblem, compile_model, reachable_states
from .reduction import ReducedModel


@dataclass(frozen=True)
class RiskPredicate:
    """D(s): true iff deliberation (replanning) in the state is unsafe.

    Must be deterministic and side-effect free, and false on all goals.
    feature_names documents the state features the predicate encodes.
    """

    evaluate: Callable[[int], bool]
    feature_names: tuple[str, ...] = ()
    name: str = ""

    def __call__(self, s: int) -> bool:
        return bool(self.evaluate(s))


def _cumulative(model: CompiledModel) -> np.ndarray:
    """Cumulative outcome probabilities shifted by the pair id: sorted, and
    pair j's last entry is exactly j + 1."""
    first_outcome = model.first_outcome
    counts = np.diff(first_outcome)
    n_pairs = len(counts)
    # Running sums from 0.0 in outcome order, one outcome rank at a time
    # over all pairs, then each shifted by its pair id: the additions of a
    # plain per-pair loop, written in place.
    cum = model.prob.copy()
    n_ranks = int(counts.max())
    for k in range(1, n_ranks):
        j = first_outcome[:-1][counts > k]
        j += k
        cum[j] += cum[j - 1]
    for k in range(n_ranks):
        live = np.flatnonzero(counts > k)
        j = first_outcome[live]
        j += k
        cum[j] += live
    cum[first_outcome[1:] - 1] = np.arange(1, n_pairs + 1)
    return cum


def _walk_positions(
    model: CompiledModel, cum: np.ndarray, start: int, n: int, depth: int, seed
) -> np.ndarray:
    """(n, depth + 1) model positions of n lockstep walks from position start:
    each step picks an action as floor(u * k) and a successor by inverse CDF."""
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


@dataclass
class RiskProfile:
    """Per-state estimates of the probability that a depth-limited walk
    encounters a risky state. Making one compiles the problem, calls the
    predicate once per reachable state for the risky mask and ids
    (`risky_states()`), and builds the walks' table. Lazy: reach(s) is
    sampled on first query with a seed derived from (seed, s), so results
    are independent of query order. reach(s) raises KeyError for a state
    not reachable from s0.
    """

    problem: SspProblem
    predicate: RiskPredicate
    samples: int = 30
    depth: int = 4
    seed: int = 0
    _reach: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.samples < 1 or self.depth < 1:
            raise ValueError(
                f"risk profile needs samples >= 1 and depth >= 1, "
                f"got {self.samples} and {self.depth}"
            )
        model = self._model = compile_model(self.problem)
        states = model.states
        self._risky = np.array(list(map(self.predicate, states.tolist())), dtype=bool)
        self._risky_ids = frozenset(states[self._risky].tolist())
        self._cum = _cumulative(model)

    def risky_states(self) -> frozenset[int]:
        """The ids of the states reachable from s0 where the predicate holds."""
        return self._risky_ids

    def reach(self, s: int) -> float:
        value = self._reach.get(s)
        if value is None:
            model, risky = self._model, self._risky
            i = model.position(s)
            if risky[i]:
                value = 1.0
            else:
                walks = _walk_positions(
                    model, self._cum, i, self.samples, self.depth, [self.seed, s]
                )
                value = int(risky[walks].any(axis=1).sum()) / self.samples
            self._reach[s] = value
        return value


def exact_risk_reachability(
    problem: SspProblem, predicate: RiskPredicate, depth: int
) -> dict[int, float]:
    """Exact depth-limited hit probabilities by enumeration (desk scale).

    Matches the random-walk process: uniform action choice, true outcome
    probabilities, early stop at goals and at risky states.
    """
    memo: dict[tuple[int, int], float] = {}

    def hit(s: int, remaining: int) -> float:
        if predicate(s):
            return 1.0
        if remaining == 0 or problem.is_goal(s):
            return 0.0
        key = (s, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        dists = problem.record(s)[2]
        total = 0.0
        for dist in dists:
            for s2, p in dist:
                total += p * hit(s2, remaining - 1)
        value = total / len(dists)
        memo[key] = value
        return value

    return {s: hit(s, depth) for s in reachable_states(problem)}


def nse_set(
    base: SspProblem, reduced: ReducedModel, predicate: RiskPredicate
) -> set[int]:
    """States s' whose riskiness the reduction ignores: some reachable (s, a)
    has T(s,a,s') > 0, D(s') true, and s' dropped from the reduced support."""
    result: set[int] = set()
    for s in reachable_states(base):
        for full, cut in zip(base.record(s)[2], reduced.record(s)[2]):
            kept = {s2 for s2, _ in cut}
            for s2, _ in full:
                if s2 not in kept and predicate(s2):
                    result.add(s2)
    return result
