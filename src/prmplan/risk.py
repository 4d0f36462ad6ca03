"""Risk predicates, NSE sets, and reachability-to-risk estimation.

Reachability to risky states is estimated per state by depth-limited
uniform-random-action walks; an exact enumeration mode backs the estimator
up on desk-scale instances. The resulting profile feeds the 0/1 reduced
model selector.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .mdp import SspProblem, reachable_states
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


def sample_walks(
    problem: SspProblem,
    from_state: int,
    n: int,
    depth: int,
    seed,
) -> list[list[int]]:
    """n depth-limited random walks from one state, fully seed-determined.

    Each trajectory lists the visited states starting with from_state; at
    every step an applicable action is drawn uniformly and a successor
    sampled from the true transition function. Walks stop early at goals.
    """
    if n < 1 or depth < 1:
        raise ValueError("sample_walks needs n >= 1 and depth >= 1")
    rng = np.random.default_rng(seed)
    walks: list[list[int]] = []
    for _ in range(n):
        s = from_state
        trajectory = [s]
        for _ in range(depth):
            if problem.is_goal(s):
                break
            acts, _, dists = problem.record(s)
            dist = dists[rng.integers(len(acts))]
            u = rng.random()
            acc = 0.0
            s2 = dist[-1][0]
            for cand, p in dist:
                acc += p
                if u < acc:
                    s2 = cand
                    break
            trajectory.append(s2)
            s = s2
        walks.append(trajectory)
    return walks


@dataclass
class RiskProfile:
    """Per-state estimates of the probability that a depth-limited walk
    encounters a risky state. Lazy: reach(s) is sampled on first query with
    a seed derived from (seed, s), so results are independent of query order.
    """

    problem: SspProblem
    predicate: RiskPredicate
    samples: int = 30
    depth: int = 4
    seed: int = 0
    _reach: dict[int, float] = field(default_factory=dict, repr=False)

    def reach(self, s: int) -> float:
        value = self._reach.get(s)
        if value is None:
            if self.predicate(s):
                value = 1.0
            else:
                walks = sample_walks(
                    self.problem, s, self.samples, self.depth, [self.seed, s]
                )
                hits = sum(
                    1 for w in walks if any(self.predicate(x) for x in w)
                )
                value = hits / self.samples
            self._reach[s] = value
        return value

    def materialize(self, states: Iterable[int] | None = None) -> None:
        for s in states if states is not None else reachable_states(self.problem):
            self.reach(s)

    def dump(self, stream: TextIO) -> None:
        """One `state_id reach` line per computed state, sorted by id."""
        for s in sorted(self._reach):
            stream.write(f"{s} {self._reach[s]:.6f}\n")


def estimate_risk_profile(
    problem: SspProblem,
    predicate: RiskPredicate,
    samples: int = 30,
    depth: int = 4,
    seed: int = 0,
) -> RiskProfile:
    return RiskProfile(problem, predicate, samples, depth, seed)


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
        if base.is_goal(s):
            continue
        for full, cut in zip(base.record(s)[2], reduced.record(s)[2]):
            kept = {s2 for s2, _ in cut}
            for s2, _ in full:
                if s2 not in kept and predicate(s2):
                    result.add(s2)
    return result
