"""Risk predicates, NSE sets, and reachability-to-risk estimation.

Reachability to risky states is estimated per state as the share of
depth-limited walks, each choosing its action uniformly at random, that
meet a risky state. A profile advances each state's walks in lockstep over
the problem's memoized compiled model (pair and outcome offsets, successor
positions, shifted cumulative probabilities), beside which it keeps only a
risky mask of its own predicate. The exact enumeration oracle walks the
records instead. The resulting profile feeds the 0/1 reduced model
selector.
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


def _walk_positions(
    model: CompiledModel, start: int, n: int, depth: int, seed
) -> np.ndarray:
    """(n, depth + 1) model positions of n lockstep walks from position start."""
    if n < 1 or depth < 1:
        raise ValueError("sample_walks needs n >= 1 and depth >= 1")
    rng = np.random.default_rng(seed)
    walks = np.empty((n, depth + 1), dtype=np.int64)
    here = walks[:, 0] = start
    for t in range(1, depth + 1):
        first = model.first_pair[here]
        k = model.first_pair[here + 1] - first
        pair = first + (rng.random(n) * k).astype(np.int64)
        here = walks[:, t] = model.succ[model.draw(pair, rng.random(n))]
    return walks


def sample_walks(
    model: CompiledModel, from_state: int, n: int, depth: int, seed
) -> np.ndarray:
    """n depth-limited random walks from one state, fully seed-determined.

    Returns an (n, depth + 1) array of state ids whose first column is
    from_state. The walks advance in lockstep: each step draws one action
    per walk uniformly among the applicable ones, as floor(u * k), and one
    successor per walk by inverse CDF over the model. Goals absorb.
    """
    return model.states[_walk_positions(model, model.position(from_state), n, depth, seed)]


@dataclass
class RiskProfile:
    """Per-state estimates of the probability that a depth-limited walk
    encounters a risky state. Lazy: reach(s) is sampled on first query with
    a seed derived from (seed, s), so results are independent of query order.
    Walks run over `compile_model(problem)`; the first query also evaluates
    the predicate once per state of it into the risky mask. reach(s) raises
    KeyError for a state not reachable from s0.
    """

    problem: SspProblem
    predicate: RiskPredicate
    samples: int = 30
    depth: int = 4
    seed: int = 0
    _reach: dict[int, float] = field(default_factory=dict, repr=False)
    _risky: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.samples < 1 or self.depth < 1:
            raise ValueError(
                f"risk profile needs samples >= 1 and depth >= 1, "
                f"got {self.samples} and {self.depth}"
            )

    def _model(self) -> tuple[CompiledModel, np.ndarray]:
        """The compiled base model and the predicate at each of its positions."""
        model = compile_model(self.problem)
        if self._risky is None:
            self._risky = np.array(list(map(self.predicate, model.states.tolist())), dtype=bool)
        return model, self._risky

    def reach(self, s: int) -> float:
        value = self._reach.get(s)
        if value is None:
            model, risky = self._model()
            i = model.position(s)
            if risky[i]:
                value = 1.0
            else:
                walks = _walk_positions(model, i, self.samples, self.depth, [self.seed, s])
                value = int(risky[walks].any(axis=1).sum()) / self.samples
            self._reach[s] = value
        return value

    def leads_to_risk(self, s: int, a: int) -> bool:
        """True when some outcome of (s, a) is risky, read from the mask."""
        model, risky = self._model()
        pair = model.first_pair[model.position(s)] + self.problem.actions(s).index(a)
        outcomes = model.succ[model.first_outcome[pair]:model.first_outcome[pair + 1]]
        return bool(risky[outcomes].any())


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
