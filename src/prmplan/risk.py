"""Risk predicates, NSE sets, and reachability-to-risk estimation.

Reachability to risky states is estimated per state as the share of
depth-limited walks, each choosing its action uniformly at random, that
meet a risky state. A profile walks every reachable state on its first
query, whole states' walks in lockstep over the problem's memoized
compiled model and its own inverse-CDF table, which it builds when it is
made, with its predicate's risky mask and the ids of the risky states.
The exact enumeration oracle walks the records instead. The resulting
profile feeds the 0/1 reduced model selector.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .mdp import CompiledModel, SspProblem, compile_model, reachable_states
from .reduction import ReducedModel


@dataclass(frozen=True)
class RiskPredicate:
    """D(s): true iff deliberation (replanning) in the state is unsafe.

    Must be deterministic and side-effect free, and false on all goals
    (a RiskProfile refuses one that holds on a reachable goal).
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


# Walks advance in lockstep chunks of whole states, about this many walks a
# chunk: enough that numpy's per-call cost is spread thin, few enough that a
# chunk's draws stay far below a whole-model array. Chunks of 4,096 walks
# estimated the EV benchmark file faster but raised its run's peak RSS.
CHUNK_WALKS = 2048


def _hit_shares(
    model: CompiledModel, cum: np.ndarray, risky: np.ndarray, samples: int, depth: int, seed: int
) -> np.ndarray:
    """Per position, the share of its `samples` depth-limited walks that meet
    a risky position; 1.0 at a risky position itself.

    The walks of state s draw `default_rng([seed, s]).random(2 * depth *
    samples)`: at step t, `samples` doubles pick each walk's action as
    floor(u * k), then `samples` more its outcome, the first of the pair's
    entries of `cum` above pair + u (its last one if none is). The walks of
    whole states advance together, CHUNK_WALKS or so at a time, in buffers
    allocated once.
    """
    first_pair, first_outcome, succ, states = (
        model.first_pair, model.first_outcome, model.succ, model.states
    )
    n_acts = np.diff(first_pair)
    # Halvings that narrow the widest pair's outcomes to one.
    halvings = int(np.diff(first_outcome).max() - 1).bit_length()
    shares = risky.astype(np.float64)
    todo = np.flatnonzero(~risky)
    per_chunk = min(max(1, CHUNK_WALKS // samples), max(1, len(todo)))
    draws = np.empty((per_chunk, 2 * depth, samples))
    lanes = (per_chunk, samples)
    here, pick, pair, lo, width, half = (np.empty(lanes, np.int64) for _ in range(6))
    u, entry = np.empty(lanes), np.empty(lanes)
    hit, met, up = np.empty(lanes, bool), np.empty(lanes, bool), np.empty(lanes, bool)
    # The spare rows of a short last chunk walk the previous chunk's draws
    # from where its walks ended; their counts are not read. Every index
    # below is in range but the probe at lo - 1 of a one-entry span, which
    # adds nothing; "clip" keeps np.take from buffering its output.
    for c in range(0, len(todo), per_chunk):
        chunk = todo[c : c + per_chunk]
        for row, s in zip(draws, states[chunk].tolist()):
            np.random.default_rng([seed, s]).random(out=row.reshape(-1))
        here[: len(chunk)] = chunk[:, None]
        hit[:] = False
        for t in range(depth):
            # The action: floor(u * k), truncated as astype truncates.
            np.take(n_acts, here, out=pick, mode="clip")
            np.multiply(draws[:, 2 * t], pick, out=u)
            np.copyto(pick, u, casting="unsafe")
            np.take(first_pair, here, out=pair, mode="clip")
            pair += pick
            # The outcome: the first of the pair's entries above pair + u, or
            # its last, found by halving [lo, lo + width) down to one entry.
            np.add(pair, draws[:, 2 * t + 1], out=u)
            np.take(first_outcome, pair, out=lo, mode="clip")
            pair += 1
            np.take(first_outcome, pair, out=width, mode="clip")
            width -= lo
            for _ in range(halvings):
                np.right_shift(width, 1, out=half)
                width -= half
                np.add(lo, half, out=pick)
                pick -= 1
                np.take(cum, pick, out=entry, mode="clip")
                np.less_equal(entry, u, out=up)
                half *= up
                lo += half
            np.take(succ, lo, out=here, mode="clip")
            np.take(risky, here, out=met, mode="clip")
            hit |= met
        shares[chunk] = np.count_nonzero(hit[: len(chunk)], axis=1) / samples
    return shares


@dataclass
class RiskProfile:
    """Per-state estimates of the probability that a depth-limited walk
    encounters a risky state. Making one compiles the problem, calls the
    predicate once per reachable state for the risky mask and ids
    (`risky_states()`), and builds the walks' inverse-CDF table; the
    predicate must be false on every reachable goal (ValueError otherwise).
    The first reach() query walks every reachable non-risky state at once,
    each state's walks seeded from (seed, s) so that its value does not
    depend on the others, and then drops the table; every query reads the
    values by state id. reach(s) raises KeyError for an id not reachable
    from s0.
    """

    problem: SspProblem
    predicate: RiskPredicate
    samples: int = 30
    depth: int = 4
    seed: int = 0

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
        risky_goals = sorted(self._risky_ids & self.problem.goals)
        if risky_goals:
            raise ValueError(f"risk predicate is true on goal state {risky_goals[0]}")
        self._cum = _cumulative(model)
        self._values: np.ndarray | None = None

    def risky_states(self) -> frozenset[int]:
        """The ids of the states reachable from s0 where the predicate holds."""
        return self._risky_ids

    def reach(self, s: int) -> float:
        values = self._values
        if values is None:
            model = self._model
            shares = _hit_shares(
                model, self._cum, self._risky, self.samples, self.depth, self.seed
            )
            values = self._values = np.full(self.problem.n_states, np.nan)
            values[model.states] = shares
            self._cum = None
        value = values[s] if 0 <= s < len(values) else math.nan
        if math.isnan(value):
            raise KeyError(f"state {s} is not reachable from s0")
        return float(value)


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
