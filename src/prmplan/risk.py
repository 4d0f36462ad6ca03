"""Risk predicates, NSE sets, and reachability-to-risk estimation.

Reachability to risky states is estimated per state as the share of
depth-limited walks, each choosing its action uniformly at random, that
meet a risky state. A profile flattens the records reachable from s0 once
into a pair table of typed buffers (pair and outcome offsets, successor
positions, shifted cumulative probabilities, a risky mask) and advances
each state's walks in lockstep over it. The exact enumeration oracle walks
the records instead. The resulting profile feeds the 0/1 reduced model
selector.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from .mdp import DeadEndError, SspProblem, reachable_states
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


class PairTable(NamedTuple):
    """The records of every state reachable from s0, goals included, in
    flat typed buffers for the lockstep walker.

    Positions index `states` (sorted ids). The pairs of position i are
    `first_pair[i]:first_pair[i + 1]`, in record order; the outcomes of
    pair j are `first_outcome[j]:first_outcome[j + 1]`, with successor
    positions `succ` and cumulative probabilities shifted by the pair id in
    `cum`, so the whole of `cum` is sorted and pair j's last entry is
    exactly j + 1. `risky` is the predicate at each position.
    """

    states: np.ndarray
    first_pair: np.ndarray
    first_outcome: np.ndarray
    succ: np.ndarray
    cum: np.ndarray
    risky: np.ndarray

    def position(self, s: int) -> int:
        i = int(np.searchsorted(self.states, s))
        if i == len(self.states) or self.states[i] != s:
            raise KeyError(f"state {s} is not reachable from s0")
        return i

    def draw(self, pair: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outcome indices of the given pairs, by inverse CDF at u in [0, 1)."""
        j = np.searchsorted(self.cum, pair + u, side="right")
        # pair + u can round up to pair + 1, one past the pair's last outcome.
        return np.minimum(j, self.first_outcome[pair + 1] - 1)


def build_pair_table(problem: SspProblem, predicate: RiskPredicate) -> PairTable:
    """Flatten the records reachable from s0, calling the predicate once per
    state. A goal's zero-cost self-loop makes it absorbing. Raises
    DeadEndError for a non-goal state without actions."""
    states = np.array(sorted(reachable_states(problem)), dtype=np.int64)
    first_pair = array("q", [0])
    first_outcome = array("q", [0])
    succ = array("q")
    cum = array("d")
    for s in states.tolist():
        dists = problem.record(s)[2]
        if not dists:
            raise DeadEndError(f"state {s} has no applicable action")
        for dist in dists:
            pair = len(first_outcome) - 1
            acc = 0.0
            for s2, p in dist:
                acc += p
                succ.append(s2)
                cum.append(pair + acc)
            cum[-1] = pair + 1.0
            first_outcome.append(len(succ))
        first_pair.append(len(first_outcome) - 1)
    ids = np.frombuffer(succ, dtype=np.int64)
    return PairTable(
        states=states,
        first_pair=np.frombuffer(first_pair, dtype=np.int64),
        first_outcome=np.frombuffer(first_outcome, dtype=np.int64),
        succ=np.searchsorted(states, ids),
        cum=np.frombuffer(cum, dtype=np.float64),
        risky=np.fromiter(map(predicate, states.tolist()), dtype=bool, count=len(states)),
    )


def _walk_positions(table: PairTable, start: int, n: int, depth: int, seed) -> np.ndarray:
    """(n, depth + 1) table positions of n lockstep walks from position start."""
    if n < 1 or depth < 1:
        raise ValueError("sample_walks needs n >= 1 and depth >= 1")
    rng = np.random.default_rng(seed)
    walks = np.empty((n, depth + 1), dtype=np.int64)
    here = walks[:, 0] = start
    for t in range(1, depth + 1):
        first = table.first_pair[here]
        k = table.first_pair[here + 1] - first
        pair = first + (rng.random(n) * k).astype(np.int64)
        here = walks[:, t] = table.succ[table.draw(pair, rng.random(n))]
    return walks


def sample_walks(
    table: PairTable, from_state: int, n: int, depth: int, seed
) -> np.ndarray:
    """n depth-limited random walks from one state, fully seed-determined.

    Returns an (n, depth + 1) array of state ids whose first column is
    from_state. The walks advance in lockstep: each step draws one action
    per walk uniformly among the applicable ones, as floor(u * k), and one
    successor per walk by inverse CDF over the table. Goals absorb.
    """
    return table.states[_walk_positions(table, table.position(from_state), n, depth, seed)]


@dataclass
class RiskProfile:
    """Per-state estimates of the probability that a depth-limited walk
    encounters a risky state. Lazy: reach(s) is sampled on first query with
    a seed derived from (seed, s), so results are independent of query order.
    The first estimate builds the pair table (and risky mask) over the
    states reachable from s0; reach(s) raises KeyError outside it.
    """

    problem: SspProblem
    predicate: RiskPredicate
    samples: int = 30
    depth: int = 4
    seed: int = 0
    _reach: dict[int, float] = field(default_factory=dict, repr=False)
    _table: PairTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.samples < 1 or self.depth < 1:
            raise ValueError(
                f"risk profile needs samples >= 1 and depth >= 1, "
                f"got {self.samples} and {self.depth}"
            )

    @property
    def table(self) -> PairTable:
        if self._table is None:
            self._table = build_pair_table(self.problem, self.predicate)
        return self._table

    def reach(self, s: int) -> float:
        value = self._reach.get(s)
        if value is None:
            table = self.table
            i = table.position(s)
            if table.risky[i]:
                value = 1.0
            else:
                walks = _walk_positions(table, i, self.samples, self.depth, [self.seed, s])
                value = int(table.risky[walks].any(axis=1).sum()) / self.samples
            self._reach[s] = value
        return value

    def leads_to_risk(self, s: int, a: int) -> bool:
        """True when some outcome of (s, a) is risky, read from the mask."""
        table = self.table
        pair = table.first_pair[table.position(s)] + self.problem.actions(s).index(a)
        outcomes = table.succ[table.first_outcome[pair]:table.first_outcome[pair + 1]]
        return bool(table.risky[outcomes].any())

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
