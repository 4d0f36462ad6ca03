"""Outcome selection principles, model selectors, and reduced model assembly.

A reduced model keeps a per-(state, action) subset of the full model's
outcomes and renormalizes the kept probabilities; its state records are
derived from the base model's. The model selector decides which outcome
selection principle applies to each pair; the 0/1 variant switches between
full fidelity near risky states and most-likely-outcome determinization
elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import TYPE_CHECKING

from .mdp import Distribution, SspProblem, StateRecord, make_distribution

if TYPE_CHECKING:
    from .risk import RiskProfile


@dataclass(frozen=True)
class OutcomeSelectionPrinciple:
    """A rule choosing which outcomes of (s, a) survive into the reduced model.

    Kinds: "most_likely" keeps the single highest-probability outcome,
    "greedy_k" keeps the k highest, "full" keeps everything. Probability
    ties break toward the lowest successor id.
    """

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in ("most_likely", "greedy_k", "full"):
            raise ValueError(f"unknown outcome selection kind {self.kind!r}")
        if self.kind == "greedy_k" and self.k < 1:
            raise ValueError("greedy_k needs k >= 1")


MOST_LIKELY = OutcomeSelectionPrinciple("most_likely")
FULL_MODEL = OutcomeSelectionPrinciple("full")
M02 = OutcomeSelectionPrinciple("greedy_k", 2)


def select_outcomes(
    principle: OutcomeSelectionPrinciple, full: Distribution
) -> Distribution:
    """Apply one outcome selection principle to a full distribution: `full`
    itself when every outcome is kept, else the checked distribution of the
    kept outcomes divided by their mass (proportional to the originals).
    """
    if principle.kind == "full":
        return full
    k = 1 if principle.kind == "most_likely" else principle.k
    if k >= len(full):
        return full
    kept = sorted(full, key=lambda e: (-e[1], e[0]))[:k]
    mass = sum(p for _, p in kept)
    return make_distribution([(s, p / mass) for s, p in kept])


class ModelSelector:
    """Maps every applicable (state, action) pair to a selection principle."""

    def principle(self, s: int, a: int) -> OutcomeSelectionPrinciple:
        raise NotImplementedError


class UniformSelector(ModelSelector):
    """The classical single-principle reduction (e.g. MLOD or M02 everywhere)."""

    def __init__(self, principle: OutcomeSelectionPrinciple):
        self._principle = principle

    def principle(self, s: int, a: int) -> OutcomeSelectionPrinciple:
        return self._principle


class ZeroOneSelector(ModelSelector):
    """The 0/1 RM selector: full model near risk, determinization elsewhere.

    A pair gets the full model when the state's estimated reachability to
    risk meets the threshold, or when an outcome of the pair's base
    distribution is one of the profile's risky states (the one-step guard).
    """

    def __init__(self, risk_profile: "RiskProfile", threshold: float):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        self.risk_profile = risk_profile
        self.threshold = threshold

    def principle(self, s: int, a: int) -> OutcomeSelectionPrinciple:
        profile = self.risk_profile
        if profile.reach(s) >= self.threshold:
            return FULL_MODEL
        risky = profile.risky_states()
        if any(s2 in risky for s2, _ in profile.problem.transition(s, a)):
            return FULL_MODEL
        return MOST_LIKELY


class ReducedModel(SspProblem):
    """The base problem with each distribution cut by the selector.

    States, start, goals and the pair table are the base's. Each record is
    derived from the base's record of the same state alone: the action and
    cost tuples are shared, and each distribution is `select_outcomes` of
    the base's, which is the base's object when kept whole and is built from
    the base's pairs when cut. A state with no cut gets the base's record
    object. The selector is asked once per pair of a non-goal state, when
    its record is built; a goal's record is the base's.
    """

    def __init__(self, base: SspProblem, selector: ModelSelector, name: str = ""):
        # Records come from _build_record, so no expansion callback is kept.
        super().__init__(
            base.n_states,
            base.start,
            base.goals,
            expand_fn=None,
            name=name or (f"{base.name}/reduced" if base.name else "reduced"),
        )
        self.base = base
        self.selector = selector
        self._pairs = base._pairs

    def _build_record(self, s: int) -> StateRecord:
        record = self.base.record(s)
        if s in self.goals:  # a one-outcome self-loop: no principle cuts it
            return record
        acts, costs, dists = record
        cuts = [select_outcomes(self.selector.principle(s, a), d) for a, d in zip(acts, dists)]
        if all(map(is_, cuts, dists)):
            return record
        return acts, costs, tuple([c if c is d else self._share(c) for c, d in zip(cuts, dists)])


def build_reduced_model(
    base: SspProblem, selector: ModelSelector, name: str = ""
) -> ReducedModel:
    return ReducedModel(base, selector, name)
