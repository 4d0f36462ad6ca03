"""Seeded random SSPs shared by the solver, model and protocol tests."""

import numpy as np

from prmplan import RiskPredicate, tabular_problem


def random_proper_ssp(seed: int, n_states: int = 12, n_actions: int = 3):
    """A seeded random SSP kept proper by wiring every action to sometimes
    step one state closer to the goal (state n-1)."""
    rng = np.random.default_rng(seed)
    transitions = {}
    costs = {}
    goal = n_states - 1
    for s in range(goal):
        for a in range(n_actions):
            succs = {s + 1: 0.4}
            for _ in range(int(rng.integers(1, 3))):
                succs[int(rng.integers(0, n_states))] = float(rng.uniform(0.1, 0.5))
            total = sum(succs.values())
            transitions[(s, a)] = [(s2, p / total) for s2, p in sorted(succs.items())]
            costs[(s, a)] = float(rng.uniform(0.5, 3.0))
    return tabular_problem(transitions, costs, start=0, goals={goal})


def random_small_ssp(seed: int):
    """A seeded random SSP that may be improper, and its risk predicate.

    2-12 states, the last one the goal and state 0 the start; 1-3 actions
    per other state and 1-3 distinct successors per action, any state
    among them. Probabilities are small integer weights over their sum, so
    outcomes often tie. Costs are uniform in [0.01, 5], and 0-2 non-goal
    states are risky. Nothing forces a goal path: the base, or any of its
    reductions, may have a reachable state that reaches no goal.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    goal = n - 1
    transitions = {}
    costs = {}
    for s in range(goal):
        for a in range(int(rng.integers(1, 4))):
            succs = rng.choice(n, size=min(int(rng.integers(1, 4)), n), replace=False)
            weights = rng.integers(1, 4, size=len(succs))
            total = int(weights.sum())
            transitions[(s, a)] = [(int(s2), int(w) / total) for s2, w in zip(succs, weights)]
            costs[(s, a)] = float(rng.uniform(0.01, 5.0))
    n_risky = min(int(rng.integers(0, 3)), goal)
    risky = frozenset(rng.choice(goal, size=n_risky, replace=False).tolist())
    problem = tabular_problem(transitions, costs, start=0, goals={goal}, n_states=n)
    return problem, RiskPredicate(evaluate=risky.__contains__, name=f"random-{seed}")
