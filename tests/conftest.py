"""Shared fixtures: hand-built desk problems and small domain instances."""

import pytest
from hypothesis import settings

from prmplan import RiskPredicate, tabular_problem

# Every run draws the same examples, and none is replayed from a local
# example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def chain3():
    """Deterministic 3-state chain s0 -> s1 -> goal(2), unit costs; V*(s0)=2."""
    return tabular_problem(
        transitions={(0, 0): [(1, 1.0)], (1, 0): [(2, 1.0)]},
        costs={(0, 0): 1.0, (1, 0): 1.0},
        start=0,
        goals={2},
    )


@pytest.fixture
def self_loop():
    """s0 -a0-> {s0: 0.5, goal: 0.5}, cost 1; V*(s0) = 1/0.5 = 2 (geometric)."""
    return tabular_problem(
        transitions={(0, 0): [(0, 0.5), (1, 0.5)]},
        costs={(0, 0): 1.0},
        start=0,
        goals={1},
    )


@pytest.fixture
def risky_fork():
    """s0 -a0-> {s1: 0.9, s2: 0.1}; s2 is risky; both funnel to goal(3).

    A second, costlier action a1 at s0 goes straight to the goal, so the
    instance stays proper under any reduction.
    """
    problem = tabular_problem(
        transitions={
            (0, 0): [(1, 0.9), (2, 0.1)],
            (0, 1): [(3, 1.0)],
            (1, 0): [(3, 1.0)],
            (2, 0): [(3, 1.0)],
        },
        costs={(0, 0): 1.0, (0, 1): 5.0, (1, 0): 1.0, (2, 0): 1.0},
        start=0,
        goals={3},
    )
    predicate = RiskPredicate(evaluate=lambda s: s == 2, name="s2-risky")
    return problem, predicate


TINY_TRACK = "\n".join(
    (
        "XXXXXXXXXX",
        "XS......GX",
        "X.......GX",
        "XP......GX",
        "XXXXXXXXXX",
    )
)


@pytest.fixture(scope="session")
def tiny_racetrack():
    from prmplan.domains import build_racetrack

    return build_racetrack(TINY_TRACK, name="tiny")


@pytest.fixture(scope="session")
def small_sailing():
    from prmplan.domains import build_sailing

    return build_sailing(6, "middle")


@pytest.fixture(scope="session")
def ev_scenario():
    from prmplan.domains import generate_ev_scenarios

    return generate_ev_scenarios(1, seed=0)[0]


@pytest.fixture(scope="session")
def small_ev(ev_scenario):
    from prmplan.domains import build_ev

    return build_ev(ev_scenario)
