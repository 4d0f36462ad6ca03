"""EV charging domain: vehicle-to-grid charging under departure uncertainty.

A finite-horizon MDP over ⟨charge level l, time t, demand level d, price
distribution p, announced departure e⟩, unrolled into an SSP with absorbing
departure states. The vehicle charges or discharges at three speeds (both
stochastic in how demand, prices, and announcements evolve) or idles
(deterministic). Departing below the goal charge costs a large preference
violation penalty. Rewards are mapped to positive costs by subtracting
from a per-scenario constant.

The proprietary campus dataset behind the original benchmark is replaced
by a seeded synthetic scenario generator.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..mdp import SspProblem, numbered_problem
from ..risk import RiskPredicate

N_DEMAND = 4
N_PRICE = 2
MAX_RATE = 3
E_UNANNOUNCED = 3


@dataclass(frozen=True)
class EvScenario:
    """One synthetic charging scenario (all randomness pinned at generation).

    Prices are indexed [t][d][p]; each time step is 30 minutes and the
    default horizon of 16 covers an eight-hour stay. `announce_window` is
    the half-open [start, end) step range (hours four to six by default)
    where a departure announcement is likeliest.
    """

    name: str = "ev"
    horizon: int = 16
    levels: int = 8
    start_charge: int = 1
    goal_charge: int = 7
    start_demand: int = 0
    start_price: int = 0
    buy_price: tuple = ()
    sell_price: tuple = ()
    peak_hours: tuple = ()
    demand_transition: tuple = ()
    price_switch: tuple = (0.1, 0.1)
    announce_prob_window: float = 0.2
    announce_prob_outside: float = 0.05
    announce_window: tuple = (8, 12)
    inefficiency: float = 0.15
    violation_penalty: float | None = None

    def validate(self) -> None:
        """Raise ValueError naming the first field of the wrong type, shape
        or range, since scenario files are outside input. Every action cost
        comes out positive: with an inefficiency in [0, 1], r_max exceeds
        every one-step reward by at least 1, and a given penalty is > 0."""
        if not isinstance(self.name, str):
            raise ValueError(f"name {self.name!r} is not a string")
        _integer("horizon", self.horizon, 1, math.inf)
        _integer("levels", self.levels, 1, math.inf)
        _integer("start_charge", self.start_charge, 0, self.levels)
        _integer("goal_charge", self.goal_charge, 1, self.levels)
        _integer("start_demand", self.start_demand, 0, N_DEMAND - 1)
        _integer("start_price", self.start_price, 0, N_PRICE - 1)
        prices = (self.horizon, N_DEMAND, N_PRICE)
        for name in ("buy_price", "sell_price"):
            for price in _entries(name, getattr(self, name), prices):
                _number(name, price, 0.0, math.inf)
        _entries("peak_hours", self.peak_hours, (self.horizon,))
        demand = (N_DEMAND, N_DEMAND)
        for prob in _entries("demand_transition", self.demand_transition, demand):
            _number("demand_transition", prob, 0.0, 1.0)
        if any(abs(sum(row) - 1.0) > 1e-9 for row in self.demand_transition):
            raise ValueError("demand_transition rows must sum to 1")
        for prob in _entries("price_switch", self.price_switch, (N_PRICE,)):
            _number("price_switch", prob, 0.0, 1.0)
        _number("announce_prob_window", self.announce_prob_window, 0.0, 1.0)
        _number("announce_prob_outside", self.announce_prob_outside, 0.0, 1.0)
        for step in _entries("announce_window", self.announce_window, (2,)):
            _integer("announce_window", step, 0, self.horizon)
        if self.announce_window[0] > self.announce_window[1]:
            raise ValueError(f"announce_window {list(self.announce_window)} starts after it ends")
        _number("inefficiency", self.inefficiency, 0.0, 1.0)
        if self.violation_penalty is not None:
            _number("violation_penalty", self.violation_penalty, 0.0, math.inf)
            if self.violation_penalty == 0:
                raise ValueError("violation_penalty must be positive")

    @property
    def r_max(self) -> float:
        """Cost shift: one above the best attainable one-step reward."""
        best_sell = max(
            price for row in self.sell_price for pair in row for price in pair
        )
        return 1.0 + best_sell * MAX_RATE * (1.0 - self.inefficiency)

    @property
    def penalty(self) -> float:
        return (
            self.violation_penalty
            if self.violation_penalty is not None
            else 100.0 * self.r_max
        )

    def announce_prob(self, t: int) -> float:
        lo, hi = self.announce_window
        return self.announce_prob_window if lo <= t < hi else self.announce_prob_outside

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvScenario":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("an EV scenario must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown EV scenario field(s) {', '.join(unknown)}")

        def tupled(value):
            if isinstance(value, list):
                return tuple(tupled(v) for v in value)
            return value

        scenario = cls(**{k: tupled(v) for k, v in data.items()})
        scenario.validate()
        return scenario


def _integer(name: str, value, lo: float, hi: float) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise ValueError(f"{name} {value!r} is not an integer in [{lo}, {hi}]")


def _number(name: str, value, lo: float, hi: float) -> None:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not lo <= value <= hi or not math.isfinite(value):
        raise ValueError(f"{name} {value!r} is not a finite number in [{lo}, {hi}]")


def _entries(name: str, value, shape: tuple[int, ...]) -> list:
    """The innermost entries of `value`, a table of nested sequences of the
    given shape (a price table is horizon x 4 x 2); ValueError naming the
    field when the shape differs."""
    entries = [value]
    for n in shape:
        if any(not isinstance(v, (tuple, list)) or len(v) != n for v in entries):
            raise ValueError(f"{name} does not have shape {' x '.join(map(str, shape))}")
        entries = [leaf for row in entries for leaf in row]
    return entries


def load_scenario(path: str | Path) -> EvScenario:
    return EvScenario.from_json(Path(path).read_text())


# Action ids: 0 idle, 1..3 charge at that speed, 4..6 discharge, 7 settle
# (only in the post-departure deficit state).
IDLE = 0
SETTLE = 7
DONE = ("done",)
VIOLATION = ("violation",)


def build_ev(scenario: EvScenario) -> tuple[SspProblem, RiskPredicate]:
    """Unroll the scenario into an SSP and its goal-unreachable risk predicate.

    One `expand(state)` states the dynamics, VIOLATION -> DONE included, for
    the numbering loop and the records. It reads two small tables: the
    demand and price outcomes per (d, p, idling), and the announcement
    outcomes per step.
    """
    scenario.validate()
    horizon = scenario.horizon
    levels = scenario.levels
    goal_charge = scenario.goal_charge
    r_max = scenario.r_max

    @functools.cache
    def exogenous(d: int, p: int, idle: bool) -> tuple[tuple[int, int, float], ...]:
        """(d2, p2, probability) of the next demand and price distribution."""
        if idle:
            return ((d, p, 1.0),)
        sw = scenario.price_switch[p]
        return tuple(
            (d2, p2, pd * pp)
            for d2, pd in enumerate(scenario.demand_transition[d])
            if pd > 0.0
            for p2, pp in ((p, 1.0 - sw), (1 - p, sw))
            if pp > 0.0
        )

    # Per step, (e2, probability) of an unannounced departure's next value.
    announce = [
        tuple(b for b in ((E_UNANNOUNCED, 1.0 - q), (1, q / 2.0), (2, q / 2.0)) if b[1] > 0.0)
        for q in map(scenario.announce_prob, range(horizon))
    ]

    def successors(state, action):
        l, t, d, p, e = state[1:]
        level = l + action if action <= MAX_RATE else l + MAX_RATE - action
        departed = DONE if level >= goal_charge else VIOLATION
        if e != E_UNANNOUNCED:
            e_branches = ((e - 1, 1.0),)
        elif action == IDLE:
            e_branches = ((E_UNANNOUNCED, 1.0),)
        else:
            e_branches = announce[t]
        last = t + 1 == horizon
        merged: dict[tuple, float] = {}
        for d2, p2, pdp in exogenous(d, p, action == IDLE):
            for e2, pe in e_branches:
                succ = departed if e2 == 0 or last else ("s", level, t + 1, d2, p2, e2)
                merged[succ] = merged.get(succ, 0.0) + pdp * pe
        return merged

    def expand(state):
        if state == VIOLATION:
            yield SETTLE, scenario.penalty, {DONE: 1.0}
            return
        l, t, d, p = state[1:5]
        acts = [IDLE]
        acts += [i for i in range(1, MAX_RATE + 1) if l + i <= levels]
        acts += [3 + i for i in range(1, MAX_RATE + 1) if l - i >= 0]
        for a in acts:
            if a == IDLE:
                reward = 0.0
            elif a <= 3:
                reward = -scenario.buy_price[t][d][p] * a
            else:
                reward = scenario.sell_price[t][d][p] * (a - 3) * (1.0 - scenario.inefficiency)
            yield a, r_max - reward, successors(state, a)

    # Depth-first (LIFO) numbering, kept rather than search_problem's
    # breadth-first one: ids seed each state's risk walks ([seed, s]) and
    # order every distribution, and breadth-first order would keep only 74
    # of gen-1's 3,076 ids. Every state departs by the horizon, so DONE is
    # always reached.
    start_state = (
        "s",
        scenario.start_charge,
        0,
        scenario.start_demand,
        scenario.start_price,
        E_UNANNOUNCED,
    )
    index: dict[tuple, int] = {start_state: 0}
    states: list[tuple] = [start_state]
    stack = [start_state]
    while stack:
        state = stack.pop()
        if state == DONE:
            continue
        for _, _, outcomes in expand(state):
            for succ in outcomes:
                if succ not in index:
                    index[succ] = len(states)
                    states.append(succ)
                    stack.append(succ)

    problem = numbered_problem(states, index, {index[DONE]}, expand, scenario.name)

    def risky(s: int) -> bool:
        state = states[s]
        if state in (DONE, VIOLATION):
            return False
        l, t, _, _, e = state[1:]
        remaining = e if e != E_UNANNOUNCED else horizon - t
        return goal_charge - l > MAX_RATE * remaining

    predicate = RiskPredicate(evaluate=risky, name=f"{scenario.name}-goal-unreachable")
    return problem, predicate


def generate_ev_scenarios(n: int, seed: int = 0) -> list[EvScenario]:
    """n synthetic scenarios with randomized charges, peak masks, and prices.

    Stands in for the clustered real charging-schedule instances; fully
    determined by the seed.
    """
    if n < 1:
        raise ValueError("need n >= 1 scenarios")
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(n):
        horizon = 16
        levels = 8
        start_charge = int(rng.integers(0, 3))
        goal_charge = int(rng.integers(6, levels + 1))
        peak_start = int(rng.integers(4, 9))
        peak_len = int(rng.integers(4, 7))
        peak = tuple(peak_start <= t < peak_start + peak_len for t in range(horizon))
        # Base buy prices rise with the demand level; distribution 1 is the
        # volatile one. Peak steps carry a surcharge.
        base = rng.uniform(1.0, 2.0)
        buy = []
        sell = []
        sell_factor = rng.uniform(0.6, 0.9)
        for t in range(horizon):
            peak_mult = 1.6 if peak[t] else 1.0
            buy_row = []
            sell_row = []
            for d in range(N_DEMAND):
                level_price = base * (1.0 + 0.5 * d) * peak_mult
                buy_row.append(
                    (round(level_price, 4), round(level_price * 1.25, 4))
                )
                sell_row.append(
                    (
                        round(level_price * sell_factor, 4),
                        round(level_price * 1.25 * sell_factor, 4),
                    )
                )
            buy.append(tuple(buy_row))
            sell.append(tuple(sell_row))
        sticky = rng.uniform(0.6, 0.8)
        matrix = []
        for d in range(N_DEMAND):
            row = [0.0] * N_DEMAND
            row[d] = sticky
            neighbors = [x for x in (d - 1, d + 1) if 0 <= x < N_DEMAND]
            for x in neighbors:
                row[x] = (1.0 - sticky) / len(neighbors)
            matrix.append(tuple(round(v, 12) for v in row))
        switch = round(float(rng.uniform(0.05, 0.2)), 4)
        scenario = EvScenario(
            name=f"ev-gen-{i}",
            horizon=horizon,
            levels=levels,
            start_charge=start_charge,
            goal_charge=goal_charge,
            start_demand=int(rng.integers(0, N_DEMAND)),
            start_price=0,
            buy_price=tuple(buy),
            sell_price=tuple(sell),
            peak_hours=peak,
            demand_transition=tuple(matrix),
            price_switch=(switch, switch),
        )
        scenario.validate()
        scenarios.append(scenario)
    return scenarios
