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

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..mdp import SspProblem
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
        if not 0 < self.goal_charge <= self.levels:
            raise ValueError(
                f"goal charge {self.goal_charge} outside 1..{self.levels}"
            )
        if not 0 <= self.start_charge <= self.levels:
            raise ValueError(f"start charge {self.start_charge} outside 0..{self.levels}")
        if len(self.buy_price) != self.horizon or len(self.sell_price) != self.horizon:
            raise ValueError("price tables must cover every time step")
        if len(self.peak_hours) != self.horizon:
            raise ValueError("peak-hour mask must cover every time step")
        for table in (self.buy_price, self.sell_price):
            for row in table:
                for pair in row:
                    if any(v < 0 for v in pair):
                        raise ValueError("prices must be non-negative")
        for prob in (
            self.announce_prob_window,
            self.announce_prob_outside,
            *self.price_switch,
        ):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob} outside [0, 1]")
        if len(self.demand_transition) != N_DEMAND:
            raise ValueError("demand transition matrix must be 4x4")
        for row in self.demand_transition:
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError("demand transition rows must sum to 1")

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

        def tupled(value):
            if isinstance(value, list):
                return tuple(tupled(v) for v in value)
            return value

        scenario = cls(**{k: tupled(v) for k, v in data.items()})
        scenario.validate()
        return scenario


def load_scenario(path: str | Path) -> EvScenario:
    return EvScenario.from_json(Path(path).read_text())


# Action ids: 0 idle, 1..3 charge at that speed, 4..6 discharge, 7 settle
# (only in the post-departure deficit state).
IDLE = 0
SETTLE = 7
DONE = ("done",)
VIOLATION = ("violation",)


def build_ev(scenario: EvScenario) -> tuple[SspProblem, RiskPredicate]:
    """Unroll the scenario into an SSP and its goal-unreachable risk predicate."""
    scenario.validate()
    horizon = scenario.horizon
    levels = scenario.levels
    goal_charge = scenario.goal_charge
    r_max = scenario.r_max

    def departure(level: int):
        return DONE if level >= goal_charge else VIOLATION

    def announce_branches(t: int) -> list[tuple[int, float]]:
        q = scenario.announce_prob(t)
        branches = [(E_UNANNOUNCED, 1.0 - q)]
        if q > 0.0:
            branches += [(1, q / 2.0), (2, q / 2.0)]
        return branches

    def successors(state, action):
        l, t, d, p, e = state[1:]
        if action == IDLE:
            level = l
            exogenous = [((d, p), 1.0)]
        else:
            speed = action if action <= 3 else action - 3
            level = l + speed if action <= 3 else l - speed
            sw = scenario.price_switch[p]
            price_branches = [(p, 1.0 - sw), (1 - p, sw)]
            exogenous = [
                ((d2, p2), pd * pp)
                for d2, pd in enumerate(scenario.demand_transition[d])
                if pd > 0.0
                for p2, pp in price_branches
                if pp > 0.0
            ]
        if e == E_UNANNOUNCED:
            e_branches = (
                [(E_UNANNOUNCED, 1.0)] if action == IDLE else announce_branches(t)
            )
        else:
            e_branches = [(e - 1, 1.0)]
        merged: dict[tuple, float] = {}
        for (d2, p2), pdp in exogenous:
            for e2, pe in e_branches:
                prob = pdp * pe
                if e2 == 0 or t + 1 == horizon:
                    succ = departure(level)
                else:
                    succ = ("s", level, t + 1, d2, p2, e2)
                merged[succ] = merged.get(succ, 0.0) + prob
        return merged

    def applicable(state) -> list[int]:
        if state == VIOLATION:
            return [SETTLE]
        l = state[1]
        acts = [IDLE]
        acts += [i for i in range(1, MAX_RATE + 1) if l + i <= levels]
        acts += [3 + i for i in range(1, MAX_RATE + 1) if l - i >= 0]
        return acts

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
    queue = [start_state]
    while queue:
        state = queue.pop()
        if state == DONE:
            continue
        for a in applicable(state):
            succ_iter = [DONE] if state == VIOLATION else successors(state, a)
            for succ in succ_iter:
                if succ not in index:
                    index[succ] = len(states)
                    states.append(succ)
                    queue.append(succ)
    done_id = index.get(DONE)
    if done_id is None:
        done_id = len(states)
        index[DONE] = done_id
        states.append(DONE)

    def expand_fn(s: int):
        state = states[s]
        if state == DONE:
            return [(IDLE, 0.0, [(s, 1.0)])]
        if state == VIOLATION:
            return [(SETTLE, scenario.penalty, [(done_id, 1.0)])]
        t, d, p = state[2:5]
        entries = []
        for a in applicable(state):
            if a == IDLE:
                reward = 0.0
            elif a <= 3:
                reward = -scenario.buy_price[t][d][p] * a
            else:
                reward = scenario.sell_price[t][d][p] * (a - 3) * (1.0 - scenario.inefficiency)
            outcomes = [(index[succ], prob) for succ, prob in successors(state, a).items()]
            entries.append((a, r_max - reward, outcomes))
        return entries

    problem = SspProblem(
        n_states=len(states),
        start=0,
        goals={done_id},
        expand_fn=expand_fn,
        name=scenario.name,
    )
    problem.states = states

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
