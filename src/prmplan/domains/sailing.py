"""Sailing domain: deterministic moves on a grid under a stochastic wind.

The boat moves to one of eight neighbors; the wind direction then stays
put with probability 0.4 or rotates 45 degrees either way with probability
0.3 each. Action cost grows with the angle between the movement and the
wind (1 downwind, 2 at 45, 3 at 90, 4 at 135); moving straight into the
wind is inapplicable. Deliberating on the boundary while the wind pushes
off-grid is the domain's risk.
"""

from __future__ import annotations

from ..mdp import SspProblem, search_problem
from ..risk import RiskPredicate

DIRECTIONS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
TACK_COST = (1.0, 2.0, 3.0, 4.0)
WIND_STAY = 0.4
WIND_ROTATE = 0.3


def _angular_diff(a: int, b: int) -> int:
    d = (a - b) % 8
    return min(d, 8 - d)


def build_sailing(size: int, goal_pos: str = "corner") -> tuple[SspProblem, RiskPredicate]:
    """Sailing SSP on a size x size grid with the goal at the opposite
    corner ("corner") or the center ("middle"). `expand(state)` is the one
    place that states applicability and wind; `search_problem` numbers
    the states."""
    if size < 4:
        raise ValueError(f"grid size {size} too small; need >= 4")
    goal_pos = goal_pos.lower()
    if goal_pos in ("corner", "c"):
        goal_xy = (size - 1, size - 1)
    elif goal_pos in ("middle", "m"):
        goal_xy = (size // 2, size // 2)
    else:
        raise ValueError(f"goal_pos must be 'corner' or 'middle', got {goal_pos!r}")
    name = f"sailing-{size}({goal_pos[0].upper()})"

    def on_grid(x: int, y: int) -> bool:
        return 0 <= x < size and 0 <= y < size

    def expand(state: tuple[int, int, int]):  # state = (x, y, wind)
        x, y, w = state
        for m, (dx, dy) in enumerate(DIRECTIONS):
            nx, ny = x + dx, y + dy
            diff = _angular_diff(m, w)
            if diff == 4 or not on_grid(nx, ny):
                continue
            outcomes = {
                (nx, ny, (w - 1) % 8): WIND_ROTATE,
                (nx, ny, w): WIND_STAY,
                (nx, ny, (w + 1) % 8): WIND_ROTATE,
            }
            yield m, TACK_COST[diff], outcomes

    problem = search_problem((0, 0, 0), expand, lambda state: state[:2] == goal_xy, name=name)

    def risky(s: int) -> bool:
        if problem.is_goal(s):
            return False
        x, y, w = problem.states[s]
        wx, wy = DIRECTIONS[w]
        return not on_grid(x + wx, y + wy)

    predicate = RiskPredicate(evaluate=risky, name=f"{name}-offgrid-wind")
    return problem, predicate
