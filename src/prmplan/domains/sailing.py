"""Sailing domain: deterministic moves on a grid under a stochastic wind.

The boat moves to one of eight neighbors; the wind direction then stays
put with probability 0.4 or rotates 45 degrees either way with probability
0.3 each. Action cost grows with the angle between the movement and the
wind (1 downwind, 2 at 45, 3 at 90, 4 at 135); moving straight into the
wind is inapplicable. Deliberating on the boundary while the wind pushes
off-grid is the domain's risk.
"""

from __future__ import annotations

from collections import deque

from ..mdp import SspProblem
from ..risk import RiskPredicate

DIRECTIONS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
TACK_COST = (1.0, 2.0, 3.0, 4.0)
WIND_STAY = 0.4
WIND_ROTATE = 0.3


def _angular_diff(a: int, b: int) -> int:
    d = (a - b) % 8
    return min(d, 8 - d)


def build_sailing(
    size: int,
    goal_pos: str = "corner",
    name: str = "",
) -> tuple[SspProblem, RiskPredicate]:
    """Sailing SSP on a size x size grid with the goal at the opposite
    corner ("corner") or the center ("middle")."""
    if size < 4:
        raise ValueError(f"grid size {size} too small; need >= 4")
    goal_pos = goal_pos.lower()
    if goal_pos in ("corner", "c"):
        goal_xy = (size - 1, size - 1)
    elif goal_pos in ("middle", "m"):
        goal_xy = (size // 2, size // 2)
    else:
        raise ValueError(f"goal_pos must be 'corner' or 'middle', got {goal_pos!r}")
    name = name or f"sailing-{size}({goal_pos[0].upper()})"

    def on_grid(x: int, y: int) -> bool:
        return 0 <= x < size and 0 <= y < size

    # State = (x, y, wind); enumerate everything reachable from the start.
    start_state = (0, 0, 0)
    index: dict[tuple[int, int, int], int] = {start_state: 0}
    states: list[tuple[int, int, int]] = [start_state]
    goal_ids: set[int] = set()
    queue = deque([start_state])
    while queue:
        x, y, w = queue.popleft()
        if (x, y) == goal_xy:
            continue
        for m, (dx, dy) in enumerate(DIRECTIONS):
            if _angular_diff(m, w) == 4 or not on_grid(x + dx, y + dy):
                continue
            for w2 in ((w - 1) % 8, w, (w + 1) % 8):
                succ = (x + dx, y + dy, w2)
                if succ not in index:
                    index[succ] = len(states)
                    states.append(succ)
                    queue.append(succ)
                    if (succ[0], succ[1]) == goal_xy:
                        goal_ids.add(index[succ])

    def expand_fn(s: int):
        if s in goal_ids:
            return [(m, 0.0, [(s, 1.0)]) for m in range(8)]
        x, y, w = states[s]
        entries = []
        for m, (dx, dy) in enumerate(DIRECTIONS):
            nx, ny = x + dx, y + dy
            diff = _angular_diff(m, w)
            if diff == 4 or not on_grid(nx, ny):
                continue
            outcomes = [
                (index[(nx, ny, (w - 1) % 8)], WIND_ROTATE),
                (index[(nx, ny, w)], WIND_STAY),
                (index[(nx, ny, (w + 1) % 8)], WIND_ROTATE),
            ]
            entries.append((m, TACK_COST[diff], outcomes))
        return entries

    problem = SspProblem(
        n_states=len(states),
        start=0,
        goals=goal_ids,
        expand_fn=expand_fn,
        name=name,
    )
    problem.states = states

    def risky(s: int) -> bool:
        if s in goal_ids:
            return False
        x, y, w = states[s]
        wx, wy = DIRECTIONS[w]
        return not on_grid(x + wx, y + wy)

    predicate = RiskPredicate(evaluate=risky, name=f"{name}-offgrid-wind")
    return problem, predicate
