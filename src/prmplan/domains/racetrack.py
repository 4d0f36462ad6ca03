"""Racetrack domain: accelerate a point car across an ASCII map.

Map characters: 'X' wall, '.' free, 'S' start, 'G' goal, 'P' pothole.
Actions are the nine unit accelerations. Per (state, action) the executed
acceleration is: the intended one with probability 1 - slip - perturb,
(0, 0) with the slip probability, and a uniformly-chosen one-unit variant
of the intended acceleration with the perturb probability. Crossing a wall
stops the car at the last free cell with zero velocity. Potholes are
drivable cells where deliberation is unsafe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..mdp import SspProblem
from ..risk import RiskPredicate


class MapParseError(ValueError):
    """Malformed track map; message carries the line and column."""


ACTIONS = tuple((ax, ay) for ay in (-1, 0, 1) for ax in (-1, 0, 1))


@dataclass(frozen=True)
class TrackMap:
    rows: tuple[str, ...]
    start: tuple[int, int]
    goal_cells: frozenset[tuple[int, int]]
    pothole_cells: frozenset[tuple[int, int]]

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    def free(self, x: int, y: int) -> bool:
        return 0 <= y < self.height and 0 <= x < self.width and self.rows[y][x] != "X"


def parse_track(text: str) -> TrackMap:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MapParseError("empty map")
    width = len(lines[0])
    starts: list[tuple[int, int]] = []
    goals: set[tuple[int, int]] = set()
    potholes: set[tuple[int, int]] = set()
    for y, line in enumerate(lines):
        if len(line) != width:
            raise MapParseError(f"ragged row at line {y + 1}: {len(line)} != {width}")
        for x, ch in enumerate(line):
            if ch == "S":
                starts.append((x, y))
            elif ch == "G":
                goals.add((x, y))
            elif ch == "P":
                potholes.add((x, y))
            elif ch not in ".X":
                raise MapParseError(f"unknown character {ch!r} at line {y + 1}, column {x + 1}")
    if not starts:
        raise MapParseError("map has no start cell 'S'")
    if not goals:
        raise MapParseError("map has no goal cell 'G'")
    return TrackMap(tuple(lines), starts[0], frozenset(goals), frozenset(potholes))


def _line_cells(x0: int, y0: int, x1: int, y1: int):
    """Grid cells visited moving from (x0, y0) to (x1, y1), excluding the origin."""
    dx, dy = x1 - x0, y1 - y0
    steps = max(abs(dx), abs(dy))
    for i in range(1, steps + 1):
        yield round(x0 + dx * i / steps), round(y0 + dy * i / steps)


def _accel_variants(ax: int, ay: int) -> list[tuple[int, int]]:
    """One-unit perturbations of the intended acceleration, clipped to the
    unit box; variants that clip back onto the intended vector are dropped."""
    variants = []
    for d in (-1, 1):
        for cand in ((ax + d, ay), (ax, ay + d)):
            cx = max(-1, min(1, cand[0]))
            cy = max(-1, min(1, cand[1]))
            if (cx, cy) != (ax, ay) and (cx, cy) not in variants:
                variants.append((cx, cy))
    return variants


def build_racetrack(
    map_text: str,
    slip_prob: float = 0.10,
    perturb_prob: float = 0.20,
    max_speed: int = 5,
    name: str = "racetrack",
) -> tuple[SspProblem, RiskPredicate]:
    """Enumerate the reachable racetrack SSP and its pothole risk predicate."""
    track = parse_track(map_text)
    intended_prob = 1.0 - slip_prob - perturb_prob
    if intended_prob <= 0.0:
        raise ValueError("slip_prob + perturb_prob must stay below 1")

    def move(x: int, y: int, vx: int, vy: int) -> tuple[int, int, int, int]:
        nx, ny = x + vx, y + vy
        cx, cy = x, y
        for px, py in _line_cells(x, y, nx, ny):
            if not track.free(px, py):
                return (cx, cy, 0, 0)
            if (px, py) in track.goal_cells:
                return (px, py, 0, 0)
            cx, cy = px, py
        return (nx, ny, vx, vy)

    def successors(state: tuple[int, int, int, int], action: tuple[int, int]):
        x, y, vx, vy = state
        ax, ay = action
        accels: dict[tuple[int, int], float] = {action: intended_prob}
        if slip_prob > 0.0:
            accels[(0, 0)] = accels.get((0, 0), 0.0) + slip_prob
        if perturb_prob > 0.0:
            variants = _accel_variants(ax, ay)
            share = perturb_prob / len(variants)
            for var in variants:
                accels[var] = accels.get(var, 0.0) + share
        merged: dict[tuple[int, int, int, int], float] = {}
        for (bx, by), prob in accels.items():
            nvx = max(-max_speed, min(max_speed, vx + bx))
            nvy = max(-max_speed, min(max_speed, vy + by))
            succ = move(x, y, nvx, nvy)
            merged[succ] = merged.get(succ, 0.0) + prob
        return merged

    start_state = (track.start[0], track.start[1], 0, 0)
    index: dict[tuple[int, int, int, int], int] = {start_state: 0}
    states: list[tuple[int, int, int, int]] = [start_state]
    queue = deque([start_state])
    goal_ids: set[int] = set()
    if (track.start[0], track.start[1]) in track.goal_cells:
        goal_ids.add(0)
    while queue:
        state = queue.popleft()
        if (state[0], state[1]) in track.goal_cells:
            continue
        for action in ACTIONS:
            for succ in successors(state, action):
                if succ not in index:
                    index[succ] = len(states)
                    states.append(succ)
                    queue.append(succ)
                    if (succ[0], succ[1]) in track.goal_cells:
                        goal_ids.add(index[succ])

    def expand_fn(s: int):
        if s in goal_ids:
            return [(a, 0.0, [(s, 1.0)]) for a in range(len(ACTIONS))]
        return [
            (a, 1.0, [(index[succ], p) for succ, p in successors(states[s], action).items()])
            for a, action in enumerate(ACTIONS)
        ]

    problem = SspProblem(
        n_states=len(states),
        start=0,
        goals=goal_ids,
        expand_fn=expand_fn,
        name=name,
    )
    problem.states = states  # id -> (x, y, vx, vy), for debugging and predicates

    pothole_ids = frozenset(
        i for i, st in enumerate(states) if (st[0], st[1]) in track.pothole_cells
    )
    predicate = RiskPredicate(evaluate=pothole_ids.__contains__, name=f"{name}-potholes")
    return problem, predicate


def _grid(height: int, width: int) -> list[list[str]]:
    cells = [["." for _ in range(width)] for _ in range(height)]
    for x in range(width):
        cells[0][x] = cells[height - 1][x] = "X"
    for y in range(height):
        cells[y][0] = cells[y][width - 1] = "X"
    return cells


def square_track(k: int) -> str:
    """Square-k: a 10k-sided square with a central obstacle block.

    Start at the left edge, goals on the right edge; potholes line the
    corridor above and below the obstacle where perturbed cars drift.
    """
    side = 10 * k
    cells = _grid(side, side)
    mid = side // 2
    block = 2 * k
    for y in range(mid - block, mid + block):
        for x in range(mid - block, mid + block):
            cells[y][x] = "X"
    for x in range(mid - block, mid + block):
        cells[mid - block - 1][x] = "P"
        cells[mid + block][x] = "P"
    cells[mid][1] = "S"
    for y in range(mid - 2, mid + 3):
        cells[y][side - 2] = "G"
    return "\n".join("".join(row) for row in cells)


def ring_track(k: int) -> str:
    """Ring-k: an annulus corridor of width 3 around a solid core.

    Start and goals sit on opposite sides of a wall across the bottom
    corridor, forcing a full lap; potholes line the inner corners.
    """
    side = 5 * k
    cells = _grid(side, side)
    for y in range(4, side - 4):
        for x in range(4, side - 4):
            cells[y][x] = "X"
    mid = side // 2
    for y in range(side - 4, side - 1):
        cells[y][mid] = "X"
    for y in range(side - 4, side - 1):
        cells[y][mid - 1] = "S" if y == side - 3 else cells[y][mid - 1]
        cells[y][mid + 1] = "G"
    for x, y in ((3, 3), (side - 4, 3), (3, side - 4), (side - 4, side - 4)):
        cells[y][x] = "P"
        cells[y][x + (1 if x == 3 else -1)] = "P"
    return "\n".join("".join(row) for row in cells)


def zigzag_track(n_corridors: int, width: int) -> str:
    """Zigzag-k: k stacked horizontal corridors joined by alternating end
    turns; potholes flank the inside corner of every turn.

    Start at the left end of the top corridor, goals at the far end of the
    bottom one.
    """
    if n_corridors < 2 or width < 8:
        raise ValueError("zigzag needs at least 2 corridors and width 8")
    height = 1 + n_corridors * 4
    cells = [["X"] * width for _ in range(height)]
    for i in range(n_corridors):
        y0 = 1 + i * 4
        for y in range(y0, y0 + 3):
            for x in range(1, width - 1):
                cells[y][x] = "."
    for i in range(n_corridors - 1):
        y_wall = 4 + i * 4
        if i % 2 == 0:  # turn at the right end
            opening = range(width - 4, width - 1)
            cells[y_wall - 1][width - 5] = "P"
            cells[y_wall + 1][width - 5] = "P"
        else:  # turn at the left end
            opening = range(1, 4)
            cells[y_wall - 1][4] = "P"
            cells[y_wall + 1][4] = "P"
        for x in opening:
            cells[y_wall][x] = "."
    cells[2][1] = "S"
    gy = 2 + (n_corridors - 1) * 4
    gx = width - 2 if (n_corridors - 1) % 2 == 0 else 1
    for y in (gy - 1, gy, gy + 1):
        cells[y][gx] = "G"
    return "\n".join("".join(row) for row in cells)


BUILTIN_TRACKS = {
    "square-3": lambda: square_track(3),
    "square-4": lambda: square_track(4),
    "square-5": lambda: square_track(5),
    "ring-3": lambda: ring_track(3),
    "ring-4": lambda: ring_track(4),
    "ring-5": lambda: ring_track(5),
    "ring-6": lambda: ring_track(6),
    "zigzag-4": lambda: zigzag_track(4, 18),
    "zigzag-5": lambda: zigzag_track(5, 15),
    "zigzag-6": lambda: zigzag_track(6, 18),
    "zigzag-8": lambda: zigzag_track(8, 30),
}
