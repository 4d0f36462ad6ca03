"""Benchmark domain builders and the shipped instance registry."""

from __future__ import annotations

import re
from pathlib import Path

from ..mdp import SspProblem
from ..risk import RiskPredicate
from .ev import EvScenario, build_ev, generate_ev_scenarios, load_scenario
from .racetrack import BUILTIN_TRACKS, build_racetrack, parse_track
from .sailing import build_sailing

__all__ = [
    "BUILTIN_TRACKS",
    "EvScenario",
    "build_ev",
    "build_instance",
    "build_racetrack",
    "build_sailing",
    "desk_instances",
    "generate_ev_scenarios",
    "large_instances",
    "load_scenario",
    "parse_track",
]

_SAILING_RE = re.compile(r"^(\d+)\s*\(?([cm])\)?$", re.IGNORECASE)
_EV_GEN_RE = re.compile(r"^gen-(\d+)$")


def build_instance(
    domain: str, instance: str, seed: int = 0
) -> tuple[SspProblem, RiskPredicate]:
    """Resolve a (domain, instance) pair from the CLI or the test registry.

    racetrack: a builtin track name (square-3 ... ring-6) or a map file path.
    sailing:   "<size><C|M>", e.g. 20C or 40(M).
    ev:        "gen-<i>" for the i-th generated scenario, or a JSON file path.
    """
    domain = domain.lower()
    if domain == "racetrack":
        if instance in BUILTIN_TRACKS:
            text = BUILTIN_TRACKS[instance]()
        elif Path(instance).is_file():
            text = Path(instance).read_text()
        else:
            raise ValueError(
                f"unknown racetrack instance {instance!r}; builtins: "
                + ", ".join(sorted(BUILTIN_TRACKS))
            )
        return build_racetrack(text, name=f"racetrack-{Path(instance).stem}")
    if domain == "sailing":
        match = _SAILING_RE.match(instance.strip())
        if not match:
            raise ValueError(
                f"bad sailing instance {instance!r}; expected e.g. 20C or 40M"
            )
        size = int(match.group(1))
        goal = "corner" if match.group(2).lower() == "c" else "middle"
        return build_sailing(size, goal)
    if domain == "ev":
        match = _EV_GEN_RE.match(instance.strip())
        if match:
            i = int(match.group(1))
            scenario = generate_ev_scenarios(i + 1, seed=seed)[i]
        elif Path(instance).is_file():
            scenario = load_scenario(instance)
        else:
            raise ValueError(
                f"unknown ev instance {instance!r}; use gen-<i> or a scenario file"
            )
        return build_ev(scenario)
    raise ValueError(f"unknown domain {domain!r}; choose racetrack, sailing, or ev")


# (name, (domain, instance)) of the shipped instances, built by build_instance.
_DESK = (
    ("racetrack-ring-3", ("racetrack", "ring-3")),
    ("racetrack-zigzag-5", ("racetrack", "zigzag-5")),
    ("sailing-8(M)", ("sailing", "8M")),
    ("sailing-10(M)", ("sailing", "10M")),
    ("ev-gen-1", ("ev", "gen-1")),
    ("ev-gen-6", ("ev", "gen-6")),
)
_LARGE = (
    ("racetrack-zigzag-8", ("racetrack", "zigzag-8")),
    ("racetrack-square-3", ("racetrack", "square-3")),
)


def _build_all(table) -> list[tuple[str, SspProblem, RiskPredicate]]:
    return [(name, *build_instance(*spec)) for name, spec in table]


def desk_instances() -> list[tuple[str, SspProblem, RiskPredicate]]:
    """The small shipped instances used by tests and the acceptance suite."""
    return _build_all(_DESK)


def large_instances() -> list[tuple[str, SspProblem, RiskPredicate]]:
    """Shipped instances with >= 10^4 reachable states (timing comparisons)."""
    return _build_all(_LARGE)
