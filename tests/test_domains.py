"""Benchmark domains: racetrack, sailing, EV charging, and the registry."""

import argparse
import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prmplan import (
    ReducedModel,
    compile_model,
    compute_hmin,
    proper_hmin,
    reachable_states,
    solve_lao_star,
    solve_value_iteration,
)
from prmplan.cli import RM01_DEFAULTS, _make_selector
from prmplan.domains import build_instance, desk_instances
from prmplan.domains.ev import (
    DONE,
    E_UNANNOUNCED,
    IDLE,
    VIOLATION,
    EvScenario,
    build_ev,
    generate_ev_scenarios,
)
from prmplan.domains.racetrack import (
    ACTIONS,
    BUILTIN_TRACKS,
    MAX_SPEED,
    MapParseError,
    _line_cells,
    _line_offsets,
    build_racetrack,
    parse_track,
)
from prmplan.domains.sailing import DIRECTIONS, TACK_COST, build_sailing

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestTrackParsing:
    def test_ragged_rows_rejected(self):
        with pytest.raises(MapParseError, match="line 2"):
            parse_track("XXX\nXX")

    def test_unknown_character_located(self):
        with pytest.raises(MapParseError, match="line 2, column 3"):
            parse_track("XXXX\nXS?G\nXXXX")

    def test_start_and_goal_required(self):
        with pytest.raises(MapParseError, match="start"):
            parse_track("X.G\nXXX")
        with pytest.raises(MapParseError, match="goal"):
            parse_track("X.S\nXXX")

    def test_second_start_located(self):
        with pytest.raises(MapParseError, match="second start 'S' at line 2, column 4"):
            parse_track("XXXXXX\nXS.SGX\nXXXXXX")

    def test_builtin_tracks_parse(self):
        for name, make in BUILTIN_TRACKS.items():
            track = parse_track(make())
            assert track.goal_cells, name


class TestRacetrackModel:
    def test_outcome_composition_partition(self, tiny_racetrack):
        # At rest in the open, intended acceleration (1, 1): slip keeps the
        # car still with mass exactly 1/10, the intended move gets 7/10, and
        # the two clipped one-unit variants split the remaining 2/10 evenly.
        problem, _ = tiny_racetrack
        states = problem.states
        s = states.index((2, 2, 0, 0))
        a = ACTIONS.index((1, 1))
        masses = {}
        for s2, p in problem.transition(s, a):
            masses[states[s2]] = masses.get(states[s2], 0) + Fraction(p).limit_denominator(10**6)
        assert masses[(2, 2, 0, 0)] == Fraction(1, 10)  # slip
        assert masses[(3, 3, 1, 1)] == Fraction(7, 10)  # intended
        assert masses[(2, 3, 0, 1)] == Fraction(1, 10)  # variant (0, 1)
        assert masses[(3, 2, 1, 0)] == Fraction(1, 10)  # variant (1, 0)
        assert sum(masses.values()) == 1

    def test_probabilities_sum_to_one_everywhere(self, tiny_racetrack):
        problem, _ = tiny_racetrack
        for s in reachable_states(problem):
            for a in problem.actions(s):
                total = sum(Fraction(p).limit_denominator(10**9) for _, p in problem.transition(s, a))
                assert total == 1

    def test_wall_collision_stops_before_wall(self):
        problem, _ = build_racetrack(
            "XXXXX\nXS.GX\nXXXXX", slip_prob=0.0, perturb_prob=0.0
        )
        states = problem.states
        # Full speed into the top wall: the car stops at its current cell.
        s = states.index((1, 1, 0, 0))
        a = ACTIONS.index((0, -1))
        assert problem.transition(s, a) == ((s, 1.0),)

    def test_pothole_states_risky(self, tiny_racetrack):
        problem, predicate = tiny_racetrack
        for i, (x, y, _, _) in enumerate(problem.states):
            if (x, y) == (1, 3):
                assert predicate(i)

    def test_goals_not_risky(self, tiny_racetrack):
        problem, predicate = tiny_racetrack
        assert not any(predicate(g) for g in problem.goals)

    @pytest.mark.parametrize("length", [3, 6, 9])
    def test_deterministic_corridor_cost_grows(self, length):
        row = "XS" + "." * (length - 1) + "GX"
        text = "\n".join(("X" * len(row), row, "X" * len(row)))
        problem, _ = build_racetrack(text, slip_prob=0.0, perturb_prob=0.0)
        lao = solve_lao_star(problem).start_value
        vi = solve_value_iteration(problem).start_value
        assert lao == pytest.approx(vi, abs=2e-3)
        # Optimal bang-bang driving: cost grows with corridor length.
        if length > 3:
            shorter = "XS" + "." * (length - 4) + "GX"
            text2 = "\n".join(("X" * len(shorter), shorter, "X" * len(shorter)))
            problem2, _ = build_racetrack(text2, slip_prob=0.0, perturb_prob=0.0)
            assert lao >= solve_lao_star(problem2).start_value

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            build_racetrack("XXXX\nXSGX\nXXXX", slip_prob=0.6, perturb_prob=0.4)

    def test_tiny_track_validates(self, tiny_racetrack):
        problem, _ = tiny_racetrack
        proper_hmin(problem)

    @given(
        st.integers(0, 10**4),
        st.integers(0, 10**4),
        st.integers(-MAX_SPEED, MAX_SPEED),
        st.integers(-MAX_SPEED, MAX_SPEED),
    )
    def test_line_depends_on_origin_parity_only(self, x, y, vx, vy):
        # round() breaks ties to even, so a move's cells are the offsets
        # cached for the parity of its origin, shifted onto it.
        offsets = _line_offsets(x & 1, y & 1, vx, vy)
        cells = [(x + ox, y + oy) for ox, oy in offsets]
        assert cells == list(_line_cells(x, y, x + vx, y + vy))


class TestSailingModel:
    def test_into_wind_action_absent(self):
        problem, _ = build_sailing(6, "corner")
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            _, _, wind = problem.states[s]
            into_wind = (wind + 4) % 8
            for a in problem.actions(s):
                assert a != into_wind

    def test_wind_transition_distribution(self):
        problem, _ = build_sailing(6, "corner")
        states = problem.states
        s = states.index((2, 2, 0))
        a = 2  # 90 degrees off the wind, applicable
        winds = {states[s2][2]: p for s2, p in problem.transition(s, a)}
        assert winds[0] == pytest.approx(0.4)
        assert winds[1] == pytest.approx(0.3)
        assert winds[7] == pytest.approx(0.3)

    def test_tack_costs(self):
        problem, _ = build_sailing(6, "corner")
        states = problem.states
        s = states.index((2, 2, 0))
        # Wind from direction 0: moving with it costs 1, at 45 degrees 2,
        # at 90 degrees 3, at 135 degrees 4.
        for a, c in zip(*problem.record(s)[:2]):
            diff = min((a - 0) % 8, (0 - a) % 8)
            assert c == TACK_COST[diff]

    def test_boundary_offgrid_wind_risky(self):
        problem, predicate = build_sailing(6, "corner")
        for s in reachable_states(problem):
            x, y, wind = problem.states[s]
            dx, dy = DIRECTIONS[wind]
            off_grid = not (0 <= x + dx < 6 and 0 <= y + dy < 6)
            boundary = x in (0, 5) or y in (0, 5)
            expected = boundary and off_grid and not problem.is_goal(s)
            assert predicate(s) == expected

    def test_goal_positions(self):
        corner, _ = build_sailing(8, "corner")
        middle, _ = build_sailing(8, "middle")
        assert any(corner.states[g][:2] == (7, 7) for g in corner.goals)
        assert any(middle.states[g][:2] == (4, 4) for g in middle.goals)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_sailing(3, "corner")

    def test_small_grid_validates(self, small_sailing):
        problem, _ = small_sailing
        proper_hmin(problem)


class TestEvModel:
    def test_scenario_validation(self):
        scenario = generate_ev_scenarios(1, seed=0)[0]
        bad = EvScenario(**{**scenario.__dict__, "goal_charge": 99})
        with pytest.raises(ValueError, match="goal_charge"):
            bad.validate()

    def test_costs_strictly_positive_off_goal(self, small_ev):
        problem, _ = small_ev
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            for c in problem.record(s)[1]:
                assert c > 0.0

    def test_full_charge_never_risky(self, small_ev, ev_scenario):
        problem, predicate = small_ev
        for s in reachable_states(problem):
            state = problem.states[s]
            if state in (DONE, VIOLATION):
                continue
            if state[1] == ev_scenario.levels:
                assert not predicate(s)

    def test_goal_unreachable_inequality(self):
        # D(s) is exactly "charge deficit exceeds 3 levels per remaining
        # step", with the horizon standing in when no departure is announced.
        scenario = generate_ev_scenarios(1, seed=0)[0]
        tight = EvScenario(
            **{**scenario.__dict__, "start_charge": 0, "goal_charge": 8}
        )
        problem, predicate = build_ev(tight)
        risky_count = 0
        for s in reachable_states(problem):
            state = problem.states[s]
            if state in (DONE, VIOLATION):
                assert not predicate(s)
                continue
            _, l, t, _, _, e = state
            remaining = e if e != 3 else tight.horizon - t
            expected = tight.goal_charge - l > 3 * remaining
            assert predicate(s) == expected
            risky_count += expected
        # e.g. idling at zero charge until two unannounced steps remain.
        assert risky_count > 0

    def test_horizon_forces_departure(self, small_ev, ev_scenario):
        problem, _ = small_ev
        horizon = ev_scenario.horizon
        for s in reachable_states(problem):
            state = problem.states[s]
            if state in (DONE, VIOLATION):
                continue
            assert state[2] < horizon

    def test_idle_is_deterministic(self, small_ev):
        problem, _ = small_ev
        for s in reachable_states(problem):
            if problem.is_goal(s) or problem.states[s] == VIOLATION:
                continue
            assert len(problem.transition(s, 0)) == 1

    def test_violation_penalty_dominates(self, ev_scenario):
        assert ev_scenario.penalty == pytest.approx(100.0 * ev_scenario.r_max)

    def test_scenario_json_round_trip(self):
        scenario = generate_ev_scenarios(1, seed=3)[0]
        assert EvScenario.from_json(scenario.to_json()) == scenario
        assert json.loads(scenario.to_json())["horizon"] == 16

    def test_generator_deterministic_and_distinct(self):
        a = generate_ev_scenarios(25, seed=9)
        b = generate_ev_scenarios(25, seed=9)
        assert a == b
        assert len({s.buy_price for s in a}) == 25
        for scenario in a:
            scenario.validate()
            assert scenario.goal_charge <= scenario.levels

    def test_small_ev_validates(self, small_ev):
        problem, _ = small_ev
        proper_hmin(problem)

    def test_certain_announcement_leaves_no_zero_branch(self, ev_scenario):
        # With announcement probability 1, the "still unannounced" branch
        # has mass 0 and is dropped, as a price branch of mass 0 is.
        certain = dataclasses.replace(
            ev_scenario, announce_prob_window=1.0, announce_prob_outside=1.0
        )
        problem, _ = build_ev(certain)
        assert proper_hmin(problem)(0) > 0.0  # builds every reachable record
        unannounced = {
            s for s, state in enumerate(problem.states) if state[-1] == E_UNANNOUNCED
        }
        for s in unannounced:
            for a in problem.actions(s):
                if a != IDLE:
                    assert not unannounced & {s2 for s2, _ in problem.transition(s, a)}


class TestRegistry:
    def test_unknown_domain(self):
        with pytest.raises(ValueError, match="unknown domain"):
            build_instance("chess", "1")

    def test_unknown_instances(self):
        with pytest.raises(ValueError):
            build_instance("racetrack", "moebius-9")
        with pytest.raises(ValueError):
            build_instance("sailing", "big")
        with pytest.raises(ValueError):
            build_instance("ev", "gen-x")

    def test_sailing_instance_spelling(self):
        a, _ = build_instance("sailing", "8M")
        b, _ = build_instance("sailing", "8(m)")
        assert a.n_states == b.n_states

    def test_desk_instances_validate(self):
        for name, problem, predicate in desk_instances():
            proper_hmin(problem)
            assert not any(predicate(g) for g in problem.goals), name
            for g in problem.goals:
                assert problem.record(g) == ((0,), (0.0,), (((g, 1.0),),)), name

    @pytest.mark.parametrize(
        "domain,instance",
        [
            ("racetrack", "ring-3"),
            ("racetrack", "zigzag-5"),
            ("sailing", "8M"),
            ("sailing", "10M"),
        ],
    )
    def test_ids_in_breadth_first_order(self, domain, instance):
        # search_problem numbers in discovery order, so the ids are the
        # breadth-first order from s0 that reachable_states walks.
        problem, _ = build_instance(domain, instance)
        assert reachable_states(problem) == list(range(problem.n_states))


def fingerprint(problem, predicate):
    """sha256 over `problem.states`, the sorted goals, the repr of every
    non-goal record and every predicate value."""
    digest = hashlib.sha256()
    digest.update(repr(problem.states).encode())
    digest.update(repr(sorted(problem.goals)).encode())
    for s in range(problem.n_states):
        if not problem.is_goal(s):
            digest.update(repr(problem.record(s)).encode())
    digest.update(bytes(predicate(s) for s in range(problem.n_states)))
    return digest.hexdigest()


PINNED_MODELS = {
    ("racetrack", "ring-3"): "4f778b0d4b37dc68efaa214d7238d70b08f67e70f8cc8bca045b5c916fe0e67b",
    ("racetrack", "zigzag-5"): "4b83ba3e9e2c7ca2b14496d70613fe1984c27ba55f14f8e2e47ca75f3a08cfef",
    ("racetrack", "zigzag-6"): "b97c0ba097170a5143b96435ef645df82cfa5a1040cea142aaac297e273d8bb4",
    ("sailing", "8M"): "dbb117d2e198bb714cd724a66940a291f7f824d2682de9749b7a51e719764b77",
    ("ev", "gen-1"): "77e14ac626f4ef42373fb4213a34bbe24747f6c1f7f7458d467fbdcccc8c1c1f",
    ("racetrack", "zigzag-4"): "50d3e832d5fbf3733efa718b307cf41fa2d11666567822b31ab5d2b24be3bcb8",
    ("racetrack", "ring-5"): "6125e39d01f7996b9cb2a89c310ebc6e0a858d4c9f5d9b6d023b0a225f24da84",
    ("ev", "gen-6"): "1acf069ab67d19a77438671a957934b383817a9dfd0accd814e879d4d832d165",
    # The scenario file perfbench's ev-risk workload plans on, read only.
    ("ev", "perfbench/ev-gen-1.json"): "77e14ac626f4ef42373fb4213a34bbe24747f6c1f7f7458d467fbdcccc8c1c1f",
}


@pytest.mark.parametrize("domain,instance", list(PINNED_MODELS))
def test_shipped_models_pinned(domain, instance):
    # A renumbering or any change in a domain's dynamics moves every
    # outcome downstream; it has to show up here, and be re-recorded on
    # purpose.
    source = str(REPO_ROOT / instance) if instance.endswith(".json") else instance
    problem, predicate = build_instance(domain, source)
    assert fingerprint(problem, predicate) == PINNED_MODELS[(domain, instance)]


# sha256 over the float64 bytes of h_min on every state of
# compile_model(problem).states, in order.
PINNED_HMIN = {
    ("racetrack", "ring-3"): "0ee2921568ec6377665aa4461acfd58742b61dda9978c24de2009cc653ee2210",
    ("racetrack", "zigzag-5"): "fdc3e1b9252da0001b8707dbec00b9ee5dc14fc8db6f81ea4b2393ebbe539c83",
    ("racetrack", "zigzag-6"): "7c02968aef2938673024fc9ae402bc18f96076d75ec8a093c0216888d4024e76",
    ("sailing", "8M"): "21e4cfa8b04b0829038eff8a7dfec3d261eee1ec4f79ffc8f6ec2856e7f7237b",
    ("ev", "gen-1"): "58e0b19d62761ca2097f83ef10db62c195fca766853429fa6cbcc06991c7fec6",
    ("racetrack", "zigzag-4"): "e04958fa886ff0adc204c78f0c0c8fd1cc5429f175f52c0e26a9fa3a98d0b9d8",
    ("racetrack", "ring-5"): "a6bc5872a0cfede4989994e3bf9f0c19c4c0ffd2215770b52b81a8a15c9ac0b0",
    ("ev", "gen-6"): "2709e8088e727acaa203e360f9cdb939cf830f5e31cd5ac20f25017682871664",
    # perfbench's ev-risk scenario file, read only.
    ("ev", "perfbench/ev-gen-1.json"): "58e0b19d62761ca2097f83ef10db62c195fca766853429fa6cbcc06991c7fec6",
}


@pytest.mark.parametrize("domain,instance", list(PINNED_HMIN))
def test_hmin_pinned(domain, instance):
    # Every LAO* solve is guided by h_min, so a last-bit change in it can
    # flip a tie and move whole trials.
    source = str(REPO_ROOT / instance) if instance.endswith(".json") else instance
    problem, _ = build_instance(domain, source)
    h = compute_hmin(problem)
    values = np.array([h(s) for s in compile_model(problem).states.tolist()])
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_HMIN[(domain, instance)]


# sha256 over the base's states and the record of every base-reachable
# state in each reduced model; rm01 uses the CLI defaults (30 walks of
# depth 4, seed 0, threshold 0.25).
PINNED_REDUCTIONS = {
    ("racetrack", "ring-3", "mlod"): "df128091dca0ee57bd7b276260cabfdc3284d222f4a373e1b01d262d782e3d1a",
    ("racetrack", "ring-3", "m02"): "c7573e2a99162a195eb6329bedb8d3e38af35e160be24adab1768fbee66d06a6",
    ("racetrack", "ring-3", "rm01"): "bd36c9b3c56d9d8612aecb495e3f2d19b09a3835c2d678e3a8b2dc58dcdb6acb",
    ("racetrack", "zigzag-5", "mlod"): "afee2ce82897ad06a0eb982c6c9760f65a1a3085c30a187f6dae644b5b4f3f37",
    ("racetrack", "zigzag-5", "m02"): "5c751d34d74e161804579ba3e8150d05ed9ed0f7b01a7c541740f4521fd5dc7d",
    ("racetrack", "zigzag-5", "rm01"): "4d253115c56c54cf2a2440e9db8a8b0a104b2bd6badb63514e7dc12f720097d3",
    ("sailing", "8M", "mlod"): "5dd7ab078e9521d05e546649062f97f3c269bf6b08123ba53f2fb55198026d49",
    ("sailing", "8M", "m02"): "e73d715bff858958b251194c6b555c14a3ecb49dadcbbca8483a064f7193c085",
    ("sailing", "8M", "rm01"): "8adcc6084966583a720581e09a247976645a6894959dc06d7aa7cde88f4467e5",
    ("ev", "gen-1", "mlod"): "bec19aa503777d0199a81bcd95856abd9297e342e6a1101809a6b29294f13b67",
    ("ev", "gen-1", "m02"): "9b340b82f2f1055c54d565b1d8ff7e66ea3375fd281a6fab5699b39a127bee41",
    ("ev", "gen-1", "rm01"): "87fa598cb059bf44ea5162e0c4667a7da74a68b11c1817b3da7c8cd739932be0",
}


@pytest.mark.parametrize("domain,instance,model", list(PINNED_REDUCTIONS))
def test_reduced_models_pinned(domain, instance, model):
    # Every reduced record is cut from the base's record; any change in how
    # a principle is chosen or applied shows up here.
    base, predicate = build_instance(domain, instance)
    selector = _make_selector(model, base, predicate, argparse.Namespace(seed=0, **RM01_DEFAULTS))
    reduced = ReducedModel(base, selector)
    digest = hashlib.sha256(repr(base.states).encode())
    for s in reachable_states(base):
        digest.update(repr(reduced.record(s)).encode())
    assert digest.hexdigest() == PINNED_REDUCTIONS[(domain, instance, model)]
