"""Benchmark domains: racetrack, sailing, EV charging, and the registry."""

import json
from fractions import Fraction

import pytest

from prmplan import (
    reachable_states,
    solve_deterministic,
    solve_value_iteration,
    validate_problem,
)
from prmplan.domains import build_instance, desk_instances
from prmplan.domains.ev import (
    DONE,
    VIOLATION,
    EvScenario,
    build_ev,
    generate_ev_scenarios,
)
from prmplan.domains.racetrack import (
    ACTIONS,
    BUILTIN_TRACKS,
    MapParseError,
    build_racetrack,
    parse_track,
)
from prmplan.domains.sailing import DIRECTIONS, TACK_COST, build_sailing


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
        astar = solve_deterministic(problem).start_value
        vi = solve_value_iteration(problem).start_value
        assert astar == pytest.approx(vi, abs=2e-3)
        # Optimal bang-bang driving: cost grows with corridor length.
        if length > 3:
            shorter = "XS" + "." * (length - 4) + "GX"
            text2 = "\n".join(("X" * len(shorter), shorter, "X" * len(shorter)))
            problem2, _ = build_racetrack(text2, slip_prob=0.0, perturb_prob=0.0)
            assert astar >= solve_deterministic(problem2).start_value

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            build_racetrack("XXXX\nXSGX\nXXXX", slip_prob=0.6, perturb_prob=0.4)

    def test_tiny_track_validates(self, tiny_racetrack):
        problem, _ = tiny_racetrack
        assert validate_problem(problem) == []


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
        for a in problem.actions(s):
            diff = min((a - 0) % 8, (0 - a) % 8)
            assert problem.cost(s, a) == TACK_COST[diff]

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
        assert validate_problem(problem) == []


class TestEvModel:
    def test_scenario_validation(self):
        scenario = generate_ev_scenarios(1, seed=0)[0]
        bad = EvScenario(**{**scenario.__dict__, "goal_charge": 99})
        with pytest.raises(ValueError, match="goal charge"):
            bad.validate()

    def test_costs_strictly_positive_off_goal(self, small_ev):
        problem, _ = small_ev
        for s in reachable_states(problem):
            if problem.is_goal(s):
                continue
            for a in problem.actions(s):
                assert problem.cost(s, a) > 0.0

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
        assert validate_problem(problem) == []


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
            assert validate_problem(problem) == [], name
            assert not any(predicate(g) for g in problem.goals), name
