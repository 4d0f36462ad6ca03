"""Command-line interface: solve/experiment subcommands and report files."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prmplan import cli
from prmplan.cli import AGGREGATE_FIELDS, TRIAL_FIELDS, main
from prmplan.mdp import tabular_problem
from prmplan.risk import RiskPredicate
from prmplan.solvers import NonconvergenceError

TIMING_TRIAL_COLS = {"plan_ms", "replan_ms"}
TIMING_AGG_COLS = {"pct_time_savings"}

# A racetrack map whose goal is walled off from the start.
WALLED_TRACK = "XXXXXXX\nXS.XGXX\nXXXXXXX\n"

# sha256 of trials.csv without its timing columns, 10 trials per model.
PINNED_TRIALS = {
    ("racetrack", "ring-3", "full,mlod,m02,rm01", 1): (
        "5bf93e4c617761e73e35bae35c3a7710ddec9df6995a33315b6d54f24264d537"
    ),
    ("racetrack", "ring-3", "full,mlod,m02,rm01", 2): (
        "02a98fc551c1db02205137e9cc9c264cf9d9318591d0842828bab555a602ddf7"
    ),
    # Replan-heavy: 24 m02 and 61 rm01 replans over the 10 trials.
    ("racetrack", "zigzag-4", "m02,rm01", 1): (
        "a15bca322bff92e2f91ba4cb5620880df660c0d299221b39850e0e73e1127f02"
    ),
    # A deterministic reduction: 75 and 99 mlod replans over the 10 trials.
    ("racetrack", "zigzag-4", "mlod", 1): (
        "717b48e41055d7435deec687a059cfe6af31ac0c22c7f1416a86123e4a6eecf4"
    ),
    ("racetrack", "zigzag-4", "mlod", 2): (
        "2c08b9a7bbe658539ad37a3b3d0913e57acfa721e7869c846e5fcc2c91b43a0f"
    ),
    ("ev", "gen-1", "rm01", 1): "8709911c0dbe105c778e022ca276ede8553312a048b2cbc586d32a619071c577",
    ("ev", "gen-1", "rm01", 2): "f00b63673b94ee967388ac3836ed3a213420368ec431da6a2ee301f75363e345",
}

# perfbench/run.py's three workloads at seed 1, in the argv order it builds
# (100 trials, one job), with the digest that it prints for their trials.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED_WORKLOADS = {
    "racetrack-full": (
        ("racetrack", "zigzag-6", "full", ()),
        "f05f2cc50ff8f20963939d8081868daf3ca7f19df205d8fdd8c2454d1a191eb2",
    ),
    "racetrack-replan": (
        ("racetrack", "zigzag-5", "mlod,m02,rm01", ()),
        "0fe19fbe9603cf3cc5c2b7e78cb7b59d751b1b6dbad4ee7a393686054da211c2",
    ),
    "ev-risk": (
        ("ev", str(PERFBENCH / "ev-gen-1.json"), "rm01", ("--samples", "300")),
        "cf27d3af0183642f30d783ba9136cd48ac0bfff47fbaaa2795ed7920d8907bd1",
    ),
}


def read_csv(path, drop=()):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]


def outcome_digest(path):
    """sha256 of a trials.csv without its timing columns, as perfbench's."""
    digest = hashlib.sha256()
    for row in read_csv(path, TIMING_TRIAL_COLS):
        digest.update((",".join(f"{k}={v}" for k, v in row.items()) + "\n").encode())
    return digest.hexdigest()


def run_experiment_cli(tmp_path, subdir, extra=()):
    out = tmp_path / subdir
    code = main(
        [
            "experiment",
            "--domain",
            "sailing",
            "--instance",
            "6M",
            "--trials",
            "5",
            "--seed",
            "1",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


class TestSolve:
    def test_solve_prints_value(self, capsys):
        code = main(["solve", "--domain", "sailing", "--instance", "6M"])
        captured = capsys.readouterr()
        assert code == 0
        assert "V(s0)" in captured.out
        fields = dict(line.split(None, 1) for line in captured.out.splitlines())
        assert fields["converged"] == "yes"
        # LAO* backs up each state it expands at least once.
        assert int(fields["backups"]) >= int(fields["expanded"]) > 0

    def test_reports_a_stalled_solve(self, capsys, monkeypatch):
        # A stalled LAO* solve prints its best policy's V(s0), flagged as
        # not converged, and still exits 0.
        from prmplan import cli

        solve_lao_star = cli.solve_lao_star

        def stalled(*args, **kwargs):
            solution = solve_lao_star(*args, **kwargs)
            solution.converged = False
            return solution

        monkeypatch.setattr(cli, "solve_lao_star", stalled)
        assert main(["solve", "--domain", "sailing", "--instance", "6M"]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        assert fields["converged"] == "no"

    @pytest.mark.parametrize("model", ["full", "mlod", "m02", "rm01"])
    def test_oracle_cross_check(self, capsys, model):
        # The one CLI path that runs VI on a reduced model: LAO* and VI agree
        # on V(s0) within 2 * epsilon, and the printed gap says so.
        epsilon = 1e-3
        argv = ["solve", "--domain", "sailing", "--instance", "6M", "--model", model]
        code = main([*argv, "--epsilon", str(epsilon), "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        oracle = next(line for line in out.splitlines() if line.startswith("oracle"))
        gap = float(oracle.split("|gap|")[1])
        assert gap <= 2 * epsilon

    def test_oracle_on_improper_reduction_exits_2(self, capsys, monkeypatch):
        # A proper base whose mlod reduction keeps only state 1's self-loop:
        # state 0 reaches no goal under it, so the oracle is refused before
        # value iteration sweeps at all.
        from prmplan import domains

        def improper_mlod(domain, instance, seed=0):
            problem = tabular_problem(
                transitions={(0, 0): [(1, 1.0)], (1, 0): [(1, 0.6), (2, 0.4)]},
                costs={(0, 0): 1.0, (1, 0): 1.0},
                start=0,
                goals={2},
            )
            return problem, RiskPredicate(lambda s: False)

        def never(*args, **kwargs):
            raise AssertionError("value iteration ran on an improper reduction")

        monkeypatch.setattr(domains, "build_instance", improper_mlod)
        monkeypatch.setattr(cli, "solve_value_iteration", never)
        argv = ["solve", "--domain", "racetrack", "--instance", "x", "--model", "mlod"]
        assert main([*argv, "--oracle"]) == 2
        captured = capsys.readouterr()
        assert "converged  no" in captured.out
        assert "error: state 0 is reachable from s0 but reaches no goal" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_oracle_nonconvergence_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        from prmplan import simulator

        def budget_spent(*args, **kwargs):
            raise NonconvergenceError("value iteration did not converge in 7 sweeps")

        for module in (cli, simulator):
            monkeypatch.setattr(module, "solve_value_iteration", budget_spent)
        argv = [command, "--domain", "sailing", "--instance", "6M"]
        extra = ["--oracle"] if command == "solve" else ["--trials", "1", "--out", str(tmp_path)]
        assert main([*argv, *extra]) == 1
        err = capsys.readouterr().err
        assert err == "error: value iteration did not converge in 7 sweeps\n"

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_goal_walled_off_exits_2(self, tmp_path, capsys, command):
        track = tmp_path / "walled.track"
        track.write_text(WALLED_TRACK)
        argv = [command, "--domain", "racetrack", "--instance", str(track)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "no goal" in err
        assert "Traceback" not in err

    def test_unknown_domain_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--domain", "chess", "--instance", "1"])
        assert err.value.code == 2

    def test_unknown_instance_exits_2(self, capsys):
        code = main(["solve", "--domain", "racetrack", "--instance", "nope"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_policy_dump(self, tmp_path, capsys):
        out = tmp_path / "policy.txt"
        code = main(
            [
                "solve",
                "--domain",
                "sailing",
                "--instance",
                "6M",
                "--model",
                "mlod",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            sid, action = line.split()
            assert int(sid) >= 0 and 0 <= int(action) < 8

    def test_unwritable_policy_dump_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "policy.txt"
        argv = ["solve", "--domain", "sailing", "--instance", "6M", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err


class TestExperiment:
    def test_report_files_and_schema(self, tmp_path, capsys):
        out = run_experiment_cli(tmp_path, "run")
        trials = read_csv(out / "trials.csv")
        agg = read_csv(out / "aggregate.csv")
        assert set(trials[0]) == set(TRIAL_FIELDS)
        assert set(agg[0]) == set(AGGREGATE_FIELDS)
        assert {r["model"] for r in agg} == {"full", "mlod", "m02", "rm01"}
        assert len(trials) == 4 * 5
        table = (out / "table.txt").read_text()
        assert "% cost increase" in table
        assert "rm01" in table

    def test_full_model_row_zero_nse(self, tmp_path, capsys):
        out = run_experiment_cli(tmp_path, "run")
        agg = {r["model"]: r for r in read_csv(out / "aggregate.csv")}
        assert float(agg["full"]["avg_nse"]) == 0.0

    def test_deterministic_modulo_timing(self, tmp_path, capsys):
        out1 = run_experiment_cli(tmp_path, "a")
        out2 = run_experiment_cli(tmp_path, "b")
        assert read_csv(out1 / "trials.csv", TIMING_TRIAL_COLS) == read_csv(
            out2 / "trials.csv", TIMING_TRIAL_COLS
        )
        assert read_csv(out1 / "aggregate.csv", TIMING_AGG_COLS) == read_csv(
            out2 / "aggregate.csv", TIMING_AGG_COLS
        )

    def test_aggregates_recomputable_from_trials(self, tmp_path, capsys):
        out = run_experiment_cli(tmp_path, "recompute")
        trials = read_csv(out / "trials.csv")
        agg = {r["model"]: r for r in read_csv(out / "aggregate.csv")}
        for model, row in agg.items():
            mine = [t for t in trials if t["model"] == model and int(t["reached_goal"])]
            mean_nse = sum(int(t["nse_hits"]) for t in mine) / len(mine)
            mean_cost = sum(float(t["cost"]) for t in mine) / len(mine)
            assert float(row["avg_nse"]) == pytest.approx(mean_nse, abs=1e-9)
            assert float(row["mean_cost"]) == pytest.approx(mean_cost, rel=1e-6)
            assert int(row["goal_trials"]) == len(mine)

    def test_model_subset_flag(self, tmp_path, capsys):
        out = run_experiment_cli(tmp_path, "subset", extra=["--models", "full,rm01"])
        agg = read_csv(out / "aggregate.csv")
        assert [r["model"] for r in agg] == ["full", "rm01"]

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "experiment",
                "--domain",
                "sailing",
                "--instance",
                "6M",
                "--models",
                "full,psychic",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("models", [",", "full,full", "full,rm01,full"])
    def test_empty_or_repeated_models_exit_2(self, tmp_path, capsys, models):
        argv = ["--domain", "sailing", "--instance", "6M", "--models", models]
        code = main(["experiment", *argv, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--models" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--samples", "0"),
            ("--depth", "-1"),
            ("--trials", "0"),
            ("--epsilon", "0"),
            ("--epsilon", "-1e-3"),
            ("--epsilon", "nan"),
            ("--epsilon", "inf"),
            ("--seed", "-1"),
            ("--threshold", "2"),
            ("--threshold", "-0.1"),
            ("--threshold", "nan"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
        ],
    )
    def test_walk_settings_below_one_exit_2(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "experiment",
                    "--domain",
                    "sailing",
                    "--instance",
                    "6M",
                    flag,
                    value,
                    "--out",
                    str(tmp_path / "x"),
                ]
            )
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unusable_out_fails_before_solving(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_experiment called despite an unusable --out")

        monkeypatch.setattr(cli, "run_experiment", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["--domain", "sailing", "--instance", "6M", "--trials", "5"]
        assert main(["experiment", *argv, "--out", str(blocker / "out")]) == 1
        assert "cannot write reports" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("colour", "red"),  # not a scenario field
            ("start_demand", 9),
            ("start_price", 5),
            ("buy_price", [[[1.0, 1.2]] * 3] * 16),  # 3 demand levels, not 4
            ("levels", "8"),
            ("violation_penalty", -1000.0),
            ("violation_penalty", 0.0),
            ("inefficiency", 2.0),  # negative idle cost
            ("announce_window", [12, 8]),  # reversed: the window is never open
        ],
    )
    def test_invalid_ev_scenario_file_exits_2(self, tmp_path, capsys, field, value):
        from prmplan.domains import generate_ev_scenarios

        data = json.loads(generate_ev_scenarios(2, seed=0)[1].to_json())
        data[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        argv = ["--domain", "ev", "--instance", str(path), "--trials", "1"]
        assert main(["experiment", *argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_aggregate_rows_are_the_reports_rows(self, tmp_path, capsys, monkeypatch):
        reports = []

        def keep_report(*args, **kwargs):
            reports.append(cli_run_experiment(*args, **kwargs))
            return reports[-1]

        cli_run_experiment = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", keep_report)
        out = run_experiment_cli(tmp_path, "rows")
        (report,) = reports
        rows = report.rows()
        assert [list(row) for row in rows] == [list(AGGREGATE_FIELDS)] * 4
        assert read_csv(out / "aggregate.csv") == [
            {k: f"{v:.9g}" if isinstance(v, float) else str(v) for k, v in row.items()}
            for row in rows
        ]

    @pytest.mark.parametrize("domain,instance,models,seed", sorted(PINNED_TRIALS))
    def test_trial_outcomes_pinned(self, tmp_path, capsys, domain, instance, models, seed):
        argv = ["--domain", domain, "--instance", instance, "--models", models]
        argv += ["--trials", "10", "--seed", str(seed), "--out", str(tmp_path)]
        assert main(["experiment", *argv]) == 0
        digest = outcome_digest(tmp_path / "trials.csv")
        assert digest == PINNED_TRIALS[(domain, instance, models, seed)]

    @pytest.mark.parametrize("workload", sorted(PINNED_WORKLOADS))
    def test_benchmark_outcomes_pinned(self, tmp_path, capsys, workload):
        (domain, instance, models, extra), expected = PINNED_WORKLOADS[workload]
        argv = ["--domain", domain, "--instance", instance, "--models", models]
        argv += ["--trials", "100", "--seed", "1", "--jobs", "1", *extra]
        assert main(["experiment", *argv, "--out", str(tmp_path)]) == 0
        assert outcome_digest(tmp_path / "trials.csv") == expected


def test_import_leaves_scipy_unloaded():
    # Every experiment is a fresh process; scipy's import alone costs more
    # than numpy's, so the package must plan without it.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, prmplan, prmplan.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_run_without_risk_walks_leaves_numpy_random_and_threads_unloaded():
    # Trials draw from prmplan.pcg64, so only rm01's walks need numpy.random
    # (6 MB resident under numpy >= 2), and --jobs 1 needs no thread pool.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = """
import sys
import numpy
eager = "numpy.random" in sys.modules
import prmplan.cli
from prmplan import FULL_MODEL, M02, MOST_LIKELY, UniformSelector, run_experiment
from prmplan.domains import build_instance
base, predicate = build_instance("racetrack", "ring-3")
models = [("full", FULL_MODEL), ("mlod", MOST_LIKELY), ("m02", M02)]
report = run_experiment(base, [(n, UniformSelector(p)) for n, p in models], predicate, trials=5)
assert [r.goal_trials for r in report.results] == [5, 5, 5]
print(eager, "numpy.random" in sys.modules, "concurrent.futures" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    eager, random_loaded, futures_loaded = result.stdout.split()
    assert futures_loaded == "False"
    if eager == "True":
        pytest.skip("numpy 1.x imports numpy.random with numpy itself")
    assert random_loaded == "False"
