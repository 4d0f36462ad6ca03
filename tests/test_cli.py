"""Command-line interface: solve/experiment subcommands and report files."""

import csv

import pytest

from prmplan.cli import AGGREGATE_FIELDS, TRIAL_FIELDS, main

TIMING_TRIAL_COLS = {"plan_ms", "replan_ms"}
TIMING_AGG_COLS = {"pct_time_savings"}


def read_csv(path, drop=()):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]


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
        # LAO* backs up each state it expands at least once.
        assert int(fields["backups"]) >= int(fields["expanded"]) > 0

    def test_oracle_cross_check(self, capsys):
        code = main(
            ["solve", "--domain", "sailing", "--instance", "6M", "--oracle"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "oracle" in captured.out

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
            mine = [t for t in trials if t["model"] == model]
            mean_nse = sum(int(t["nse_hits"]) for t in mine) / len(mine)
            mean_cost = sum(float(t["cost"]) for t in mine) / len(mine)
            assert float(row["avg_nse"]) == pytest.approx(mean_nse, abs=1e-9)
            assert float(row["mean_cost"]) == pytest.approx(mean_cost, rel=1e-6)
            assert int(row["goal_trials"]) == sum(
                int(t["reached_goal"]) for t in mine
            )

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
