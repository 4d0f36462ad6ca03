"""prmplan benchmark: times `prmplan experiment` from outside, one workload per run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload racetrack-full --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload in turn
    python3 -m pytest perfbench                          # the benchmark's own checks

Each measurement runs in a fresh child process with `PYTHONPATH=src`, so
every cache starts cold, as it does for a user. Children run one at a time
(a closed loop with a single client), with `--jobs 1` and one BLAS thread.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median wall time of `prmplan.domains.build_instance` for the
               workload's instance, over SETUP_RUNS or more fresh processes;
  wall_s       median wall time of the whole `prmplan experiment` command
               (import, instance build, protocol, report writing), repeated
               while another run still fits in --seconds (at least once);
  peak_rss_mb  median peak resident memory of those experiment processes,
               read per child from os.wait4.
--trace 1 runs the experiment once untraced and once through child.py,
which replays the protocol with spans around each layer, and reports the
per-layer metrics of BENCHMARK.json plus the tracing overhead.

Every experiment's trials.csv is checked (checks.py); a broken check fails
that trial, and a non-zero exit fails all of the command's trials. Details,
run context and spans go to .perfbench/ in the checkout. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
TRIALS = 100
# Set-up is timed in at least SETUP_RUNS fresh processes, and in more until
# they have taken SETUP_SECONDS, since a 0.1 s build is noisy on its own.
SETUP_RUNS = 5
SETUP_SECONDS = 4.0
# A run must end within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    domain: str
    instance: str
    models: tuple[str, ...]
    extra: tuple[str, ...] = ()

    def argv(self, seed: int) -> list[str]:
        return [
            "experiment", "--domain", self.domain, "--instance", self.instance,
            "--models", ",".join(self.models), "--trials", str(TRIALS),
            "--seed", str(seed), "--jobs", "1", *self.extra,
        ]


# Why each workload exists is recorded in BENCHMARK.json. The EV instance is
# gen-1 of generator seed 0, saved to a file: `--instance gen-1` would draw a
# new scenario for every --seed, and wall time across those varies ~2x.
WORKLOADS = {
    "racetrack-full": Workload("racetrack", "zigzag-6", ("full",)),
    "racetrack-replan": Workload("racetrack", "zigzag-5", ("mlod", "m02", "rm01")),
    "ev-risk": Workload(
        "ev", str(BENCH_DIR / "ev-gen-1.json"), ("rm01",), ("--samples", "300")
    ),
}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    load_before: float
    load_after: float


def run_child(cmd: list[str], root: Path, log: Path, deadline: float) -> ChildRun:
    """Run one child to completion; its own peak RSS comes from wait4."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    load_before = os.getloadavg()[0]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        proc.returncode, load_before, os.getloadavg()[0],
    )


def contended(load: float) -> bool:
    """More than half a core busy besides this benchmark's own last child."""
    return load > (os.cpu_count() or 1) - 0.5


def run_context(root: Path) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cache": "cold: a fresh process per measurement",
        "jobs": 1,
    }


def warm_cache_indicator(reports: Path) -> dict:
    """The full row's % time savings against itself (~0 when every solve
    starts from one cache state) next to the program's t_full. Never gated."""
    rows = checks.read_rows(reports / "aggregate.csv")
    full = next((r for r in rows if r["model"] == "full"), None)
    table = (reports / "table.txt").read_text()
    t_full = re.search(r"full-model solve time = ([0-9.]+)s", table)
    return {
        "full_pct_time_savings": float(full["pct_time_savings"]) if full else None,
        "t_full_s": float(t_full.group(1)) if t_full else None,
    }


def recorded_digest(name: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def record_digest(name: str, seed: int, digest: str) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table.setdefault(name, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


class WorkloadRun:
    """One benchmark run of one workload: its measurements, checks and record."""

    def __init__(self, name: str, args, root: Path, spec: dict):
        self.name, self.args, self.root, self.spec = name, args, root, spec
        self.wl = WORKLOADS[name]
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.out = root / ".perfbench" / f"{name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.context = run_context(root)
        self.detail: dict = {"workload": name, "seed": args.seed, "context": self.context}
        self.runs: list[dict] = []
        self.problems: list[str] = []

    def experiment(self) -> dict:
        """One untraced `prmplan experiment` run, with its reports checked."""
        reports = self.out / "reports"
        shutil.rmtree(reports, ignore_errors=True)
        argv = self.wl.argv(self.args.seed)
        cmd = [sys.executable, "-m", "prmplan.cli", *argv, "--out", str(reports)]
        child = run_child(cmd, self.root, self.out / "experiment.log", self.deadline)
        record = {**vars(child), "contended": contended(child.load_before), "digest": None}
        if child.exit_code != 0:
            why = f"exit code {child.exit_code}"
            failures = {(m, t): why for m in self.wl.models for t in range(TRIALS)}
        else:
            rows = checks.read_rows(reports / "trials.csv")
            failures = checks.trial_failures(rows, self.wl.models, TRIALS)
            record["digest"] = checks.outcome_digest(rows)
            if "full" in self.wl.models:
                record["warm_cache_indicator"] = warm_cache_indicator(reports)
        record["failures"] = [f"{m}#{t}: {why}" for (m, t), why in sorted(failures.items())]
        self.runs.append(record)
        return record

    def child(self, mode: str) -> tuple[dict, ChildRun]:
        """Run child.py in `mode`; returns its JSON result and the ChildRun."""
        result = self.out / f"{mode}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(result)]
        cmd += self.wl.argv(self.args.seed)
        log = self.out / f"{mode}.log"
        child = run_child(cmd, self.root, log, self.deadline)
        if child.exit_code != 0:
            raise RuntimeError(f"{mode} child exited {child.exit_code}; see {log}")
        return json.loads(result.read_text()), child

    def traced(self) -> dict:
        untraced = self.experiment()
        trace, child = self.child("trace")
        self.detail["trace"] = trace
        self.problems += trace["problems"]
        if trace["digest"] != untraced["digest"]:
            self.problems.append("traced trials differ from the untraced trials.csv")
        layer = dict(trace["metrics"])
        layer["trace.wall_s"] = child.wall_s - trace["bench_only_s"]
        layer["trace.overhead_pct"] = 100.0 * (layer["trace.wall_s"] / untraced["wall_s"] - 1.0)
        print(
            f"traced protocol {layer['trace.wall_s']:.2f} s vs untraced "
            f"{untraced['wall_s']:.2f} s (overhead {layer['trace.overhead_pct']:+.1f} %); "
            f"spans in {trace['spans_file']}"
        )
        print(
            f"LAO* vs VI oracle |gap| {trace['oracle_gap']:.2e} "
            f"(limit {trace['oracle_limit']:.0e})"
        )
        print("self time by layer:")
        for layer_name, (secs, share) in trace["breakdown"].items():
            print(f"  {layer_name:<22} {secs:8.3f} s {100 * share:6.1f} %")
        return {m["name"]: (layer[m["name"]], m["unit"]) for m in self.spec["per_layer"]}

    def time_setup(self, setups: list[dict], runs: int, seconds: float) -> None:
        while len(setups) < runs or sum(s["wall_s"] for s in setups) < seconds:
            result, child = self.child("setup")
            setups.append({**result, "wall_s": child.wall_s, "load_before": child.load_before})

    def end_to_end(self) -> dict:
        # Set-up samples go before and after the experiments, so that a
        # slow spell of the machine does not cover all of them.
        setups: list[dict] = []
        self.time_setup(setups, SETUP_RUNS // 2, 0.0)
        window = time.perf_counter()
        while True:
            self.experiment()
            longest = max(r["wall_s"] for r in self.runs)
            elapsed = time.perf_counter() - window
            if elapsed + longest > self.args.seconds or time.monotonic() + longest > self.deadline:
                break
        self.time_setup(setups, SETUP_RUNS, SETUP_SECONDS)
        self.context.update({k: setups[0][k] for k in ("python", "numpy", "scipy")})
        self.detail["setup"] = setups
        print("setup_s runs: " + " ".join(f"{s['setup_s']:.3f}" for s in setups) + " s")
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in self.runs),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.runs),
        }
        return {m["name"]: (values[m["name"]], m["unit"]) for m in self.spec["end_to_end"]}

    def report_outcomes(self) -> None:
        """Repeated runs of one commit must agree; a digest that differs from
        the recorded one is a changed outcome, reported but not gated."""
        digests = {r["digest"] for r in self.runs}
        digest = self.runs[0]["digest"]
        seed = self.args.seed
        if len(digests) > 1:
            self.problems.append(
                f"repeated runs gave different outcomes: {sorted(map(str, digests))}"
            )
        elif digest is not None:
            known = recorded_digest(self.name, seed)
            if self.args.record_digests:
                record_digest(self.name, seed, digest)
                state = f"recorded for seed {seed}"
            elif known is None:
                state = f"none recorded for seed {seed}"
            elif known == digest:
                state = "unchanged"
            else:
                state = f"CHANGED from recorded {known[:16]} (not gated)"
            print(f"outcomes: digest {digest[:16]} {state}")

    def result(self) -> dict:
        """Measure, check and print; returns the object of the last line."""
        print(f"workload {self.name}: prmplan {' '.join(self.wl.argv(self.args.seed))}")
        metrics = self.traced() if self.args.trace else self.end_to_end()
        print(f"context: {json.dumps(self.context)}")
        per_run = len(self.wl.models) * TRIALS
        for i, r in enumerate(self.runs, 1):
            print(
                f"experiment {i}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
                f"peak rss {r['peak_rss_mb']:.1f} MB, exit {r['exit_code']}, "
                f"load {r['load_before']:.2f} -> {r['load_after']:.2f}"
                f"{' CONTENDED' if r['contended'] else ''}, "
                f"failed {len(r['failures'])}/{per_run}"
            )
            for failure in r["failures"][:10]:
                print(f"  failed trial {failure}")
            if "warm_cache_indicator" in r:
                w = r["warm_cache_indicator"]
                print(
                    f"  warm-cache indicator (not gated): full pct_time_savings "
                    f"{w['full_pct_time_savings']} % with t_full {w['t_full_s']} s "
                    "(~0 % once every solve starts from one cache state)"
                )
        self.report_outcomes()
        for problem in self.problems:
            print(f"check failed: {problem}")
        for key, (value, unit) in metrics.items():
            print(f"{key} {value:.6g} {unit}")

        attempted = len(self.runs) * per_run
        failed = sum(len(r["failures"]) for r in self.runs)
        if self.args.trace:
            attempted += per_run
            failed += self.detail["trace"]["failed_trials"]
        self.detail.update(runs=self.runs, problems=self.problems)
        (self.out / "result.json").write_text(json.dumps(self.detail, indent=1) + "\n")
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"store this run's outcome digest in {DIGESTS.name}",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not ((root / "src/prmplan/cli.py").is_file() and (root / "BENCHMARK.json").is_file()):
        print(
            f"error: {root} is not a prmplan source checkout (needs src/prmplan and "
            "BENCHMARK.json); run from the repository root",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = WorkloadRun(name, args, root, spec).result()
        except (RuntimeError, OSError, KeyError, ValueError) as exc:
            print(f"error: workload {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
