"""Child processes of the benchmark; run.py starts each in a fresh interpreter.

    python3 perfbench/child.py setup OUT.json experiment --domain ... (CLI flags)
    python3 perfbench/child.py trace OUT.json experiment --domain ... (CLI flags)

Both parse the experiment flags with prmplan's own CLI parser, so they see
the same defaults as the untraced command. `setup` times
`prmplan.domains.build_instance` once. `trace` replays the experiment
protocol (`run_experiment` as `prmplan experiment` calls it) through the
public entry points, with a span around each call and counters and timers
wrapped around the callables the protocol takes as arguments; spans stay in
memory and are written to .perfbench/ at the end.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import checks

# Reported as <metric>.<model> for every prmplan model; 0 for models a
# workload does not run.
PER_MODEL = (
    "solvers.initial_s", "solvers.initial_expanded", "simulator.trial_ms_p50",
    "simulator.trial_ms_p90", "simulator.replans", "simulator.replan_s", "simulator.steps",
    "simulator.execute_s", "reduction.pairs_assigned", "reduction.pairs_full",
)


class Probe:
    """Counts (and optionally times) the calls of one callable.

    `key` maps (args, result) to a label tallied in `keys`.
    """

    def __init__(self, fn, timed=True, key=None):
        self.fn = fn
        self.timed = timed
        self.key = key
        self.calls = 0
        self.seconds = 0.0
        self.keys: Counter = Counter()

    def __call__(self, *args):
        self.calls += 1
        if self.timed:
            t0 = time.perf_counter()
            result = self.fn(*args)
            self.seconds += time.perf_counter() - t0
        else:
            result = self.fn(*args)
        if self.key is not None:
            self.keys[self.key(args, result)] += 1
        return result


class Tracer:
    """In-memory spans: id, name, parent id, start, end, plus the seconds each
    timed probe spent inside the span."""

    def __init__(self, probes: dict[str, Probe]):
        self.probes = probes
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
        }
        before = {k: p.seconds for k, p in self.probes.items()}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter() - self._t0
            rec["inside"] = {
                k: p.seconds - before[k] for k, p in self.probes.items() if p.seconds > before[k]
            }

    def total(self, prefix: str, probe: str | None = None) -> float:
        """Summed duration of the spans named `prefix*`, or only the part of
        it that `probe` spent inside them."""
        spans = [s for s in self.spans if s["name"].startswith(prefix)]
        if probe is not None:
            return sum(s["inside"].get(probe, 0.0) for s in spans)
        return sum(s["end"] - s["start"] for s in spans)


def check_source() -> None:
    import prmplan

    src = (Path.cwd() / "src").resolve()
    if not Path(prmplan.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"prmplan imported from {prmplan.__file__}, not from {src}")


def setup(args) -> dict:
    import numpy
    import scipy

    from prmplan.domains import build_instance

    t0 = time.perf_counter()
    problem, _ = build_instance(args.domain, args.instance, seed=args.seed)
    elapsed = time.perf_counter() - t0
    return {
        "setup_s": elapsed,
        "n_states": problem.n_states,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def trace(args, out: Path) -> dict:
    import numpy as np

    from prmplan.cli import MODEL_NAMES, TRIAL_FIELDS, _make_selector
    from prmplan.domains import build_instance
    from prmplan.mdp import reachable_states
    from prmplan.reduction import build_reduced_model
    from prmplan.risk import RiskPredicate
    from prmplan.simulator import SimConfig, _solve_reduced, optimal_start_value, run_trial
    from prmplan.solvers import compute_hmin, solve_lao_star

    names = [n.strip() for n in args.models.split(",") if n.strip()]
    # The timed probes exist before the callables they wrap, so that every
    # span can record how much of its time they took.
    reach = Probe(None, key=lambda a, r: a[0])
    probes = {"solvers.hmin_query": Probe(None), "risk.reach": reach}
    tr = Tracer(probes)
    m: dict[str, float] = {}

    with tr.span("domains.build"):
        problem, raw_predicate = build_instance(args.domain, args.instance, seed=args.seed)

    # Sizes and a cold enumeration come from a second build, so the protocol
    # below starts from the same cold memos as the untraced command.
    with tr.span("bench.sizes"):
        twin, _ = build_instance(args.domain, args.instance, seed=args.seed)
        with tr.span("mdp.enumerate"):
            states = reachable_states(twin)
        pairs = [(s, a) for s in states if not twin.is_goal(s) for a in twin.actions(s)]
        m["domains.outcomes"] = sum(len(twin.transition(s, a)) for s, a in pairs)
        m["domains.states"] = len(states)
        m["domains.pairs"] = len(pairs)
        del twin, pairs

    predicate_probe = Probe(raw_predicate.evaluate, timed=False)
    predicate = RiskPredicate(predicate_probe, raw_predicate.feature_names, raw_predicate.name)
    models = []
    for name in names:
        selector = _make_selector(name, problem, predicate, args)
        profile = getattr(selector, "risk_profile", None)
        if profile is not None:
            reach.fn = profile.reach
            profile.reach = reach
        selector.principle = Probe(selector.principle, timed=False, key=lambda a, p: p.kind)
        models.append((name, selector))

    config = SimConfig(epsilon=args.epsilon, jobs=args.jobs)
    with tr.span("solvers.hmin"):
        hmin = compute_hmin(problem, problem.start, config.solver_config())
    heuristic = probes["solvers.hmin_query"]
    heuristic.fn = hmin
    solver_cfg = config.solver_config(heuristic)
    with tr.span("solvers.vi"):
        optimal = optimal_start_value(problem, config)
    with tr.span("solvers.lao_full"):
        full = solve_lao_star(problem, config=solver_cfg)
    gap = abs(full.start_value - optimal)
    problems = []
    if gap > 2 * args.epsilon:
        problems.append(f"LAO* V*(s0) {full.start_value} vs VI {optimal}: gap {gap:.2e} > 2 eps")

    rows = []
    for name, selector in models:
        with tr.span(f"reduction.build.{name}"):
            reduced = build_reduced_model(problem, selector, name=name)
        with tr.span(f"solvers.initial.{name}") as span:
            initial = _solve_reduced(reduced, problem.start, solver_cfg)
        initial.solve_time = span["end"] - span["start"]
        m[f"solvers.initial_expanded.{name}"] = initial.expanded_states
        replans = steps = 0
        replan_s = 0.0
        for trial in range(args.trials):
            trial_seed = int(np.random.SeedSequence([args.seed, trial]).generate_state(1)[0])
            with tr.span(f"simulator.trial.{name}"):
                stats = run_trial(
                    problem, reduced, predicate, config,
                    seed=trial_seed, initial=initial, heuristic=heuristic,
                )
            replans += stats.replans
            steps += stats.steps
            replan_s += stats.replan_time
            rows.append({
                "model": name, "trial": str(trial), "seed": str(stats.seed),
                "cost": f"{stats.total_cost:.9g}", "steps": str(stats.steps),
                "replans": str(stats.replans), "nse_hits": str(stats.nse_hits),
                "reached_goal": str(int(stats.reached_goal)),
            })
        trial_ms = [1000 * (s["end"] - s["start"]) for s in tr.spans
                    if s["name"] == f"simulator.trial.{name}"]
        m[f"simulator.trial_ms_p50.{name}"] = statistics.median(trial_ms)
        m[f"simulator.trial_ms_p90.{name}"] = (
            statistics.quantiles(trial_ms, n=10)[8] if len(trial_ms) > 1 else trial_ms[0]
        )
        m[f"simulator.replans.{name}"] = replans
        m[f"simulator.steps.{name}"] = steps
        m[f"simulator.replan_s.{name}"] = replan_s
        m[f"simulator.execute_s.{name}"] = sum(trial_ms) / 1000 - replan_s
        m[f"solvers.initial_s.{name}"] = initial.solve_time
        m[f"reduction.pairs_assigned.{name}"] = selector.principle.calls
        m[f"reduction.pairs_full.{name}"] = selector.principle.keys["full"]
    if [f for f in TRIAL_FIELDS if f not in checks.TIMING_COLUMNS] != list(rows[0]):
        raise RuntimeError(f"trials.csv columns {TRIAL_FIELDS} no longer match the traced rows")

    for name in MODEL_NAMES:
        for key in PER_MODEL:
            m.setdefault(f"{key}.{name}", 0)
    estimated = [s for s in reach.keys if not raw_predicate(s)]
    samples = args.samples if "rm01" in names else 0
    m.update({
        "domains.build_s": tr.total("domains.build"),
        "mdp.enumerate_s": tr.total("mdp.enumerate"),
        "solvers.hmin_s": tr.total("solvers.hmin"),
        "solvers.hmin_queries": heuristic.calls,
        "solvers.hmin_query_s": heuristic.seconds,
        "solvers.vi_s": tr.total("solvers.vi"),
        "solvers.vi_states": len(states),
        "solvers.lao_full_s": tr.total("solvers.lao_full"),
        "solvers.lao_full_expanded": full.expanded_states,
        "risk.reach_queries": reach.calls,
        "risk.states_estimated": len(estimated),
        "risk.walks": len(estimated) * samples,
        "risk.reach_s": reach.seconds,
        "risk.predicate_calls": predicate_probe.calls,
    })

    # Self time per layer. Risk estimation runs lazily inside the initial
    # solves and replans (through the selector), so it is taken out of both.
    protocol_s = tr.spans[-1]["end"] - tr.total("bench.sizes")
    all_replans_s = sum(m[f"simulator.replan_s.{n}"] for n in names)
    layers = {
        "domains.build": m["domains.build_s"],
        "solvers.full_model": m["solvers.hmin_s"] + m["solvers.vi_s"] + m["solvers.lao_full_s"],
        "solvers.initial": tr.total("solvers.initial") - tr.total("solvers.initial", "risk.reach"),
        "simulator.replans": all_replans_s - tr.total("simulator.trial", "risk.reach"),
        "simulator.execute": sum(m[f"simulator.execute_s.{n}"] for n in names),
        "risk.reach": reach.seconds,
    }
    layers["other"] = protocol_s - sum(layers.values())

    failures = checks.trial_failures(rows, tuple(names), args.trials)
    if failures:
        (model, trial), why = min(failures.items())
        problems.append(f"{len(failures)} traced trials failed; first {model}#{trial}: {why}")
    spans_file = out.with_name("spans.json")
    spans_file.write_text(json.dumps(tr.spans) + "\n")
    return {
        "metrics": m,
        "breakdown": {k: (v, v / protocol_s) for k, v in layers.items()},
        "bench_only_s": tr.total("bench.sizes"),
        "oracle_gap": gap,
        "oracle_limit": 2 * args.epsilon,
        "digest": checks.outcome_digest(rows),
        "failed_trials": len(failures),
        "problems": problems,
        "spans_file": str(spans_file),
    }


def main(argv: list[str]) -> int:
    mode, out, *cli_argv = argv
    if mode not in ("setup", "trace"):
        raise SystemExit(f"unknown mode {mode!r}; use setup or trace")
    check_source()
    from prmplan.cli import build_parser

    args = build_parser().parse_args(cli_argv)
    result = setup(args) if mode == "setup" else trace(args, Path(out))
    Path(out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
