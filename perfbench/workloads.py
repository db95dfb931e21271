"""The benchmark's workloads and the unit of work each one repeats.

Importing this module loads only the standard library, so the set-up probe
can import it before it starts timing ``import coco_lab``.

A unit is one complete piece of user work: a ``harness.run`` for the two
coco workloads, and a ``coco-lab sweep`` followed by ``coco-lab report
--verify`` for every horizon for the CLI workload. Every unit also runs
the correctness gate: budget flags, ``verify_run`` and the ``rounds.csv``
digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

# Threads the CLI workload's sweep uses. Fixed (not taken from nproc) so the
# workload is the same work on every machine; nproc is recorded beside it.
SWEEP_THREADS = "2"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    algorithm: str
    horizons: tuple  # one horizon for a run, several for a CLI sweep
    cli: bool = False
    seed_used: bool = True
    why: str = ""

    @property
    def rounds_per_unit(self) -> int:
        return sum(self.horizons)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "coco1-tracking-ball", "tracking-ball", "coco1", (500,),
            why="coco1 with the full ensemble; the only workload where geometry "
                "works: an Intersection per round and Dykstra on ball-ball"),
        Workload(
            "coco2-static", "static", "coco2", (1000,), seed_used=False,
            why="coco2 with the hedge and per-expert AdaGrad dominating; no "
                "Intersection.project, oracles reused (static ignores its seed)"),
        Workload(
            "cli-sweep-verify", "oco-mix", "adagrad", (125, 500, 2000), cli=True,
            why="coco-lab sweep with --out and --emit-plotdata, then report "
                "--verify per horizon: persist, plotdata and verify, no ensemble"),
    )
}


@dataclass
class UnitResult:
    """What one unit did: timings, digests, summaries and failures."""

    rounds: int = 0
    produce_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # horizon label -> sha256 of rounds.csv
    summaries: dict = field(default_factory=dict)  # horizon label -> summary.json
    slowness: float = 1.0  # machine slowness around this unit (see calibrate.py)

    def fail(self, *messages):
        """Count one failed operation, described by ``messages``."""
        self.failed += 1
        self.problems.extend(messages)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def scenario_spec(workload: Workload, seed: int, horizon: int):
    from coco_lab.scenarios import ScenarioSpec

    return ScenarioSpec(name=workload.scenario, horizon=horizon, seed=seed)


def cli_config(workload: Workload, seed: int) -> dict:
    return {"scenario": {"name": workload.scenario, "horizon": workload.horizons[-1],
                         "seed": seed, "params": {}},
            "algorithm": workload.algorithm}


def cli_sweep_argv(workload: Workload, seed: int, config_path: str, out_dir: str) -> list:
    return ["sweep", "--config", config_path, "--seed", str(seed),
            "--horizons", ",".join(str(h) for h in workload.horizons),
            "--out", out_dir, "--emit-plotdata",
            "--metric", "regret", "--comparator", "static-center"]


def create_state(workload: Workload, scenario):
    """The learner state a run of this workload starts from."""
    from coco_lab import AdaGradState, Coco1State, Coco2State

    ds, T, g = scenario.decision_set, scenario.horizon, scenario.g_lip
    if workload.algorithm == "coco1":
        return Coco1State.create(ds, T, g)
    if workload.algorithm == "coco2":
        return Coco2State.create(ds, T, g)
    return AdaGradState(decision_set=ds)


def run_unit(workload: Workload, seed: int, work_dir: str,
             region=contextlib.nullcontext) -> UnitResult:
    """Run one unit in ``work_dir`` (emptied afterwards). ``region()`` wraps
    the two timed calls, so a tracer can record exactly what is timed."""
    os.makedirs(work_dir, exist_ok=True)
    try:
        if workload.cli:
            return _cli_unit(workload, seed, work_dir, region)
        return _run_unit(workload, seed, work_dir, region)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run_unit(workload, seed, work_dir, region) -> UnitResult:
    from coco_lab import harness

    result = UnitResult()
    horizon = workload.horizons[0]
    label = f"T{horizon}"
    config = harness.RunConfig(scenario=scenario_spec(workload, seed, horizon),
                               algorithm=workload.algorithm)
    result.attempted += 1
    with region():
        t0 = time.perf_counter()
        record = harness.run(config)
        result.produce_s = time.perf_counter() - t0
    result.rounds = record.horizon
    if not record.summary["all_bounds_satisfied"]:
        result.fail(f"{label}: a budget flag is false")

    # The coco workloads persist nothing on their timed path; the gate
    # writes the artefact so verify_run can re-derive it.
    out = os.path.join(work_dir, label)
    harness.persist(record, config, out)
    result.attempted += 1
    with region():
        t0 = time.perf_counter()
        problems = harness.verify_run(out)
        result.verify_s = time.perf_counter() - t0
    if problems:
        result.fail(*(f"{label}: verify: {p}" for p in problems))
    result.digests[label] = sha256_file(os.path.join(out, "rounds.csv"))
    with open(os.path.join(out, "summary.json")) as f:
        result.summaries[label] = json.load(f)
    return result


def _cli_unit(workload, seed, work_dir, region) -> UnitResult:
    from coco_lab import cli

    result = UnitResult()
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as f:
        json.dump(cli_config(workload, seed), f)
    out = os.path.join(work_dir, "sweep")
    os.environ["COCO_LAB_THREADS"] = SWEEP_THREADS
    sink = io.StringIO()
    result.attempted += 1
    with region(), contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = cli.main(cli_sweep_argv(workload, seed, config_path, out))
        result.produce_s = time.perf_counter() - t0
    if code != 0:
        result.fail(f"sweep exited {code}")
    result.rounds = workload.rounds_per_unit
    verify_s = 0.0
    for horizon in workload.horizons:
        label = f"T{horizon}"
        run_dir = os.path.join(out, label)
        result.attempted += 1
        with region(), contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = cli.main(["report", run_dir, "--verify"])
            verify_s += time.perf_counter() - t0
        result.digests[label] = sha256_file(os.path.join(run_dir, "rounds.csv"))
        with open(os.path.join(run_dir, "summary.json")) as f:
            result.summaries[label] = json.load(f)
        if code != 0 or not result.summaries[label]["all_bounds_satisfied"]:
            result.fail(f"{label}: report --verify exited {code}")
    result.verify_s = verify_s
    return result


def budget_ratios(summaries: dict) -> tuple[float, float]:
    """(ccv_budget_ratio, regret_budget_ratio) over the unit's summaries.

    CCV ratio: final_ccv / ccv_bound_rhs, 0.0 where the algorithm has no CCV
    budget (adagrad). Regret ratio: the largest regret / bound_rhs over
    comparators; negative when the learner beats every comparator.
    """
    ccv, regret = [], []
    for s in summaries.values():
        if "ccv_bound_rhs" in s:
            ccv.append(s["final_ccv"] / s["ccv_bound_rhs"])
        for key, rhs in s.items():
            if key.startswith("bound_rhs__"):
                regret.append(s["regret__" + key[len("bound_rhs__"):]] / rhs)
    return (max(ccv) if ccv else 0.0), max(regret)


def numeric_fields(summary: dict) -> dict:
    """The summary's numbers that are results, not timings or flags."""
    return {k: v for k, v in summary.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
            and k != "wall_clock_sec"}


def result_drift(summaries: dict, reference: dict) -> float:
    """Largest relative difference of numeric summary fields from the reference."""
    worst = 0.0
    for label, ref in reference.items():
        got = numeric_fields(summaries[label])
        if set(got) != set(ref):
            return 1.0  # a field appeared or vanished: count it as 100% drift
        for key, want in ref.items():
            a, b = float(got[key]), float(want)
            scale = max(abs(a), abs(b))
            if scale > 0.0:
                worst = max(worst, abs(a - b) / scale)
    return worst
