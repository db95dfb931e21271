"""coco-lab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload coco1-tracking-ball --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures untraced and traced halves, reports the per-layer metrics, the
tracing overhead and the isolated layer pass. Both print a table of every
metric with its unit, the ``rounds.csv`` digests and the environment, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only if every correctness
check passed. ``--write-reference`` regenerates ``reference.json``.

The library is imported from ``src/`` of the checkout this file sits in;
nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_PROBES = 11  # fresh interpreters per run; set-up is their median
MIN_UNITS = 3
DRIFT_TOL = 1e-6  # same relative tolerance as harness.verify_run

sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_THREADS, WORKLOADS, budget_ratios, numeric_fields, result_drift, run_unit)

END_TO_END_UNITS = {"rounds_per_s": "1/s", "setup_s": "s", "verify_s": "s",
                    "peak_rss_mb": "MB"}
# Reported on every run and gated by the correctness check, but not bounded
# end-to-end metrics: at an unchanged commit they are exactly 0 (drift,
# fail ratio), 0 for adagrad (no CCV budget) or negative (coco2-static regret).
OUTCOME_UNITS = {"ccv_budget_ratio": "ratio", "regret_budget_ratio": "ratio",
                 "result_drift": "ratio", "fail_ratio": "ratio"}


class Fatal(Exception):
    """The benchmark cannot run here: no result is printed."""


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summary_stat(values) -> dict:
    return {"median": statistics.median(values), "spread": spread(values), "n": len(values)}


def import_library():
    if not os.path.isfile(os.path.join(SRC, "coco_lab", "__init__.py")):
        raise Fatal(f"no coco_lab package under {SRC}")
    sys.path.insert(0, SRC)
    import coco_lab

    if not os.path.abspath(coco_lab.__file__).startswith(SRC + os.sep):
        raise Fatal(f"coco_lab imported from {coco_lab.__file__}, not from {SRC}")
    return coco_lab


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "coco_lab_threads": os.environ.get("COCO_LAB_THREADS"),
            "machine": platform.machine(), "git_commit": git_commit()}


def measure_setup(workload, seed) -> list:
    """(set-up seconds, slowness) from fresh interpreters, each bracketed by
    calibrations in this process; the first probe, which also writes the
    bytecode caches, is discarded."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--workload", workload.name, "--seed", str(seed)]
    times = []
    before = calibrate.kernel_times()
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise Fatal(f"set-up probe failed:\n{proc.stderr}")
        after = calibrate.kernel_times()
        if i:
            times.append((float(proc.stdout), calibrate.slowness(before + after)))
        before = after
    return times


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_unit(self, unit):
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


def run_units(workload, seed, seconds, work_root, tally, region=contextlib.nullcontext,
              min_units=MIN_UNITS):
    """Repeat units for ``seconds`` (at least ``min_units``); stops at the first exception."""
    units = []
    deadline = time.perf_counter() + seconds
    before = calibrate.kernel_times()
    while len(units) < min_units or time.perf_counter() < deadline:
        try:
            unit = run_unit(workload, seed, os.path.join(work_root, f"u{len(units)}"), region)
        except Exception:
            tally.check(False, "unit raised:\n" + traceback.format_exc())
            break
        after = calibrate.kernel_times()
        unit.slowness = calibrate.slowness(before + after)
        before = after
        tally.add_unit(unit)
        units.append(unit)
    return units


def check_digests(units, tally, what):
    """Every unit ran the same inputs, so every rounds.csv must be identical."""
    digests = [u.digests for u in units]
    tally.check(all(d == digests[0] for d in digests), f"{what}: rounds.csv digests differ")
    return digests[0] if digests else {}


def load_reference(name):
    try:
        with open(REFERENCE) as f:
            return json.load(f)[name]
    except (OSError, KeyError, ValueError) as exc:
        raise Fatal(f"no reference values for {name} in {REFERENCE}: {exc}") from exc


def reference_check(workload, work_root, tally) -> dict:
    """Run the reference seed once (this also warms caches) and compare its
    summaries with the stored reference values."""
    reference = load_reference(workload.name)
    units = run_units(workload, REFERENCE_SEED, 0.0, work_root, tally, min_units=1)
    if not units:
        raise Fatal("the reference unit raised")
    drift = result_drift(units[0].summaries, reference["summaries"])
    tally.check(drift <= DRIFT_TOL, f"result drift {drift:.3e} above {DRIFT_TOL:g}")
    return {"result_drift": drift, "digests_match": units[0].digests == reference["digests"]}


def unit_rates(units, scaled=True):
    """Rounds per second of each unit, scaled to the reference machine speed."""
    return [u.rounds / u.produce_s * (u.slowness if scaled else 1.0) for u in units]


def outcome_figures(units, drift, tally) -> dict:
    ccv, regret = budget_ratios(units[0].summaries)
    return {"ccv_budget_ratio": ccv, "regret_budget_ratio": regret,
            "result_drift": drift,
            "fail_ratio": tally.failed / tally.attempted if tally.attempted else 1.0}


def end_to_end(workload, seed, seconds, work_root, tally):
    import_library()
    setup = measure_setup(workload, seed)
    ref = reference_check(workload, work_root, tally)
    units = run_units(workload, seed, seconds, work_root, tally)
    if len(units) < MIN_UNITS:
        raise Fatal("a unit raised")
    digests = check_digests(units, tally, "untraced units")
    stats = {"rounds_per_s": summary_stat(unit_rates(units)),
             "setup_s": summary_stat([t / slow for t, slow in setup]),
             "verify_s": summary_stat([u.verify_s / u.slowness for u in units]),
             "peak_rss_mb": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "spread": 0.0, "n": 1}}
    metrics = {k: stats[k]["median"] for k in END_TO_END_UNITS}
    outcomes = outcome_figures(units, ref["result_drift"], tally)
    raw = {"rounds_per_s": summary_stat(unit_rates(units, scaled=False)),
           "setup_s": summary_stat([t for t, _ in setup]),
           "verify_s": summary_stat([u.verify_s for u in units]),
           "slowness": summary_stat([u.slowness for u in units])}
    details = {"stats": stats, "raw": raw, "digests": digests,
               "reference_digests_match": ref["digests_match"],
               "rounds_per_unit": workload.rounds_per_unit, "units": len(units)}
    return metrics, END_TO_END_UNITS, outcomes, details


def per_layer(workload, seed, seconds, work_root, tally):
    import layers
    import tracer as tr

    import_library()
    ref = reference_check(workload, work_root, tally)
    plain = run_units(workload, seed, seconds / 2.0, work_root, tally)
    plain_digests = check_digests(plain, tally, "untraced units")
    tracer = tr.Tracer(keep_durations=tr.KEEP_DURATIONS, cpu_spans=("harness.sweep",))
    try:
        rebound = tr.install(tracer)
        traced = run_units(workload, seed, seconds / 2.0, work_root, tally, tracer.recording)
    finally:
        restored = tracer.restore()
    if len(plain) < MIN_UNITS or len(traced) < MIN_UNITS:
        raise Fatal("a unit raised")
    leftovers = tr.leftover_wrappers()
    tally.check(restored == rebound and not leftovers,
                f"wrapped names not restored: {leftovers}")
    traced_digests = check_digests(traced, tally, "traced units")
    tally.check(traced_digests == plain_digests,
                "traced rounds.csv digests differ from untraced ones")

    metrics, unit_of = span_metrics(tracer, len(traced), tracer.persist_bytes)
    untraced_rate = statistics.median(unit_rates(plain))
    traced_rate = statistics.median(unit_rates(traced))
    metrics["tracing.untraced_rounds_per_s"] = untraced_rate
    metrics["tracing.traced_rounds_per_s"] = traced_rate
    metrics["tracing.overhead_ratio"] = untraced_rate / traced_rate
    unit_of.update(TRACING_UNITS)
    iso, iso_units = iso_metrics(layers.layer_pass(seed))
    metrics.update(iso)
    unit_of.update(iso_units)
    outcomes = outcome_figures(plain, ref["result_drift"], tally)
    metrics.update(outcomes)
    unit_of.update(OUTCOME_UNITS)
    details = {"digests": plain_digests, "traced_digests": traced_digests,
               "reference_digests_match": ref["digests_match"],
               "names_rebound": rebound, "untraced_units": len(plain),
               "traced_units": len(traced)}
    return metrics, unit_of, outcomes, details


# span name -> the statistics reported for it
SPAN_FIGURES = {
    "geometry.intersection_project": ("calls", "self_s", "us_p50", "us_p99"),
    "geometry.intersection_init": ("calls", "self_s"),
    "scenarios.generate": ("calls", "self_s", "us_p50"),
    "scenarios.build_scenario": ("calls", "self_s"),
    "subroutines.ahag_round": ("calls", "self_s", "us_p50", "us_p99"),
    "subroutines.adahedge_step": ("calls", "self_s", "us_p50"),
    "subroutines.adagrad_step": ("calls", "self_s"),
    "coco.round": ("calls", "self_s", "us_p50", "us_p99"),
    "coco.surrogate_subgradient": ("calls", "self_s"),
    "core.decision_set_project": ("calls", "self_s"),
    "core.surrogate_grad_sq_sum": ("calls", "self_s"),
    "harness.run": ("self_s",),
    "harness.persist": ("self_s",),
    "harness.rounds_csv_text": ("self_s",),
    "harness.plotdata_csv_text": ("self_s",),
    "harness.verify_run": ("self_s",),
    "harness.load_run": ("self_s",),
    "cli.main": ("self_s",),
}
FIGURE_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us"}
TRACING_UNITS = {"tracing.untraced_rounds_per_s": "1/s",
                 "tracing.traced_rounds_per_s": "1/s", "tracing.overhead_ratio": "ratio"}


def iso_metrics(layer_figures):
    """Flatten the isolated layer pass into ``iso.<call>.<figure>`` metrics."""
    metrics, unit_of = {}, {}
    for name, figures in layer_figures.items():
        for key, value in figures.items():
            metrics[f"iso.{name}.{key}"] = value
            unit_of[f"iso.{name}.{key}"] = "count" if key == "n" else "us"
    return metrics, unit_of


def span_metrics(tracer, n_units, persist_bytes):
    """Per-layer metrics per traced unit: calls and self seconds are
    averaged over units, percentiles pool every call."""
    import layers

    import tracer as tr

    stats = tracer.stats()
    empty = tr.empty_aggregate()
    metrics, unit_of = {}, {}
    for span, figures in SPAN_FIGURES.items():
        agg = stats.get(span, empty)
        pct = layers.summarize_us(agg["durations"])
        for fig in figures:
            value = agg[fig] / n_units if fig in ("calls", "self_s") else pct[fig]
            metrics[f"{span}.{fig}"] = value
            unit_of[f"{span}.{fig}"] = FIGURE_UNITS[fig]
    ip = stats.get("geometry.intersection_project", empty)
    metrics["geometry.primitive_per_intersection"] = \
        ip["inner"] / ip["calls"] if ip["calls"] else 0.0
    unit_of["geometry.primitive_per_intersection"] = "count"
    metrics["harness.persist.bytes"] = persist_bytes / n_units
    unit_of["harness.persist.bytes"] = "B"
    sw = stats.get("harness.sweep", empty)
    metrics["harness.sweep.wall_s"] = sw["total_s"] / n_units
    unit_of["harness.sweep.wall_s"] = "s"
    # process CPU over the sweep's wall time and threads: ~1/threads when the
    # sweep's threads serialise on the interpreter lock
    metrics["harness.sweep.parallel_efficiency"] = \
        sw["cpu_s"] / (sw["total_s"] * int(SWEEP_THREADS)) if sw["total_s"] else 0.0
    unit_of["harness.sweep.parallel_efficiency"] = "ratio"
    return metrics, unit_of


def print_report(workload, args, env, metrics, unit_of, outcomes, details, tally):
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (seed used by scenario: {workload.seed_used})")
    print("env " + json.dumps(env, sort_keys=True))
    stats = details.get("stats", {})
    rows = [(k, metrics[k], unit_of[k]) for k in metrics]
    if args.trace == 0:
        rows += [(k, outcomes[k], OUTCOME_UNITS[k]) for k in OUTCOME_UNITS]
    for name, value, unit in rows:
        extra = ""
        if name in stats:
            extra = f"  spread {stats[name]['spread']:.4f}  n {stats[name]['n']}"
        print(f"  {name:<48} {value:>16.6g} {unit:<6}{extra}")
    for name, stat in details.get("raw", {}).items():
        print(f"  raw {name:<44} {stat['median']:>16.6g}         "
              f"spread {stat['spread']:.4f}  n {stat['n']}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}")
    for label, digest in details["digests"].items():
        print(f"  rounds.csv {label} sha256 {digest}")
    for problem in tally.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("details " + json.dumps(details, sort_keys=True))


def write_reference(work_root):
    import_library()
    out = {}
    for name, workload in WORKLOADS.items():
        tally = Tally()
        units = run_units(workload, REFERENCE_SEED, 0.0, work_root, tally, min_units=1)
        if tally.failed:
            raise Fatal(f"{name}: reference run failed: {tally.problems}")
        out[name] = {"seed": REFERENCE_SEED, "digests": units[0].digests,
                     "summaries": {k: numeric_fields(s) for k, s in units[0].summaries.items()}}
    with open(REFERENCE, "w") as f:
        json.dump(out, f, sort_keys=True, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    tally = Tally()
    work_root = os.path.join(HERE, "_work", str(os.getpid()))
    try:
        if args.write_reference:
            write_reference(work_root)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        measure = per_layer if args.trace else end_to_end
        metrics, unit_of, outcomes, details = measure(
            workload, args.seed, args.seconds, work_root, tally)
        env = environment()
        env["sweep_threads"] = int(SWEEP_THREADS) if workload.cli else None
    except Fatal as exc:
        for problem in tally.problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_root))
    correct = tally.failed == 0
    print_report(workload, args, env, metrics, unit_of, outcomes, details, tally)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
