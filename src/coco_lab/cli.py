"""Command-line driver.

Verbs: ``run`` a single configuration, ``sweep`` it across horizons,
``report`` (optionally re-deriving every summary number from the persisted
CSV), and ``list-scenarios``.

Exit codes: 0 success, 1 budget violation, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    HarnessError,
    RunConfig,
    _sweep_values,
    loglog_slope,
    run,
    verify_run,
)
from .scenarios import SCENARIOS, ScenarioSpec

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        sc = raw["scenario"]
        spec = ScenarioSpec(
            name=sc["name"],
            horizon=int(sc.get("horizon", 1000)),
            seed=int(overrides.seed if overrides.seed is not None else sc.get("seed", 0)),
            params=dict(sc.get("params", {})),
        )
        horizons = raw.get("horizons")
        if getattr(overrides, "horizons", None):
            horizons = [int(h) for h in overrides.horizons.split(",")]
        return RunConfig(
            scenario=spec,
            algorithm=raw["algorithm"],
            comparators=raw.get("comparators"),
            v=raw.get("v"),
            g_lip=raw.get("g_lip"),
            path_estimate=raw.get("path_estimate"),
            horizons=horizons,
            out_dir=overrides.out if overrides.out is not None else raw.get("out_dir"),
            emit_plotdata=bool(raw.get("emit_plotdata", False)
                               or getattr(overrides, "emit_plotdata", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config {path}: {exc}") from exc


def _cmd_run(args) -> int:
    config = load_config(args.config, args)
    record = run(config)
    print(json.dumps(record.summary, sort_keys=True, indent=2))
    return EXIT_OK if record.summary["all_bounds_satisfied"] else EXIT_BOUND_VIOLATION


def _cmd_sweep(args) -> int:
    config = load_config(args.config, args)
    records, values = _sweep_values(config, args.metric, args.comparator)
    slope = loglog_slope(config.horizons, values)
    out = {
        "metric": args.metric,
        "horizons": config.horizons,
        "values": values,
        "slope": slope,
        "all_bounds_satisfied": all(r.summary["all_bounds_satisfied"] for r in records),
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    if config.out_dir is not None:
        import os

        from .harness import _atomic_write
        _atomic_write(os.path.join(config.out_dir, "sweep.json"),
                      json.dumps(out, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if out["all_bounds_satisfied"] else EXIT_BOUND_VIOLATION


def _cmd_report(args) -> int:
    import os
    path = os.path.join(args.run_dir, "summary.json")
    try:
        with open(path) as f:
            summary = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    print(json.dumps(summary, sort_keys=True, indent=2))
    if args.verify:
        problems = verify_run(args.run_dir)
        if problems:
            for p in problems:
                print(f"VERIFY FAIL: {p}", file=sys.stderr)
            return EXIT_NUMERICAL
        print("verify OK: summary reproduced from rounds.csv")
    return EXIT_OK if summary.get("all_bounds_satisfied", False) else EXIT_BOUND_VIOLATION


def _cmd_list_scenarios(_args) -> int:
    for name in sorted(SCENARIOS):
        doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name}: {doc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coco-lab",
                                     description="constrained online convex optimization lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--emit-plotdata", action="store_true", dest="emit_plotdata")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run across horizons and fit a slope")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--horizons", default=None, help="comma-separated list")
    p_sweep.add_argument("--metric", choices=("ccv", "regret"), default="ccv")
    p_sweep.add_argument("--comparator", default=None)
    p_sweep.add_argument("--emit-plotdata", action="store_true", dest="emit_plotdata")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_report = sub.add_parser("report", help="print a persisted summary")
    p_report.add_argument("run_dir")
    p_report.add_argument("--verify", action="store_true")
    p_report.set_defaults(fn=_cmd_report)

    p_list = sub.add_parser("list-scenarios", help="list available scenarios")
    p_list.set_defaults(fn=_cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarnessError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
