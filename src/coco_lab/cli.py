"""Command-line driver.

Verbs: ``run`` a single configuration, ``sweep`` it across horizons,
``report`` (optionally re-deriving every summary number from the persisted
CSV), and ``list-scenarios``.

Exit codes: 0 success, 1 budget violation, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .harness import (
    ConfigError,
    HarnessError,
    RunConfig,
    _atomic_write,
    _read_json,
    _sweep_values,
    loglog_slope,
    run,
    verify_run,
)
from .scenarios import SCENARIOS

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def load_config(path: str, args: argparse.Namespace) -> RunConfig:
    """``path``'s configuration under the command line's overrides."""
    return RunConfig.from_json(_read_json(path), seed=args.seed, out_dir=args.out,
                               horizons=getattr(args, "horizons", None),
                               emit_plotdata=args.emit_plotdata or None)


def _horizon_list(text: str) -> list:
    return [int(h) for h in text.split(",")]


def _cmd_run(args) -> int:
    config = load_config(args.config, args)
    if config.horizons is not None:
        raise ConfigError("run plays the scenario's one horizon; only sweep reads horizons")
    record = run(config)
    print(json.dumps(record.summary, sort_keys=True, indent=2))
    return EXIT_OK if record.summary["all_bounds_satisfied"] else EXIT_BOUND_VIOLATION


def _cmd_sweep(args) -> int:
    config = load_config(args.config, args)
    records, values = _sweep_values(config, args.metric, args.comparator)
    ok = all(r.summary["all_bounds_satisfied"] for r in records)
    text = json.dumps({"metric": args.metric, "horizons": config.horizons, "values": values,
                       "slope": loglog_slope(config.horizons, values),
                       "all_bounds_satisfied": ok}, sort_keys=True, indent=2)
    print(text)
    if config.out_dir is not None:
        _atomic_write(os.path.join(config.out_dir, "sweep.json"), text + "\n")
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def _cmd_report(args) -> int:
    summary = _read_json(os.path.join(args.run_dir, "summary.json"))
    print(json.dumps(summary, sort_keys=True, indent=2))
    if args.verify:
        problems = verify_run(args.run_dir)
        if problems:
            for p in problems:
                print(f"VERIFY FAIL: {p}", file=sys.stderr)
            return EXIT_NUMERICAL
        print("verify OK: summary reproduced from rounds.csv")
    # after verify, whose exit code 3 names a tampered run first
    if "all_bounds_satisfied" not in summary:
        raise ConfigError("summary.json has no all_bounds_satisfied")
    ok = summary["all_bounds_satisfied"]
    if not isinstance(ok, bool):
        raise ConfigError(f"summary.json's all_bounds_satisfied must be true or false, got {ok!r}")
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def _cmd_list_scenarios(_args) -> int:
    for name in sorted(SCENARIOS):
        doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name}: {doc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coco-lab",
                                     description="constrained online convex optimization lab")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that run and sweep share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True)
    shared.add_argument("--out", default=None)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--emit-plotdata", action="store_true", dest="emit_plotdata")

    p_run = sub.add_parser("run", parents=[shared], help="execute one configuration")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="run across horizons and fit a slope")
    p_sweep.add_argument("--horizons", type=_horizon_list, default=None,
                         help="comma-separated list")
    p_sweep.add_argument("--metric", choices=("ccv", "regret"), default="ccv")
    p_sweep.add_argument("--comparator", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_report = sub.add_parser("report", help="print a persisted summary")
    p_report.add_argument("run_dir")
    p_report.add_argument("--verify", action="store_true")
    p_report.set_defaults(fn=_cmd_report)

    p_list = sub.add_parser("list-scenarios", help="list available scenarios")
    p_list.set_defaults(fn=_cmd_list_scenarios)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
