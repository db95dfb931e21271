"""Every case of the ``coco-lab`` command line, written once as data.

A case writes its files into an empty directory and takes its steps there,
in order. A ``Cli`` step runs the command with an argv and checks its exit
code, the fragments its stdout and stderr must hold, and the paths that
must not exist after it. A ``Call`` step calls a named function of the
case's files: an edit of a run directory, or a check that compares files.
Every ``Cli`` step also checks that stderr holds no ``Traceback`` and no
``RuntimeWarning``.

Exit codes: 0 success, 1 budget violation, 2 configuration error,
3 numerical failure.

``tests/test_cli_cases.py`` runs every case in-process through
``cli.main``, where a step that ends in exit code 2 must also play no
round. Run against a command, every case runs in a subprocess:

    python tests/cli_cases.py --command coco-lab
    PYTHONPATH=src python tests/cli_cases.py --command "python -m coco_lab.cli"

It prints each failing case and exits 1 if any case fails. It needs only
the standard library and ``coco_lab``: its scenario names, and
``cli.main`` for the in-process runner.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable
from unittest import mock

from coco_lab import cli, harness
from coco_lab.scenarios import SCENARIOS


@dataclass(frozen=True)
class Cli:
    """Run the command with ``argv``; it must exit with ``code``, print each
    of ``out`` to stdout and each of ``err`` to stderr, and leave none of
    ``absent``. ``err_lines``, if set, is the number of lines stderr has."""

    argv: tuple
    code: int
    out: tuple = ()
    err: tuple = ()
    absent: tuple = ()
    err_lines: int | None = None


@dataclass(frozen=True)
class Call:
    """Call ``fn(*args)`` in the case's directory: an edit of its files, or
    a check of them that raises AssertionError when it fails."""

    fn: Callable
    args: tuple


@dataclass(frozen=True)
class Case:
    name: str
    files: dict = field(default_factory=dict)  # path -> JSON value, or text
    steps: tuple = ()


def call(fn, *args) -> Call:
    return Call(fn, args)


def config(scenario="static", horizon=20, seed=0, algorithm="coco2", params=None, **top) -> dict:
    spec = {"name": scenario, "horizon": horizon, "seed": seed}
    if params is not None:
        spec["params"] = params
    return {"scenario": spec, "algorithm": algorithm, **top}


RUN = ("run", "--config", "c.json")
RUN_OUT = RUN + ("--out", "run")
SWEEP = ("sweep", "--config", "c.json")
VERIFY = ("report", "run", "--verify")
VERIFIED = Cli(VERIFY, 0, out=("verify OK: summary reproduced from rounds.csv",))
SUMMARY = '"all_bounds_satisfied": true'


def rejected(name, cfg, *err, argv=RUN) -> Case:
    """A config that ``argv`` rejects as a configuration error, writing no
    run directory."""
    return Case(name, {"c.json": cfg}, (Cli(argv, 2, err=err, absent=("run",)),))


def damaged(name, edit: Call, code, *err) -> Case:
    """A run of static at T=20, damaged by ``edit``, that verify fails."""
    return Case(name, {"c.json": config()}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)), edit, Cli(VERIFY, code, err=err)))


# ---------------------------------------------------------------------------
# edits of a run directory


def _edit_json(path, change):
    with open(path) as f:
        value = json.load(f)
    change(value)
    with open(path, "w") as f:
        json.dump(value, f)


def _edit_cell(path, column, change, row=5):
    with open(path) as f:
        lines = f.read().splitlines()
    cells = lines[row].split(",")
    i = lines[0].split(",").index(column)
    cells[i] = change(cells[i])
    lines[row] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def add_half_to_f(path):
    _edit_cell(path, "f", lambda cell: repr(float(cell) + 0.5))


def move_f_up_one_ulp(path):
    _edit_cell(path, "f", lambda cell: repr(math.nextafter(float(cell), math.inf)))


def set_x0_to_nan(path):
    _edit_cell(path, "x_0", lambda cell: "nan")


def spoil_one_cell(path):
    _edit_cell(path, "x_0", lambda cell: "oops" + cell, row=3)


def keep_header_only(path):
    with open(path) as f:
        header = f.readline()
    with open(path, "w") as f:
        f.write(header)


def rename_a_column(path):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace(",gplus,", ",g_plus,", 1))


def write_empty_list(path):
    with open(path, "w") as f:
        f.write("[]")


def set_key(path, key, value):
    _edit_json(path, lambda d: d.update({key: value}))


def drop_key(path, key):
    _edit_json(path, lambda d: d.pop(key))


def flip_the_flag(path):
    _edit_json(path, lambda s: s.update(all_bounds_satisfied=not s["all_bounds_satisfied"]))


def add_123_to_final_ccv(path):
    _edit_json(path, lambda s: s.update(final_ccv=s["final_ccv"] + 123.0))


# ---------------------------------------------------------------------------
# checks that compare files


def _summary(run_dir) -> dict:
    with open(os.path.join(run_dir, "summary.json")) as f:
        return json.load(f)


def _text(path) -> str:
    with open(path) as f:
        return f.read()


def reruns_the_same(first, second):
    """``second``, run from ``first``'s config.json, wrote the same files,
    and the same summary.json but for wall_clock_sec."""
    for name in ("rounds.csv", "plotdata.csv", "config.json"):
        assert _text(os.path.join(first, name)) == _text(os.path.join(second, name)), \
            f"{name} differs on rerun"
    a, b = ({k: v for k, v in _summary(d).items() if k != "wall_clock_sec"}
            for d in (first, second))
    assert a == b, "summary.json differs on rerun"


def plotdata_ends_on_the_summary(run_dir):
    """Each plotdata.csv series' last value is the summary's, bit for bit:
    both are read off the same running totals."""
    summary = _summary(run_dir)
    final = {}
    for line in _text(os.path.join(run_dir, "plotdata.csv")).splitlines()[1:]:
        series, _, value = line.split(",")
        final[series] = float(value)  # each series is written in round order
    keys = [k for k in summary if k.startswith(("regret__", "bound_rhs__"))]
    assert any(k.startswith("bound_rhs__") for k in keys), keys
    differ = [k for k in keys if final[k] != summary[k]]
    if final["ccv"] != summary["final_ccv"]:
        differ.append("ccv")
    assert not differ, f"plotdata.csv ends off summary.json on {differ}"


def seeds_differ(first, second):
    """``--seed`` replaced the config's seed: the two runs' rounds differ."""
    assert _text(os.path.join(first, "rounds.csv")) != _text(os.path.join(second, "rounds.csv"))


def sweep_reads(sweep_dir, key):
    """sweep.json's values are each horizon's summary ``key``, and no other
    regret's."""
    with open(os.path.join(sweep_dir, "sweep.json")) as f:
        payload = json.load(f)
    assert payload["horizons"] == [20, 40, 80], payload["horizons"]
    summaries = [_summary(os.path.join(sweep_dir, f"T{h}")) for h in payload["horizons"]]
    assert payload["values"] == [s[key] for s in summaries], (payload["values"], key)
    for other in summaries[0]:
        if other.startswith("regret__") and other != key:
            assert payload["values"] != [s[other] for s in summaries], other


# ---------------------------------------------------------------------------
# the cases

CASES = [
    # the console script end to end; then verify, which recomputes f from
    # the scenario, fails one changed f value, and then a rounds.csv cut
    # to its header
    Case("entry-point", {"c.json": config("tracking-ball", 2000, algorithm="coco1")}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)), VERIFIED,
        call(add_half_to_f, "run/rounds.csv"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: f column mismatch at round 5",)),
        call(keep_header_only, "run/rounds.csv"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: row count 0 != horizon 2000",)))),
    Case("report-and-verify", {"c.json": config(horizon=40)}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)), Cli(("report", "run"), 0, out=(SUMMARY,)), VERIFIED)),
    # config.json holds every field of the run's config: a config that sets
    # each one, rerun from its config.json, writes the same files
    Case("rerun-from-config-json", {"c.json": config(
            "tracking-ball", 300, 4, "coco2", {"ring_radius": 1.0}, v=3.0, g_lip=1.5,
            comparators=["minimizer-path", "center-path"], emit_plotdata=True)}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)),
        Cli(("run", "--config", "run/config.json", "--out", "rerun"), 0, out=(SUMMARY,)),
        call(reruns_the_same, "run", "rerun"))),
    Case("list-scenarios", steps=(
        Cli(("list-scenarios",), 0, out=tuple(f"{name}: " for name in SCENARIOS)),)),
    # verify compares every value to the bit
    Case("one-ulp", {"c.json": config("tracking-ball", 300, algorithm="coco1")}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)), VERIFIED,
        call(move_f_up_one_ulp, "run/rounds.csv"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: f column mismatch at round 5",)))),
    # verify runs run's own clean check and replay: a play that is not
    # finite is one problem, which names the round
    Case("nan-play-names-its-round", {"c.json": config("tracking-ball", 30, 1, "coco1")}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)),
        call(set_x0_to_nan, "run/rounds.csv"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: oracle failure at round 5:",), err_lines=1))),
    # verify rebuilds the whole summary, flags included
    Case("flipped-flag", {"c.json": config()}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)),
        call(flip_the_flag, "run/summary.json"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: all_bounds_satisfied mismatch",)))),
    Case("tampered-summary", {"c.json": config(horizon=40)}, (
        Cli(RUN_OUT, 0, out=(SUMMARY,)),
        call(add_123_to_final_ccv, "run/summary.json"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: final_ccv mismatch",)),
        # 3 before 2: with --verify, a flag that is not a bool is a mismatch
        call(set_key, "run/summary.json", "all_bounds_satisfied", "no"),
        Cli(VERIFY, 3, err=("VERIFY FAIL: all_bounds_satisfied mismatch",)))),
    # report reads the flag alone: a violation is 1, and a flag that is
    # missing or not a bool is neither a violation nor a pass
    Case("report-a-violation", {"run/summary.json": {"all_bounds_satisfied": False}}, (
        Cli(("report", "run"), 1, out=('"all_bounds_satisfied": false',)),)),
    *(Case(f"report-{name}", {"run/summary.json": summary}, (
        Cli(("report", "run"), 2, err=(message,)),))
      for name, summary, message in (
          ("a-summary-without-the-flag", {}, "summary.json has no all_bounds_satisfied"),
          ("a-flag-that-is-not-a-bool", {"all_bounds_satisfied": "no"},
           "summary.json's all_bounds_satisfied must be true or false, got 'no'"))),
    Case("report-a-missing-run", steps=(
        Cli(("report", "run"), 2, err=("config error: cannot read run/summary.json",)),)),
    # summary.json and plotdata.csv are read off the same running totals
    Case("plotdata-ends-on-the-summary", {"c.json": config("tracking-ball", 2000,
                                                          algorithm="adagrad")}, (
        Cli(RUN_OUT + ("--emit-plotdata",), 0, out=(SUMMARY,)),
        call(plotdata_ends_on_the_summary, "run"))),
    # a sweep that writes every artifact, then report --verify on each run
    Case("sweep-and-verify", {"c.json": config("oco-mix", 2000, algorithm="adagrad")}, (
        Cli(("sweep", "--config", "c.json", "--horizons", "125,500,2000", "--out", "sw",
             "--emit-plotdata", "--metric", "regret", "--comparator", "static-center"), 0,
            out=('"slope":',)),
        *(Cli(("report", f"sw/T{h}", "--verify"), 0, out=("verify OK",))
          for h in (125, 500, 2000)))),
    # regret with no --comparator is each horizon's regret against the
    # scenario's first comparator by name: static's interior-static, whose
    # regrets are negative and so fit no slope
    Case("sweep-ccv-and-regret", {"c.json": config(horizon=40, horizons=[20, 40, 80])}, (
        Cli(SWEEP + ("--out", "sw", "--metric", "ccv"), 0, out=('"slope":',)),
        call(sweep_reads, "sw", "final_ccv"),
        Cli(SWEEP + ("--out", "rg", "--metric", "regret"), 0, err=("degenerate",)),
        call(sweep_reads, "rg", "regret__interior-static"))),
    Case("seed-override", {"c.json": config("tracking-ball", 30)}, (
        Cli(RUN + ("--out", "s5", "--seed", "5"), 0, out=(SUMMARY,)),
        Cli(RUN + ("--out", "s6", "--seed", "6"), 0, out=(SUMMARY,)),
        call(seeds_differ, "s5", "s6"))),
    # a damaged run directory: verify fails it (3), or cannot read it (2)
    damaged("header-only", call(keep_header_only, "run/rounds.csv"), 3,
            "VERIFY FAIL: row count 0 != horizon 20"),
    damaged("unparsable", call(spoil_one_cell, "run/rounds.csv"), 3,
            "VERIFY FAIL: rounds.csv does not parse"),
    damaged("renamed-column", call(rename_a_column, "run/rounds.csv"), 3,
            "VERIFY FAIL: rounds.csv columns"),
    damaged("summary-without-key", call(drop_key, "run/summary.json", "dimension"), 3,
            "VERIFY FAIL: dimension missing from summary.json"),
    *(damaged(f"missing-{file}", call(os.remove, f"run/{file}"), 2, "config error: cannot read")
      for file in ("rounds.csv", "config.json")),
    *(damaged(f"{name}-list", call(write_empty_list, f"run/{name}.json"), 2,
              "does not hold a JSON object") for name in ("summary", "config")),
    damaged("unknown-scenario", call(set_key, "run/config.json", "scenario",
                                     {"name": "nope", "horizon": 20, "seed": 0}), 2,
            "config error: bad scenario"),
    damaged("config-without-algorithm", call(drop_key, "run/config.json", "algorithm"), 2,
            "config error: bad config"),
    damaged("config-negative-v", call(set_key, "run/config.json", "v", -1), 2,
            "config error: v must be a finite number > 0"),
    damaged("scenario-that-is-not-an-object-in-config-json",
            call(set_key, "run/config.json", "scenario", "static"), 2,
            "scenario must be a JSON object, got 'static'"),

    # a g_lip of 1e200 overflows the learner's squared gradient-norm sum:
    # a numerical failure that names its round, with no numpy warning
    *(Case(f"overflow-{algorithm}-names-its-round",
           {"c.json": config(horizon=50, algorithm=algorithm, g_lip=1e200)}, (
               Cli(RUN, 3, err=(f"numerical failure: oracle failure at round {round_}:",)),))
      for algorithm, round_ in (("coco1", 2), ("coco2", 1))),
    # the input that no learner or budget can take: a budget that overflows or
    # is not finite is a numerical failure and writes no summary.json; a learner
    # whose default V or step size overflows, or a scenario whose angles or
    # squared diameter overflow, is a configuration error
    *(Case(f"extreme-{name}", {"c.json": cfg}, (
        Cli(RUN_OUT, code, err=(message,), absent=("run/summary.json",)),))
      for name, code, cfg, message in (
          ("coco2-budget-overflows", 3, config("trivial", 1, params={"g_lip": 1e154}),
           "summary value bound_rhs__static-center is not finite: inf"),
          ("adagrad-budget-nan", 3,
           config("disjoint-alternating", 7, 3, "adagrad", path_estimate=1e308),
           "summary value bound_rhs__min-feasible-path is not finite: nan"),
          ("coco2-v-inf", 2, config("trivial", params={"g_lip": 1e308}),
           "cannot build the coco2 learner with g_lip 1e+308: V must be"),
          ("coco1-step-overflows", 2,
           config("alternating", 50, algorithm="coco1", params={"radius": 1e300}),
           "step numerator (D+1) sqrt(1+P) overflows"),
          ("coco1-oco-mix-step-overflows", 2,
           config("oco-mix", 50, algorithm="coco1", params={"set_radius": 1e300}),
           "step numerator (D+1) sqrt(1+P) overflows"),
          ("tracking-ball-angle-inf", 2,
           config("tracking-ball", 50, algorithm="coco1", params={"ring_loops": 1e308}),
           "param ring_loops makes angles that overflow"),
          ("tracking-ball-extent-inf", 2, config("tracking-ball", algorithm="adagrad", params={
              "set_radius": 1e300, "ring_radius": 1e299}),
           "param set_radius makes a decision set whose squared diameter overflows, got 1e+300"))),

    # configuration errors: exit code 2, raised before any round is played
    rejected("not-json", "{not json", "config error: cannot read c.json"),
    rejected("unknown-algorithm", config(algorithm="nope"), "unknown algorithm 'nope'"),
    *(rejected(f"g_lip={g_lip}", config(g_lip=g_lip),
               f"g_lip must be a finite Lipschitz bound >= 1, got {g_lip!r}")
      for g_lip in (0, -1, 0.001, 0.999)),
    rejected("g_lip=[1]", config(g_lip=[1]), "g_lip"),
    *(rejected(f"g_lip-{name}", cfg, "g_lip must be a finite Lipschitz bound", argv=RUN_OUT)
      for name, cfg in (
          ("top-bool", config(g_lip=True)), ("top-string", config(g_lip="2.0")),
          ("param-bool", config(params={"g_lip": True})),
          ("param-string", config(params={"g_lip": "2.0"})))),
    # g_lip may restate the scenario's params g_lip, as config.json does
    Case("g_lip-that-disagrees-with-the-scenario", {
        "c.json": config(params={"g_lip": 3.0}, g_lip=2.0),
        "agrees.json": config(params={"g_lip": 3.0}, g_lip=3.0)}, (
        Cli(RUN_OUT, 2, err=("g_lip 2.0 disagrees with the scenario's params g_lip 3.0",),
            absent=("run",)),
        Cli(("run", "--config", "agrees.json"), 0, out=(SUMMARY,)))),
    # only sweep reads horizons; sweep runs that same config
    Case("run-with-horizons", {"c.json": config(horizon=40, horizons=[20, 40, 80])}, (
        Cli(RUN, 2, err=("only sweep reads horizons",)),
        Cli(SWEEP, 0, out=('"slope":',)))),
    *(rejected(f"horizons={json.dumps(horizons)}", config(horizons=horizons),
               "horizons must be integers",
               argv=SWEEP) for horizons in ([10.5, 20, 40], [10, "20", 40], [True, 20, 40])),
    *(rejected(f"horizons={json.dumps(horizons)}", config(horizons=horizons),
               "horizons must be positive",
               argv=SWEEP) for horizons in ([0, 20, 40], [-5, 20, 40])),
    rejected("horizons-flag-that-is-not-integers", config(), "--horizons",
             argv=SWEEP + ("--horizons", "10,x,40")),
    Case("sweep-unknown-comparator", {"c.json": config(horizon=40, horizons=[20, 40, 80])}, (
        Cli(SWEEP + ("--out", "sw", "--metric", "regret", "--comparator", "nope"), 2,
            err=("unknown comparator 'nope'",), absent=("sw",)),)),
    *(rejected(f"emit_plotdata={json.dumps(value)}", config(emit_plotdata=value),
               "emit_plotdata must be true or false", argv=RUN_OUT)
      for value in ("false", 0, 1, None, [True])),
    *(rejected(f"{key}={json.dumps(value)}", config(**{key: value}), message)
      for key, value, message in (
          ("out_dir", 5, "out_dir must be a path, got int 5"),
          ("out_dir", ["runs"], "out_dir must be a path, got list ['runs']"),
          ("out_dir", "", "out_dir must be a path, got str ''"),
          ("comparators", "interior-static",
           "comparators must be a list of names, got str 'interior-static'"),
          ("comparators", {"interior-static": 1}, "comparators must be a list of names, got dict"),
          ("comparators", ["interior-static", 3],
           "comparators must be a list of names, got list"))),
    # a learner knob that would crash the learner or that it would ignore
    *(rejected(f"coco2-v={json.dumps(v)}", config(v=v), "v must be a finite number > 0")
      for v in (-1, 0, "x", math.nan, True)),
    *(rejected(f"adagrad-path_estimate={json.dumps(p)}",
               config(algorithm="adagrad", path_estimate=p),
               "path_estimate must be a finite number >= 0") for p in (-1, "x", math.inf)),
    rejected("coco1-v=2.0", config(algorithm="coco1", v=2.0),
             "v applies only to coco2, not coco1"),
    rejected("ahag-path_estimate=3.0", config(algorithm="ahag", path_estimate=3.0),
             "path_estimate applies only to adagrad, not ahag"),
    *(Case(f"{algorithm}-{knob}={value}-runs",
           {"c.json": config(horizon=40, algorithm=algorithm, **{knob: value})},
           (Cli(RUN, 0, out=(f'"{knob}": {float(value)!r}',)),))
      for algorithm, knob, value in (("coco2", "v", 2.0), ("adagrad", "path_estimate", 0),
                                     ("adagrad", "path_estimate", 3.0))),
    # a horizon or seed that is not an integer is not a run of the truncated
    # value; a negative seed ran static, and failed tracking-ball with
    # numpy's message, which named no field
    *(rejected(f"{key}={json.dumps(value)}", config(**{key: value}),
               f"{key} must be an integer")
      for key, value in (("horizon", 20.7), ("horizon", 20.0), ("horizon", True),
                         ("horizon", "20"), ("seed", 1.9), ("seed", False))),
    rejected("horizon=20.7-seed=1.9", config(horizon=20.7, seed=1.9),
             "horizon must be an integer"),
    *(rejected(f"{name}-{key}={value}", config(name, **{key: value}), message)
      for name in ("static", "tracking-ball")
      for key, value, message in (("seed", -1, "seed must be non-negative, got -1"),
                                  ("horizon", 0, "horizon must be at least 1"))),
    *(rejected(f"{name}-unknown-params", config(name, params=params),
               f"unknown params {sorted(params)}")
      for name, params in (("static", {"bogus": 1}), ("tracking-ball", {"ring_radiuss": 1.0}),
                           ("trivial", {"radius": 2.0}))),
    *(rejected(f"params={json.dumps(params)}", {"scenario": {"name": "static", "horizon": 20,
                                                   "params": params}, "algorithm": "coco2"},
               f"params must be a JSON object, got {params!r}")
      for params in (None, [["radius", 2.0]])),
    # json writes inf as Infinity, which it reads back as inf, and so is
    # 1e400 read
    rejected("static-radius=1e400", '{"scenario": {"name": "static", "horizon": 20, "seed": 0, '
             '"params": {"radius": 1e400}}, "algorithm": "coco2"}',
             "param radius must be a finite number, got inf"),
    *(rejected(f"{name}-params={json.dumps(params)}", config(name, params=params), message)
      for name, params, message in (
          ("static", {"radius": math.inf}, "param radius must be a finite number, got inf"),
          ("oco-mix", {"set_radius": math.inf},
           "param set_radius must be a finite number, got inf"),
          ("tracking-ball", {"set_radius": math.inf},
           "param set_radius must be a finite number, got inf"),
          ("static", {"radius": True}, "param radius must be a finite number, got True"),
          ("tracking-ball", {"ball_radius": 0}, "param ball_radius must be positive, got 0"),
          ("tracking-ball", {"ball_radius": -1}, "param ball_radius must be positive, got -1"),
          ("tracking-ball", {"ring_radius": 2.5},
           "feasible balls must stay inside the decision set"))),
    rejected("scenario-that-is-not-an-object", {"scenario": "static", "algorithm": "coco2"},
             "scenario must be a JSON object, got 'static'"),
    # a misspelt key would otherwise run with the default it meant to replace
    rejected("unknown-top-level-key", config(V=3.0),
             "unknown config keys ['V']; config reads scenario, algorithm, comparators, v,"),
    rejected("misspelt-horizn", {"scenario": {"name": "static", "horizn": 20, "seed": 0},
                                 "algorithm": "coco2"},
             "unknown scenario keys ['horizn']; scenario reads name, horizon, seed, params"),
]
# coco1 projects onto a round's feasible set only on rounds whose play
# violates the constraint: it runs, and verifies, on every scenario
CASES += [Case(f"coco1-{name}-verified", {"c.json": config(name, 500, algorithm="coco1")},
               (Cli(RUN_OUT, 0, out=(SUMMARY,)), VERIFIED)) for name in sorted(SCENARIOS)]


# ---------------------------------------------------------------------------
# the runner


@contextlib.contextmanager
def _working_directory(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _in_process(argv):
    """``cli.main(argv)``'s exit code, stdout and stderr, and whether it
    played a round. A warning it raises is written to stderr, and an
    exception that leaves it is written there as its traceback, as a
    subprocess would print them."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(harness, "_play", wraps=harness._play) as play, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except Exception:  # a failure of the case, which stderr's check reports
            traceback.print_exc()
            code = None
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue(), play.called


def _subprocess(command, argv, env):
    result = subprocess.run([*command, *argv], capture_output=True, text=True, env=env,
                            timeout=600)
    return result.returncode, result.stdout, result.stderr, False


def _step_failures(step: Cli, code, out, err, played) -> list:
    failures = [] if code == step.code else [f"exit code {code}, expected {step.code}"]
    failures += [f"stdout lacks {f!r}" for f in step.out if f not in out]
    failures += [f"stderr lacks {f!r}" for f in step.err if f not in err]
    failures += [f"stderr holds {word}" for word in ("Traceback", "RuntimeWarning")
                 if word in err]
    failures += [f"{p} exists" for p in step.absent if os.path.exists(p)]
    if step.err_lines is not None and len(err.splitlines()) != step.err_lines:
        failures.append(f"stderr has {len(err.splitlines())} lines, expected {step.err_lines}")
    if played and step.code == 2:
        failures.append("a round was played before the configuration error")
    if failures and err:
        failures.append(f"stderr was:\n{err}")
    return failures


def run_case(case: Case, directory: str, command=None) -> list:
    """Take ``case``'s steps in ``directory``, an empty directory, and return
    the failures of its first failing step, each a line that names the case
    and the step. ``command`` is the argv prefix to run, for example
    ``["coco-lab"]``; ``None`` runs ``cli.main`` in this process."""
    # the steps run in ``directory``, where a relative PYTHONPATH would
    # name nothing
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)}
    with _working_directory(directory):
        for path, content in case.files.items():
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as f:
                f.write(content if isinstance(content, str) else json.dumps(content))
        for i, step in enumerate(case.steps, 1):
            if isinstance(step, Call):
                what = f"{step.fn.__name__}{step.args}"
                try:
                    step.fn(*step.args)
                    failures = []
                except Exception as exc:  # the case fails; the table runs on
                    failures = [f"{type(exc).__name__}: {exc}"]
            else:
                what = " ".join(step.argv)
                result = _in_process(step.argv) if command is None \
                    else _subprocess(command, step.argv, env)
                failures = _step_failures(step, *result)
            if failures:
                return [f"{case.name}: step {i} ({what}): {f}" for f in failures]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True, type=shlex.split,
                        help='the command to run, for example "coco-lab"')
    args = parser.parse_args(argv)
    failed = []
    for case in CASES:
        with tempfile.TemporaryDirectory(prefix="coco-cli-case-") as directory:
            failures = run_case(case, directory, args.command)
        print("\n".join(failures) if failures else f"ok {case.name}", flush=True)
        if failures:
            failed.append(case.name)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases passed")
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
