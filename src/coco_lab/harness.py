"""Run driver: execute algorithm x scenario, evaluate every budget
inequality, persist plot-ready artifacts, and fit sublinearity slopes.

Artifacts per run directory:

* ``rounds.csv``  -- header ``t,x_0..x_{d-1},f,g,gplus,Q,grad_norm_surrogate``
* ``summary.json`` -- flat snake_case summary (metrics, budgets, flags)
* ``config.json``  -- echo of the run configuration (used by verification)
* ``plotdata.csv`` -- optional long-format ``series,t,value`` trajectories

Files are written atomically (temp file + rename), with the permissions
``open`` would give them, and the CSVs go out ``ORACLE_BLOCK`` rows at a
time. Reruns of an identical configuration produce byte-identical CSVs.

A run's record is a set of columns (``RunRecord``), and ``_play`` is the one
pass that fills it. Each round writes only the learner's play x_t and the
norm of the gradient it stepped on. ``_play`` takes a block of
``ORACLE_BLOCK`` rounds, then its costs and constraints from the scenario
as one ``OracleStack`` each (``Scenario.oracle_block``, which a built-in
scenario reads off its own arrays): the stacks give f and g at the plays,
from which the record derives gplus and Q, and every comparator's cost and
feasibility. A block that raises, or shows a non-finite value or an
infeasible comparator, is replayed round by round with ``generate(t)``'s
own oracles, which names the first failure. The record carries its
running sums on block by block, which the summary and ``plotdata.csv``
read. ``run`` has its learner play each block first; ``verify_run`` loads
``rounds.csv``'s plays and gradient norms into a record and makes the same
pass, so a play that is not finite fails it as it fails a run, and
rebuilds the summary from that record.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import budgets
from .coco import Coco1State, Coco2State, coco1_round, coco2_round
from .core import FEASIBILITY_TOL, RunRecord, is_finite_real, is_integer
from .geometry import membership
from .scenarios import Scenario, ScenarioSpec, build_scenario
from .subroutines import KNOWN_PATH, AdaGradState, AhagState, adagrad_step, ahag_round

ALGORITHMS = ("adagrad", "ahag", "coco1", "coco2")
# rounds whose oracles are held at once while comparators are scored, so a
# run's memory does not grow with its horizon; measured, the kernels' time
# per round is lowest near this size
ORACLE_BLOCK = 256


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class HarnessError(RuntimeError):
    """Numerical or oracle failure during a run (CLI exit code 3)."""


@dataclass
class RunConfig:
    scenario: ScenarioSpec
    algorithm: str
    comparators: list | None = None
    v: float | None = None
    g_lip: float | None = None
    path_estimate: float | None = None
    horizons: list | None = None
    out_dir: str | None = None
    emit_plotdata: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.horizons is not None:
            hs = list(self.horizons)
            if not all(is_integer(h) for h in hs):
                raise ConfigError(f"horizons must be integers, got {hs}")
            if any(h2 <= h1 for h1, h2 in zip(hs, hs[1:])):
                raise ConfigError("horizons must be strictly increasing")
            if any(h < 1 for h in hs):
                raise ConfigError("horizons must be positive")
            self.horizons = hs
        # each learner knob belongs to one algorithm: V to coco2, the path
        # estimate to adagrad
        for name, owner, sign in (("v", "coco2", "> 0"), ("path_estimate", "adagrad", ">= 0")):
            value = getattr(self, name)
            if value is None:
                continue
            if self.algorithm != owner:
                raise ConfigError(f"{name} applies only to {owner}, not {self.algorithm}")
            if not is_finite_real(value) or value < 0 or (value == 0 and name == "v"):
                raise ConfigError(f"{name} must be a finite number {sign}, got {value!r}")
        if self.comparators is not None and (
                not isinstance(self.comparators, (list, tuple))
                or not all(isinstance(name, str) for name in self.comparators)):
            raise ConfigError("comparators must be a list of names, got "
                              f"{type(self.comparators).__name__} {self.comparators!r}")
        if self.out_dir is not None and (not isinstance(self.out_dir, (str, os.PathLike))
                                         or not os.fspath(self.out_dir)):
            raise ConfigError("out_dir must be a path, got "
                              f"{type(self.out_dir).__name__} {self.out_dir!r}")
        if not isinstance(self.emit_plotdata, bool):
            raise ConfigError(f"emit_plotdata must be true or false, got {self.emit_plotdata!r}")
        if self.g_lip is not None:
            # an explicit override becomes the scenario's g_lip, the run's
            # one Lipschitz bound: coco1's penalty and every budget read it.
            # config.json holds it in both places, so equal values load
            given = self.scenario.params.get("g_lip", self.g_lip)
            if given != self.g_lip:
                raise ConfigError(f"g_lip {self.g_lip!r} disagrees with the scenario's "
                                  f"params g_lip {given!r}; set one, or both equal")
            self.scenario = replace(self.scenario,
                                    params={**self.scenario.params, "g_lip": self.g_lip})

    @classmethod
    def from_json(cls, raw, **overrides) -> RunConfig:
        """The configuration a parsed ``config.json`` holds, a user's or the
        one ``persist`` writes. Its keys are this class's fields and its
        ``scenario`` object's keys ``ScenarioSpec``'s; a key left out takes
        its field's default, and each field checks its own value. Each
        override that is not None replaces its field (``seed``, the
        scenario's seed)."""
        overrides = {k: v for k, v in overrides.items() if v is not None}
        try:
            _check_keys("config", raw, [f.name for f in fields(cls)])
            sc = raw["scenario"]
            if not isinstance(sc, dict):
                raise ConfigError(f"scenario must be a JSON object, got {sc!r}")
            _check_keys("scenario", sc, [f.name for f in fields(ScenarioSpec)])
            if "seed" in overrides:
                sc = {**sc, "seed": overrides.pop("seed")}
            return cls(**{**raw, "scenario": ScenarioSpec(**sc), **overrides})
        except ConfigError:
            raise
        except ValueError as exc:  # a field's own check, which names the value
            raise ConfigError(str(exc)) from exc
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad config: {exc!r}") from exc


def _check_keys(where: str, raw: dict, known: list):
    """A key that nothing reads is a configuration error, not a silent default."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}; {where} reads {', '.join(known)}")


def _resolve_comparators(config: RunConfig, scenario: Scenario) -> dict:
    available = scenario.comparators()
    names = config.comparators if config.comparators is not None else list(available)
    if not names:
        raise ConfigError("at least one comparator must be registered")
    missing = [n for n in names if n not in available]
    if missing:
        raise ConfigError(f"unknown comparators {missing}; scenario offers {sorted(available)}")
    return {n: available[n] for n in names}


def _build_scenario(spec: ScenarioSpec) -> Scenario:
    try:
        return build_scenario(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def run(config: RunConfig) -> RunRecord:
    """Execute one run and return its record; persists when out_dir is set."""
    scenario = _build_scenario(config.scenario)
    comparators = _resolve_comparators(config, scenario)
    for name, comp in comparators.items():
        if comp.points.shape != (scenario.horizon, scenario.dimension):
            raise ConfigError(f"comparator {name!r} has wrong shape {comp.points.shape}")
        if not np.all(membership(comp.points, scenario.decision_set.geometry, tol=1e-8)):
            raise ConfigError(f"comparator {name!r} leaves the decision set")

    t0 = time.perf_counter()
    record = RunRecord(scenario.dimension, scenario.horizon, comparators)
    state = _init_state(config, scenario)
    _play(scenario, record, config.algorithm, state)
    summary = _summarize(config, scenario, state, record)
    summary["wall_clock_sec"] = time.perf_counter() - t0
    record.summary = summary
    if config.out_dir is not None:
        persist(record, config, config.out_dir)
    return record


# an overflow (a gradient near 1e200 squared) is reported by the finiteness
# checks as a numerical failure, not as a numpy warning
@np.errstate(over="ignore")
def _play(scenario: Scenario, record: RunRecord, algorithm: str | None = None, state=None):
    """Fill every row of ``record``, one block of rounds at a time (see the
    module docstring). With ``algorithm``, its learner (``state``) plays each
    round of a block first; without, the x and gradient-norm rows are
    already written. Raises a block's first failure as a ``HarnessError``."""
    step = None if algorithm is None else _round_step(algorithm)
    meta = algorithm in ("coco1", "coco2")
    xs, norms = record.x, record.grad_norm
    for start in range(1, len(xs) + 1, ORACLE_BLOCK):
        played = cause = None
        stop = min(start + ORACLE_BLOCK, len(xs) + 1)
        for t in range(start, stop if step else start):
            try:
                xs[t - 1], norms[t - 1] = step(state, *scenario.generate(t))
            except Exception as exc:
                played, stop = exc, t
                break
        rows = slice(start - 1, stop - 1)
        try:
            costs, constraints = scenario.oracle_block(start, stop)
            f, g = costs.values(xs[rows]), constraints.values(xs[rows])
            comparator_costs = {name: costs.values(comp.points[rows])
                                for name, comp in record.comparators.items()}
            # the conditions the replay raises on; a NaN constraint value at
            # a comparator is not a violation in either
            clean = played is None and np.isfinite(
                np.concatenate((f, g, *comparator_costs.values()))).all()
            clean = clean and not any(
                (constraints.values(comp.points[rows]) > FEASIBILITY_TOL).any()
                for comp in record.comparators.values())
        except Exception as exc:
            clean, cause = False, exc
        if not clean:
            _raise_first_failure(scenario, record, start, stop, played, cause)
        for name, values in comparator_costs.items():
            record.comparator_costs[name][rows] = values
        try:
            record.fill(f, g, state.q if meta else None)
        except ValueError as exc:
            raise HarnessError(str(exc)) from exc


def _raise_first_failure(scenario: Scenario, record: RunRecord, start: int, stop: int,
                         played, cause):
    """Raise the first failure of a block whose evaluation showed one, found
    by replaying rounds ``start <= t < stop`` with ``generate(t)``'s own
    oracles. Within a round: the learner's f raises, g raises, g is not
    finite, f is not finite; then each comparator in order, its cost raising
    or not finite before its feasibility. After those rounds comes
    ``played``, what the learner's step at round ``stop`` raised, if
    anything. A replay that finds none of these leaves only a kernel that
    disagrees with its rounds' oracles: ``cause`` is what it raised, if
    anything."""
    for t in range(start, stop):
        cost, constraint = scenario.generate(t)
        try:
            f = float(cost.value(record.x[t - 1]))
            g = float(constraint.value(record.x[t - 1]))
            if not math.isfinite(g):
                raise ValueError("constraint value must be finite")
            if not math.isfinite(f):
                raise ValueError(f"non-finite cost f(x_t) = {f}")
            for name, comp in record.comparators.items():
                value = float(cost.value(comp.points[t - 1]))
                if not math.isfinite(value):
                    raise ValueError(f"non-finite cost {value} at comparator {name!r}")
                if float(constraint.value(comp.points[t - 1])) > FEASIBILITY_TOL:
                    raise HarnessError(f"comparator {name!r} marked feasible violates round {t}")
        except HarnessError:
            raise
        except Exception as exc:
            raise HarnessError(f"oracle failure at round {t}: {exc}") from exc
    if played is not None:
        raise HarnessError(f"oracle failure at round {stop}: {played}") from played
    raise HarnessError(f"oracle kernels disagree with the oracles of rounds {start}..{stop - 1}"
                       ) from cause


def _round_step(algorithm: str):
    """``step(state, cost, constraint) -> (x_t, gradient norm)``: one round
    of ``algorithm``, which plays x_t and steps on a gradient. The plain OCO
    subroutines ignore the constraint for their update; the violation they
    incur is still recorded."""
    if algorithm == "coco1":
        return lambda state, cost, constraint: coco1_round(state, cost, constraint)[1:]
    if algorithm == "coco2":
        return lambda state, cost, constraint: coco2_round(state, cost, constraint)[1:]
    if algorithm == "ahag":
        return lambda state, cost, constraint: (
            ahag_round(state, cost)[1], math.sqrt(state.experts.last_grad_sq))

    def step(state, cost, constraint):
        x = state.point
        adagrad_step(state, np.asarray(cost.subgradient(x), dtype=float))
        return x, math.sqrt(state.last_grad_sq)
    return step


def _init_state(config: RunConfig, scenario: Scenario):
    """The learner's state; one that cannot be built (a step size or a
    default V that overflows) is a configuration error."""
    ds, T, g = scenario.decision_set, scenario.horizon, scenario.g_lip
    try:
        if config.algorithm == "adagrad":
            return AdaGradState(ds, None if config.path_estimate is None
                                else float(config.path_estimate))
        if config.algorithm == "ahag":
            return AhagState.create(ds, T)
        if config.algorithm == "coco1":
            return Coco1State.create(ds, T, g)
        return Coco2State.create(ds, T, g, v=config.v)
    except ValueError as exc:
        raise ConfigError(f"cannot build the {config.algorithm} learner "
                          f"with g_lip {g!r}: {exc}") from exc


def _summarize(config, scenario, state, record: RunRecord) -> dict:
    """The run summary, from the last entries of the record's running sums;
    ``state`` gives only the learner's parameters. A regret budget covers a
    comparator exactly when its path is within the learner's reach (known-
    path descent reaches its estimate, every other learner any path).
    ``feasible__<name>`` is always true: ``_play`` has checked that
    comparator on every round. A summary value that is not finite, such as
    a budget too large for a float, is a ``HarnessError`` that names the
    first one."""
    algo, T = config.algorithm, record.horizon
    grad_sq = record.surrogate_grad_sq_sum()

    def budget(path: float, ccv: bool = False) -> float:
        try:
            return _budget(summary, path, T, grad_sq, ccv)
        except OverflowError:  # a float ``**`` that overflows raises
            return math.inf

    summary = {
        "algorithm": algo,
        "scenario": scenario.name,
        "seed": config.scenario.seed,
        "horizon": T,
        "dimension": scenario.dimension,
        "g_lip": scenario.g_lip,
        "diameter": scenario.decision_set.diameter,
        "final_ccv": float(record.Q[T - 1]),
        "sum_cost": float(record.cost_sum[T - 1]),
        "surrogate_grad_sq_sum": grad_sq,
    }
    if algo == "adagrad":
        summary["mode"] = state.mode
        if state.mode == KNOWN_PATH:
            summary["path_estimate"] = state.path_estimate
    if algo == "coco2":
        summary["v"] = state.v_param
    reach = state.path_estimate + 1e-12 if summary.get("mode") == KNOWN_PATH else math.inf
    flags = []
    for name, comp in record.comparators.items():
        path = comp.path_length
        regret = float(record.regret(name)[-1])
        summary[f"path_length__{name}"] = path
        summary[f"feasible__{name}"] = True
        summary[f"regret__{name}"] = regret
        if path <= reach:
            rhs = budget(path)
            summary[f"bound_rhs__{name}"] = rhs
            ok = regret <= rhs * (1.0 + 1e-12) + 1e-12
            summary[f"bound_ok__{name}"] = bool(ok)
            flags.append(bool(ok))

    ccv_path = (scenario.minimizer_path_length() if algo == "coco1" else
                scenario.feasible_path_length() if algo == "coco2" else None)
    if ccv_path is not None:
        ccv_rhs = budget(ccv_path, ccv=True)
        summary["ccv_bound_path"] = ccv_path
        summary["ccv_bound_rhs"] = ccv_rhs
        ok = summary["final_ccv"] <= ccv_rhs * (1.0 + 1e-12) + 1e-12
        summary["ccv_bound_ok"] = bool(ok)
        flags.append(bool(ok))

    summary["all_bounds_satisfied"] = bool(all(flags)) if flags else True
    bad = next((key for key, value in summary.items()
                if isinstance(value, float) and not math.isfinite(value)), None)
    if bad is not None:
        raise HarnessError(f"summary value {bad} is not finite: {summary[bad]!r}")
    return summary


def _budget(summary: dict, path: float, t: int, grad_sq_sum: float, ccv: bool = False) -> float:
    """Regret budget RHS (CCV budget RHS with ``ccv``) after ``t`` rounds
    against a path of length ``path``, for the run ``summary`` describes.

    ``grad_sq_sum`` is the squared gradient norm accumulated over those
    rounds. The run summary, the plot trajectories and verification all
    evaluate budgets here, on entries of the record's ``S`` column and of
    each comparator's ``path``: a number each for the summary, or arrays of
    every prefix for a trajectory, whose entries have the bits of the
    number (``budgets``).
    """
    algo = summary["algorithm"]
    diam = summary["diameter"]
    if algo == "adagrad":
        if summary["mode"] == KNOWN_PATH:
            return budgets.adagrad_known_path_rhs(diam, summary["path_estimate"], grad_sq_sum)
        return budgets.adagrad_path_free_rhs(diam, path, grad_sq_sum)
    n = budgets.num_experts(diam, summary["horizon"])
    if algo in ("ahag", "coco1"):
        return budgets.ensemble_rhs(diam, n, path, grad_sq_sum)
    gamma = budgets.coco2_gamma(summary["g_lip"], diam, n)
    if ccv:
        return budgets.coco2_ccv_rhs(gamma, summary["v"], summary["g_lip"], diam, path, t)
    return budgets.coco2_regret_rhs(gamma, summary["v"], path, t)


# ---------------------------------------------------------------------------
# persistence

def _atomic_write(path: str, content):
    """Write a file at ``path`` atomically: into a new temporary file beside
    it, renamed over it once complete, so that a reader sees the old file or
    the whole new one. ``content`` is the text, or a function that writes it
    to the open file it is given, so that a long file is never held whole.
    The temporary file is made as ``open`` makes a file, with mode 0o666
    less the umask. If anything fails, the target is left as it was and the
    temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            if callable(content):
                content(f)
            else:
                f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_column(values) -> list:
    """``repr`` of each value as a float: the shortest text that reads back
    to the same double."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _blocks(n: int):
    """Each block of ``ORACLE_BLOCK`` of the first ``n`` rows: its ``slice``
    of the record's columns, and its rounds t."""
    for start in range(0, n, ORACLE_BLOCK):
        stop = min(start + ORACLE_BLOCK, n)
        yield slice(start, stop), range(start + 1, stop + 1)


def _write_blocks(blocks, out):
    """The text of ``blocks`` joined, or, given an open file ``out``, each
    block written to it in turn (and ``None``)."""
    if out is None:
        return "".join(blocks)
    for block in blocks:
        out.write(block)
    return None


def _rounds_columns(d: int) -> list:
    return ["t", *(f"x_{i}" for i in range(d)), "f", "g", "gplus", "Q", "grad_norm_surrogate"]


def rounds_csv_text(record: RunRecord, out=None) -> str | None:
    """The text of ``rounds.csv``: its header, then one row per round. Rows
    are formatted ``ORACLE_BLOCK`` at a time; given an open file ``out``,
    each block is written to it as it is formatted, and nothing is
    returned."""
    def blocks():
        yield ",".join(_rounds_columns(record.dimension)) + "\n"
        for b, ts in _blocks(record.horizon):
            # formatted column by column, then joined by row
            columns = [list(map(str, ts)), *map(_fmt_column, record.x[b].T),
                       *(_fmt_column(c[b]) for c in (record.f, record.g, record.gplus,
                                                     record.Q, record.grad_norm))]
            yield "\n".join(map(",".join, zip(*columns))) + "\n"
    return _write_blocks(blocks(), out)


def plotdata_csv_text(record: RunRecord, out=None) -> str | None:
    """Long-format trajectories of the record's running sums: CCV, regret
    per comparator, and the matching budget RHS evaluated on each prefix.
    Each series ends on its value in the summary, bit for bit. A series
    group (``ccv``, then each comparator's ``regret__`` lines interleaved
    with its ``bound_rhs__`` lines, if it has a budget) is formatted
    ``ORACLE_BLOCK`` rounds at a time; given an open file ``out``, each
    block is written to it as it is formatted, and nothing is returned.
    A block's regret and budget are the elementwise formulas on the block's
    slices, so they have the bits of the whole columns'."""
    def blocks():
        yield "series,t,value\n"
        for b, ts in _blocks(record.horizon):
            yield "\n".join([f"ccv,{t},{v}" for t, v in zip(ts, _fmt_column(record.Q[b]))]) + "\n"
        for name, comp in record.comparators.items():
            budgeted = f"bound_rhs__{name}" in record.summary
            for b, ts in _blocks(record.horizon):
                regret = _fmt_column(record.cost_sum[b] - record.comparator_cost_sum[name][b])
                if budgeted:
                    rhs = _fmt_column(_budget(record.summary, comp.path[b],
                                              np.arange(ts.start, ts.stop), record.S[b]))
                    lines = [f"regret__{name},{t},{v}\nbound_rhs__{name},{t},{w}"
                             for t, v, w in zip(ts, regret, rhs)]
                else:
                    lines = [f"regret__{name},{t},{v}" for t, v in zip(ts, regret)]
                yield "\n".join(lines) + "\n"
    return _write_blocks(blocks(), out)


def persist(record: RunRecord, config: RunConfig, out_dir: str):
    """Write the run's files to ``out_dir``: ``rounds.csv``, ``summary.json``,
    ``plotdata.csv`` if the config asks for it, and ``config.json``, which
    holds every field of ``config`` but the two that only say how it was
    invoked (``horizons`` and ``out_dir``). ``RunConfig.from_json`` reads it
    back to the same config less those two. Each file is written atomically
    (``_atomic_write``); the two CSVs go into it one block of
    ``ORACLE_BLOCK`` rows at a time, so the memory they take does not grow
    with the horizon."""
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "rounds.csv"), lambda f: rounds_csv_text(record, f))
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(record.summary, sort_keys=True, indent=2, allow_nan=False) + "\n")
    cfg = asdict(config)
    del cfg["horizons"], cfg["out_dir"]
    _atomic_write(os.path.join(out_dir, "config.json"),
                  json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    if config.emit_plotdata:
        _atomic_write(os.path.join(out_dir, "plotdata.csv"),
                      lambda f: plotdata_csv_text(record, f))


# ---------------------------------------------------------------------------
# sweeps

def loglog_slope(horizons, values) -> float:
    """Least-squares slope of log(value) against log(horizon), dropping
    entries with value <= 1; degenerate inputs give slope 0."""
    pts = [(t, v) for t, v in zip(horizons, values) if v > 1.0]
    if len(pts) < 2:
        warnings.warn("metric degenerate: fewer than two horizons exceed 1")
        return 0.0
    ts, vs = zip(*pts)
    slope, _ = np.polyfit(np.log(np.asarray(ts, float)), np.log(np.asarray(vs, float)), 1)
    return float(slope)


def _metric_value(record: RunRecord, metric: str, comparator: str | None) -> float:
    if metric == "ccv":
        return record.summary["final_ccv"]
    name = comparator
    if name is None:
        name = next(k[len("regret__"):] for k in sorted(record.summary)
                    if k.startswith("regret__"))
    return record.summary[f"regret__{name}"]


def _sweep_values(config: RunConfig, metric: str, comparator: str | None = None):
    """Run every configured horizon; returns the records and the metric's
    value on each. The metric and comparator are checked before any run."""
    if not config.horizons or len(config.horizons) < 3:
        raise ConfigError("sweeps need at least 3 horizons (set horizons, or --horizons)")
    if metric not in ("ccv", "regret"):
        raise ConfigError(f"unknown metric {metric!r}; choose 'ccv' or 'regret'")
    if comparator is not None:
        scenario = _build_scenario(replace(config.scenario, horizon=config.horizons[0]))
        names = _resolve_comparators(config, scenario)
        if comparator not in names:
            raise ConfigError(f"unknown comparator {comparator!r}; runs record {list(names)}")
    records = sweep(config)
    return records, [_metric_value(r, metric, comparator) for r in records]


def sweep_slope(config: RunConfig, metric: str, comparator: str | None = None) -> float:
    """Run every configured horizon and fit the sublinearity slope of the metric."""
    _, values = _sweep_values(config, metric, comparator)
    return loglog_slope(config.horizons, values)


def sweep(config: RunConfig) -> list:
    """Run all configured horizons in turn and return their records."""
    if not config.horizons:
        raise ConfigError("sweep requires a horizons list")
    records = []
    for T in config.horizons:
        # g_lip is already folded into the scenario's params, where each
        # horizon's config.json records it
        records.append(run(replace(
            config, scenario=replace(config.scenario, horizon=T), g_lip=None, horizons=None,
            out_dir=None if config.out_dir is None else os.path.join(config.out_dir, f"T{T}"))))
    return records


# ---------------------------------------------------------------------------
# verification: re-derive the summary from the persisted CSV

def _read_json(path: str) -> dict:
    try:
        with open(path) as f:
            value = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return value


def load_run(out_dir: str):
    """A run directory's summary, config and ``rounds.csv`` columns by name.

    Raises ConfigError for a file that cannot be read, and HarnessError for
    a ``rounds.csv`` that does not parse.
    """
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    cfg = _read_json(os.path.join(out_dir, "config.json"))
    path = os.path.join(out_dir, "rounds.csv")
    try:
        with open(path) as f:
            names = f.readline().rstrip("\n").split(",")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header and no rows
                data = np.loadtxt(f, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise HarnessError(f"rounds.csv does not parse: {exc}") from exc
    if data.size == 0:
        data = np.empty((0, len(names)))
    return summary, cfg, dict(zip(names, data.T))


def verify_run(out_dir: str) -> list:
    """Rebuild the summary from rounds.csv and config.json as ``run`` builds
    it, and diff it with summary.json key by key (``wall_clock_sec`` aside):
    each value must be equal, bit for bit, and of the same type. The
    recorded plays and gradient norms go into a record, which ``run``'s own
    block pass (``_play``) fills without the learner; a failure it raises,
    such as a play that is not finite, is one problem that ends the check,
    and so is a gradient norm that is not finite and nonnegative.
    The file's f, g, gplus and Q must be the record's, and only the first
    cell that is not is reported. Returns the discrepancies. Raises
    ConfigError if a file of the run cannot be read or its config is
    invalid."""
    try:
        summary, cfg, table = load_run(out_dir)
    except HarnessError as exc:
        return [str(exc)]
    config = RunConfig.from_json(cfg)
    scenario = _build_scenario(config.scenario)
    comparators = _resolve_comparators(config, scenario)
    columns = _rounds_columns(scenario.dimension)
    if list(table) != columns:
        return [f"rounds.csv columns {list(table)} != {columns}"]
    problems = []
    n_rows = len(table["t"])
    if n_rows != scenario.horizon:
        problems.append(f"row count {n_rows} != horizon {scenario.horizon}")
        if n_rows == 0:
            return problems
    if not np.array_equal(table["t"], np.arange(1, n_rows + 1)):
        problems.append(f"t column is not 1..{n_rows}")
    norms = table["grad_norm_surrogate"]
    if not (np.isfinite(norms) & (norms >= 0.0)).all():
        # the summary's sums rest on this column: it is not rebuilt from it
        return problems + ["grad_norm_surrogate column holds a value that is not a norm"]

    n = min(scenario.horizon, n_rows)
    record = RunRecord(scenario.dimension, n, comparators)
    record.x[:] = np.stack([table[f"x_{i}"][:n] for i in range(scenario.dimension)], axis=1)
    record.grad_norm[:] = norms[:n]
    try:
        _play(scenario, record)
    except HarnessError as exc:
        return problems + [str(exc)]
    # every check is exact, as ``run`` writes each value's shortest repr;
    # written so that a NaN fails it
    bad = np.stack([table[c][:n] != getattr(record, c)[:n] for c in ("f", "g", "gplus", "Q")])
    if bad.any():
        t = int(np.argmax(bad.any(axis=0)))
        problems.append((f"f column mismatch at round {t + 1}",
                         f"g column mismatch at round {t + 1}",
                         "gplus column is not max(0, g)",
                         "Q column does not match the running violation sum")[
                             int(np.argmax(bad[:, t]))])

    try:
        expected = _summarize(config, scenario, _init_state(config, scenario), record)
    except HarnessError as exc:
        return problems + [str(exc)]
    problems += [f"{key} mismatch" for key, value in expected.items() if key in summary
                 and (type(summary[key]) is not type(value) or summary[key] != value)]
    problems += [f"{key} missing from summary.json" for key in expected if key not in summary]
    problems += [f"{key} not expected in summary.json" for key in summary
                 if key not in expected and key != "wall_clock_sec"]
    return problems
