"""Run driver: execute algorithm x scenario, evaluate every budget
inequality, persist plot-ready artifacts, and fit sublinearity slopes.

Artifacts per run directory:

* ``rounds.csv``  -- header ``t,x_0..x_{d-1},f,g,gplus,Q,grad_norm_surrogate``
* ``summary.json`` -- flat snake_case summary (metrics, budgets, flags)
* ``config.json``  -- echo of the run configuration (used by verification)
* ``plotdata.csv`` -- optional long-format ``series,t,value`` trajectories

Files are written atomically (temp file + rename). Reruns of an identical
configuration produce byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import budgets
from .coco import Coco1State, Coco2State, coco1_round, coco2_round
from .core import RoundRow, RunRecord, ccv_update, g_plus
from .geometry import membership
from .scenarios import Scenario, ScenarioSpec, build_scenario, with_horizon
from .subroutines import (
    KNOWN_PATH,
    PATH_FREE,
    AdaGradState,
    AhagState,
    adagrad_step,
    ahag_round,
)

ALGORITHMS = ("adagrad", "ahag", "coco1", "coco2")
VERIFY_REL_TOL = 1e-6
FEASIBILITY_TOL = 1e-9


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
            if any(h2 <= h1 for h1, h2 in zip(hs, hs[1:])):
                raise ConfigError("horizons must be strictly increasing")
            if any(h < 1 for h in hs):
                raise ConfigError("horizons must be positive")
            self.horizons = hs
        if self.g_lip is not None:
            # explicit override feeds the scenario so the oracles, the
            # surrogates, and the budgets all share one Lipschitz bound
            self.scenario = ScenarioSpec(
                name=self.scenario.name, horizon=self.scenario.horizon,
                seed=self.scenario.seed,
                params={**self.scenario.params, "g_lip": self.g_lip},
            )


def _resolve_comparators(config: RunConfig, scenario: Scenario) -> dict:
    available = scenario.comparators()
    names = config.comparators if config.comparators is not None \
        else scenario.default_comparators()
    if not names:
        raise ConfigError("at least one comparator must be registered")
    missing = [n for n in names if n not in available]
    if missing:
        raise ConfigError(f"unknown comparators {missing}; scenario offers {sorted(available)}")
    return {n: available[n] for n in names}


def _build_scenario(spec: ScenarioSpec) -> Scenario:
    try:
        return build_scenario(spec)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def run(config: RunConfig, horizon: int | None = None) -> RunRecord:
    """Execute one run and return its record; persists when out_dir is set."""
    spec = config.scenario if horizon is None else with_horizon(config.scenario, horizon)
    scenario = _build_scenario(spec)
    comparators = _resolve_comparators(config, scenario)
    for name, comp in comparators.items():
        if comp.points.shape != (scenario.horizon, scenario.dimension):
            raise ConfigError(f"comparator {name!r} has wrong shape {comp.points.shape}")
        if not np.all(membership(comp.points, scenario.decision_set.geometry, tol=1e-8)):
            raise ConfigError(f"comparator {name!r} leaves the decision set")

    t0 = time.perf_counter()
    record = RunRecord(dimension=scenario.dimension, comparators=comparators,
                       comparator_costs={name: [] for name in comparators})
    comp_cost = {name: 0.0 for name in comparators}
    sum_cost = 0.0
    bookkeeping_q = 0.0
    state = _init_state(config, scenario)

    for t in range(1, scenario.horizon + 1):
        try:
            cost, constraint = scenario.generate(t)
            row = _advance(config.algorithm, state, cost, constraint, t, bookkeeping_q)
            bookkeeping_q = row.q
            for name, comp in comparators.items():
                u = comp.points[t - 1]
                c = float(cost.value(u))
                record.comparator_costs[name].append(c)
                comp_cost[name] += c
                if comp.feasible and float(constraint.value(u)) > FEASIBILITY_TOL:
                    raise HarnessError(
                        f"comparator {name!r} marked feasible violates round {t}")
        except HarnessError:
            raise
        except Exception as exc:
            raise HarnessError(f"oracle failure at round {t}: {exc}") from exc
        sum_cost += row.f
        record.append(row)

    summary = _summarize(config, scenario, state, record, comp_cost, sum_cost)
    summary["wall_clock_sec"] = time.perf_counter() - t0
    record.summary = summary
    if config.out_dir is not None:
        persist(record, config, config.out_dir)
    return record


def _init_state(config: RunConfig, scenario: Scenario):
    ds = scenario.decision_set
    T = scenario.horizon
    g = scenario.g_lip
    if config.algorithm == "adagrad":
        if config.path_estimate is not None:
            return AdaGradState(decision_set=ds, mode=KNOWN_PATH,
                                path_estimate=float(config.path_estimate))
        return AdaGradState(decision_set=ds, mode=PATH_FREE)
    if config.algorithm == "ahag":
        return AhagState.create(ds, T)
    if config.algorithm == "coco1":
        return Coco1State.create(ds, T, g)
    return Coco2State.create(ds, T, g, v=config.v)


def _advance(algorithm: str, state, cost, constraint, t: int, prev_q: float) -> RoundRow:
    """One round of the selected algorithm; returns the trajectory row.

    Every branch plays, records the revealed values, then steps. The plain
    OCO subroutines ignore the constraint for their update but the violation
    they incur is still recorded.
    """
    if algorithm == "coco1":
        return coco1_round(state, cost, constraint)[2]
    if algorithm == "coco2":
        return coco2_round(state, cost, constraint)[2]
    x = state.point if algorithm == "adagrad" else state.combined_point
    f_val = float(cost.value(x))
    g_val = float(constraint.value(x))
    if algorithm == "adagrad":
        grad = np.asarray(cost.subgradient(x), dtype=float)
        adagrad_step(state, grad)
        grad_norm = float(np.linalg.norm(grad))
    else:
        before = state.grad_sq_sum
        ahag_round(state, cost)
        grad_norm = math.sqrt(max(state.grad_sq_sum - before, 0.0))
    return RoundRow(t=t, x=x, f=f_val, g=g_val, gplus=g_plus(g_val),
                    q=ccv_update(prev_q, g_val), surrogate_grad_norm=grad_norm)


def _summarize(config, scenario, state, record, comp_cost, sum_cost) -> dict:
    algo = config.algorithm
    ds = scenario.decision_set
    summary = {
        "algorithm": algo,
        "scenario": scenario.name,
        "seed": config.scenario.seed,
        "horizon": record.horizon,
        "dimension": scenario.dimension,
        "g_lip": scenario.g_lip,
        "diameter": ds.diameter,
        "final_ccv": record.final_ccv(),
        "sum_cost": sum_cost,
        "surrogate_grad_sq_sum": record.surrogate_grad_sq_sum(),
    }
    if algo == "adagrad":
        summary["mode"] = state.mode
        if state.mode == KNOWN_PATH:
            summary["path_estimate"] = state.path_estimate
    if algo == "coco2":
        summary["v"] = state.v_param
    meta = algo in ("coco1", "coco2")
    # the plain engines are budgeted on their own accumulator, the
    # meta-algorithms on the recorded surrogate gradient norms
    grad_sq = summary["surrogate_grad_sq_sum"] if meta else state.grad_sq_sum

    flags = []
    for name, comp in record.comparators.items():
        regret = sum_cost - comp_cost[name]
        summary[f"path_length__{name}"] = comp.path_length
        summary[f"feasible__{name}"] = comp.feasible
        summary[f"regret__{name}"] = regret
        # the meta-algorithms' analysis covers feasible comparators; known-path
        # descent covers comparators whose path fits its estimate
        if meta:
            applies = comp.feasible
        elif algo == "adagrad" and state.mode == KNOWN_PATH:
            applies = comp.path_length <= state.path_estimate + 1e-12
        else:
            applies = True
        if applies:
            rhs = _budget(summary, comp.path_length, record.horizon, grad_sq)
            summary[f"bound_rhs__{name}"] = rhs
            ok = regret <= rhs * (1.0 + 1e-12) + 1e-12
            summary[f"bound_ok__{name}"] = bool(ok)
            flags.append(bool(ok))

    ccv_path = None
    if algo == "coco1":
        ccv_path = scenario.minimizer_path_length()
    elif algo == "coco2":
        ccv_path = scenario.feasible_path_length()
    if ccv_path is not None:
        ccv_rhs = _budget(summary, ccv_path, record.horizon, grad_sq, ccv=True)
        summary["ccv_bound_path"] = ccv_path
        summary["ccv_bound_rhs"] = ccv_rhs
        ok = record.final_ccv() <= ccv_rhs * (1.0 + 1e-12) + 1e-12
        summary["ccv_bound_ok"] = bool(ok)
        flags.append(bool(ok))

    summary["all_bounds_satisfied"] = bool(all(flags)) if flags else True
    return summary


def _budget(summary: dict, path: float, t: int, grad_sq_sum: float, ccv: bool = False) -> float:
    """Regret budget RHS (CCV budget RHS with ``ccv``) after ``t`` rounds
    against a path of length ``path``, for the run ``summary`` describes.

    ``grad_sq_sum`` is the squared gradient norm accumulated over those
    rounds. The run summary, the plot trajectories and verification all
    evaluate budgets here, each from its own inputs.
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

def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return repr(float(v))


def rounds_csv_text(record: RunRecord) -> str:
    d = record.dimension
    header = "t," + ",".join(f"x_{i}" for i in range(d)) + ",f,g,gplus,Q,grad_norm_surrogate"
    lines = [header]
    for r in record.rows:
        coords = ",".join(_fmt(c) for c in r.x)
        lines.append(f"{r.t},{coords},{_fmt(r.f)},{_fmt(r.g)},{_fmt(r.gplus)},"
                     f"{_fmt(r.q)},{_fmt(r.surrogate_grad_norm)}")
    return "\n".join(lines) + "\n"


def plotdata_csv_text(record: RunRecord) -> str:
    """Long-format trajectories: running CCV, running regret per comparator,
    and the matching budget RHS evaluated on each prefix."""
    lines = ["series,t,value"]
    for r in record.rows:
        lines.append(f"ccv,{r.t},{_fmt(r.q)}")
    grad_sq_prefix = np.cumsum([r.surrogate_grad_norm ** 2 for r in record.rows])
    for name, comp in record.comparators.items():
        costs = record.comparator_costs[name]
        regret = 0.0
        path_prefix = 0.0
        for i, r in enumerate(record.rows):
            regret += r.f - costs[i]
            if i > 0:
                path_prefix += float(np.linalg.norm(comp.points[i] - comp.points[i - 1]))
            lines.append(f"regret__{name},{r.t},{_fmt(regret)}")
            if f"bound_rhs__{name}" in record.summary:
                rhs = _budget(record.summary, path_prefix, r.t, float(grad_sq_prefix[i]))
                lines.append(f"bound_rhs__{name},{r.t},{_fmt(rhs)}")
    return "\n".join(lines) + "\n"


def persist(record: RunRecord, config: RunConfig, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "rounds.csv"), rounds_csv_text(record))
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(record.summary, sort_keys=True, indent=2) + "\n")
    cfg = {
        "scenario": {
            "name": config.scenario.name, "horizon": record.horizon,
            "seed": config.scenario.seed, "params": config.scenario.params,
        },
        "algorithm": config.algorithm,
        "comparators": list(config.comparators) if config.comparators is not None else None,
        "v": config.v, "g_lip": config.g_lip, "path_estimate": config.path_estimate,
        "emit_plotdata": config.emit_plotdata,
    }
    _atomic_write(os.path.join(out_dir, "config.json"),
                  json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    if config.emit_plotdata:
        _atomic_write(os.path.join(out_dir, "plotdata.csv"),
                      plotdata_csv_text(record))


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
        scenario = _build_scenario(with_horizon(config.scenario, config.horizons[0]))
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
        sub = RunConfig(
            scenario=config.scenario, algorithm=config.algorithm,
            comparators=config.comparators, v=config.v, g_lip=None,
            path_estimate=config.path_estimate,
            out_dir=None if config.out_dir is None
            else os.path.join(config.out_dir, f"T{T}"),
            emit_plotdata=config.emit_plotdata,
        )
        records.append(run(sub, horizon=T))
    return records


# ---------------------------------------------------------------------------
# verification: re-derive the summary from the persisted CSV

def _rel_close(a: float, b: float, tol: float = VERIFY_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def load_run(out_dir: str):
    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    with open(os.path.join(out_dir, "config.json")) as f:
        cfg = json.load(f)
    rows = np.genfromtxt(os.path.join(out_dir, "rounds.csv"), delimiter=",",
                         names=True, dtype=float)
    rows = np.atleast_1d(rows)
    return summary, cfg, rows


def verify_run(out_dir: str) -> list:
    """Recompute every summary number from rounds.csv; returns discrepancies."""
    summary, cfg, rows = load_run(out_dir)
    problems = []
    d = summary["dimension"]
    xs = np.stack([rows[f"x_{i}"] for i in range(d)], axis=1)
    f_col, g_col = rows["f"], rows["g"]
    gplus_col, q_col = rows["gplus"], rows["Q"]
    grad_col = rows["grad_norm_surrogate"]

    if len(rows) != summary["horizon"]:
        problems.append(f"row count {len(rows)} != horizon {summary['horizon']}")
    if np.max(np.abs(gplus_col - np.maximum(g_col, 0.0))) > 1e-12:
        problems.append("gplus column is not max(0, g)")
    q_re = np.cumsum(gplus_col)
    if not np.allclose(q_re, q_col, rtol=VERIFY_REL_TOL, atol=1e-9):
        problems.append("Q column does not match the running violation sum")
    if not _rel_close(float(q_col[-1]), summary["final_ccv"]):
        problems.append("final_ccv mismatch")
    if not _rel_close(float(np.sum(f_col)), summary["sum_cost"]):
        problems.append("sum_cost mismatch")
    s_re = float(np.sum(grad_col ** 2))
    if not _rel_close(s_re, summary["surrogate_grad_sq_sum"]):
        problems.append("surrogate_grad_sq_sum mismatch")

    spec = ScenarioSpec(name=cfg["scenario"]["name"], horizon=int(summary["horizon"]),
                        seed=int(cfg["scenario"]["seed"]),
                        params=cfg["scenario"]["params"])
    scenario = build_scenario(spec)
    names = [k[len("regret__"):] for k in summary if k.startswith("regret__")]
    comparators = scenario.comparators()
    comp_cost = {n: 0.0 for n in names}
    sum_fx = 0.0
    for t in range(1, scenario.horizon + 1):
        cost, constraint = scenario.generate(t)
        fx = float(cost.value(xs[t - 1]))
        gx = float(constraint.value(xs[t - 1]))
        if not _rel_close(fx, float(f_col[t - 1])):
            problems.append(f"f column mismatch at round {t}")
            break
        if not _rel_close(gx, float(g_col[t - 1])):
            problems.append(f"g column mismatch at round {t}")
            break
        sum_fx += fx
        for n in names:
            comp_cost[n] += float(cost.value(comparators[n].points[t - 1]))

    for n in names:
        regret_re = sum_fx - comp_cost[n]
        if not _rel_close(regret_re, summary[f"regret__{n}"]):
            problems.append(f"regret__{n} mismatch")
        if not _rel_close(comparators[n].path_length, summary[f"path_length__{n}"]):
            problems.append(f"path_length__{n} mismatch")
        rhs_key = f"bound_rhs__{n}"
        if rhs_key in summary:
            rhs_re = _budget(summary, comparators[n].path_length, scenario.horizon, s_re)
            if not _rel_close(rhs_re, summary[rhs_key]):
                problems.append(f"bound_rhs__{n} mismatch")
    if "ccv_bound_rhs" in summary:
        rhs_re = _budget(summary, summary["ccv_bound_path"], scenario.horizon, s_re, ccv=True)
        if not _rel_close(rhs_re, summary["ccv_bound_rhs"]):
            problems.append("ccv_bound_rhs mismatch")
    return problems
