import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

import coco_lab
from coco_lab import budgets, coco, core, harness, subroutines
from coco_lab.cli import main
from coco_lab.core import (ComparatorSequence, ConstraintOracle, CostOracle, DecisionSet,
                           RunRecord, path_length, path_prefix, running_sum)
from coco_lab.geometry import Box
from coco_lab.harness import (
    ALGORITHMS,
    ConfigError,
    HarnessError,
    RunConfig,
    loglog_slope,
    persist,
    run,
    sweep,
    verify_run,
)
from coco_lab.scenarios import (
    SCENARIOS,
    AffineCost,
    Scenario,
    ScenarioSpec,
    StaticScenario,
    TrackingBallScenario,
    build_scenario,
)
from reference import sweep_slope


def cfg(name="static", T=50, seed=0, algorithm="coco2", **kw):
    return RunConfig(scenario=ScenarioSpec(name, horizon=T, seed=seed),
                     algorithm=algorithm, **kw)


def test_trivial_scenario_everything_inert():
    rec = run(cfg("trivial", T=40, algorithm="coco1"))
    s = rec.summary
    assert s["final_ccv"] == 0.0
    assert s["regret__static-center"] == 0.0
    assert s["all_bounds_satisfied"]
    rec = run(cfg("trivial", T=40, algorithm="coco2"))
    assert rec.summary["final_ccv"] == 0.0
    assert rec.summary["all_bounds_satisfied"]


# the pairs that play x = 0 on every round: trivial has nothing to learn;
# the cost of alternating, and of disjoint-alternating, has subgradient 0 at
# the origin, where every learner starts; alternating's regions all hold the
# origin, and on disjoint-alternating only a learner that reads the
# constraint leaves it
INERT = ({(algorithm, "trivial") for algorithm in ALGORITHMS}
         | {(algorithm, "alternating") for algorithm in ALGORITHMS}
         | {("adagrad", "disjoint-alternating"), ("ahag", "disjoint-alternating")})


def test_only_the_declared_pairs_are_inert():
    # every other pair moves, and steps on a nonzero gradient, on every seed:
    # a change that stills a pair, or moves a declared one, names the pair
    still, moving = set(), set()
    for algorithm in ALGORITHMS:
        for name in SCENARIOS:
            records = [run(cfg(name, T=300, seed=seed, algorithm=algorithm)) for seed in range(3)]
            if not any(r.x.any() for r in records):
                still.add((algorithm, name))
            if all(r.x.any() and r.summary["surrogate_grad_sq_sum"] > 0 for r in records):
                moving.add((algorithm, name))
    assert sorted(still) == sorted(INERT)
    assert sorted(moving) == sorted({(a, n) for a in ALGORITHMS for n in SCENARIOS} - INERT)


def test_rounds_csv_structure(tmp_path):
    out = str(tmp_path / "r")
    rec = run(cfg("disjoint-alternating", T=37, algorithm="coco2", out_dir=out))
    lines = open(os.path.join(out, "rounds.csv")).read().strip().splitlines()
    assert lines[0] == "t,x_0,f,g,gplus,Q,grad_norm_surrogate"
    assert len(lines) == 38  # header + T rows
    qs = [float(l.split(",")[5]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert qs[-1] == pytest.approx(rec.summary["final_ccv"])


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        run(cfg("tracking-ball", T=60, seed=2, algorithm="coco1", out_dir=out))
    b1 = open(os.path.join(out1, "rounds.csv"), "rb").read()
    b2 = open(os.path.join(out2, "rounds.csv"), "rb").read()
    assert b1 == b2


@pytest.mark.parametrize("algorithm", ["adagrad", "ahag", "coco1", "coco2"])
def test_verify_reproduces_summary(tmp_path, algorithm):
    out = str(tmp_path / algorithm)
    run(cfg("tracking-ball", T=50, seed=3, algorithm=algorithm, out_dir=out))
    assert verify_run(out) == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_verify_catches_scaled_budget(tmp_path, algorithm):
    out = str(tmp_path / algorithm)
    run(cfg("tracking-ball", T=50, seed=3, algorithm=algorithm, out_dir=out))
    path = os.path.join(out, "summary.json")
    summary = json.loads(open(path).read())
    keys = [k for k in summary if k.startswith("bound_rhs__") or k == "ccv_bound_rhs"]
    assert len(keys) == (3 if algorithm.startswith("coco") else 2)
    for key in keys:
        with open(path, "w") as f:
            json.dump({**summary, key: summary[key] * (1.0 + 1e-4)}, f)
        assert verify_run(out) == [f"{key} mismatch"]


@pytest.mark.parametrize("key", [
    "all_bounds_satisfied", "ccv_bound_ok", "bound_ok__center-path", "bound_ok__minimizer-path",
    "feasible__center-path", "feasible__minimizer-path", "ccv_bound_path", "v", "diameter",
    "g_lip", "seed"])
def test_verify_catches_each_changed_summary_key(tmp_path, key):
    # the flags and the budget inputs are rebuilt, not read back from the summary
    out = str(tmp_path / "r")
    run(cfg("tracking-ball", T=50, seed=3, algorithm="coco2", out_dir=out))
    path = os.path.join(out, "summary.json")
    summary = json.loads(open(path).read())
    value = summary[key]
    with open(path, "w") as f:
        json.dump({**summary, key: (not value) if isinstance(value, bool) else value + 1}, f)
    assert verify_run(out) == [f"{key} mismatch"]


def test_verify_names_missing_unexpected_and_retyped_keys(tmp_path):
    out = str(tmp_path / "r")
    run(cfg("static", T=20, algorithm="adagrad", out_dir=out))
    path = os.path.join(out, "summary.json")
    summary = json.loads(open(path).read())
    del summary["dimension"], summary["wall_clock_sec"]
    # a number must keep its type: 20 read back as 20.0, 1.0 as 1
    summary.update({"extra": 1.0, "all_bounds_satisfied": 1, "mode": "known_path",
                    "horizon": 20.0, "g_lip": 1})
    with open(path, "w") as f:
        json.dump(summary, f)
    assert verify_run(out) == ["horizon mismatch", "g_lip mismatch",
                               "mode mismatch", "all_bounds_satisfied mismatch",
                               "dimension missing from summary.json",
                               "extra not expected in summary.json"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_plotdata_final_rows_match_summary(tmp_path, algorithm, scenario):
    out = str(tmp_path / "p")
    rec = run(cfg(scenario, T=40, seed=1, algorithm=algorithm, out_dir=out,
                  emit_plotdata=True))
    final = {}
    for line in open(os.path.join(out, "plotdata.csv")).read().splitlines()[1:]:
        series, _, value = line.split(",")
        final[series] = float(value)  # each series is written in round order
    keys = [k for k in rec.summary if k.startswith(("regret__", "bound_rhs__"))]
    assert any(k.startswith("bound_rhs__") for k in keys)
    # the summary and plotdata.csv read the same running totals
    for key in keys:
        assert final[key] == rec.summary[key], key
    assert final["ccv"] == rec.summary["final_ccv"]


def test_verify_catches_tampering(tmp_path):
    out = str(tmp_path / "t")
    run(cfg("static", T=30, out_dir=out))
    path = os.path.join(out, "rounds.csv")
    lines = open(path).read().splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)  # corrupt x_0 at one round
    lines[10] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert verify_run(out) != []


def test_verify_reports_missing_rows(tmp_path):
    out = str(tmp_path / "t")
    run(cfg("static", T=20, out_dir=out))
    path = os.path.join(out, "rounds.csv")
    lines = open(path).read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(lines[:11]) + "\n")  # header and rounds 1..10
    problems = verify_run(out)
    assert problems[0] == "row count 10 != horizon 20"
    assert not any("column mismatch" in p for p in problems)


def test_unknown_comparator_is_config_error():
    with pytest.raises(ConfigError, match="unknown comparator"):
        run(cfg("static", comparators=["nope"]))


def test_unknown_scenario_is_config_error():
    with pytest.raises(ConfigError):
        run(RunConfig(scenario=ScenarioSpec("bogus", horizon=5), algorithm="coco1"))


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        cfg(algorithm="sgd")


def test_horizons_must_increase():
    with pytest.raises(ConfigError, match="strictly increasing"):
        cfg(horizons=[100, 100, 200])


def test_loglog_slope_calibration():
    ts = [1000, 3000, 10000, 30000]
    assert loglog_slope(ts, [2.0 * t for t in ts]) == pytest.approx(1.0, abs=0.01)
    assert loglog_slope(ts, [5.0 * math.sqrt(t) for t in ts]) == pytest.approx(0.5, abs=0.01)


def test_loglog_slope_degenerate_metric_warns_and_returns_zero():
    with pytest.warns(UserWarning, match="degenerate"):
        assert loglog_slope([10, 100, 1000], [0.5, 0.2, 0.9]) == 0.0


def test_sweep_requires_three_horizons():
    with pytest.raises(ConfigError, match="3 horizons"):
        sweep_slope(cfg(horizons=[10, 20]), "ccv")


@pytest.mark.parametrize("call,message", [
    (lambda: sweep_slope(cfg(horizons=[10, 20, 40]), "bogus"), "unknown metric 'bogus'"),
    (lambda: sweep(cfg()), "sweep requires a horizons list"),
], ids=["metric", "no-horizons"])
def test_sweep_rejects_an_unknown_metric_and_no_horizons(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


def test_sweep_runs_each_horizon(tmp_path):
    config = cfg("static", algorithm="coco2", horizons=[20, 40, 80],
                 out_dir=str(tmp_path / "sweep"))
    records = sweep(config)
    assert [r.horizon for r in records] == [20, 40, 80]
    for T in (20, 40, 80):
        assert os.path.exists(tmp_path / "sweep" / f"T{T}" / "rounds.csv")


def test_plotdata_emission(tmp_path):
    out = str(tmp_path / "p")
    run(cfg("static", T=25, algorithm="coco2", out_dir=out, emit_plotdata=True))
    lines = open(os.path.join(out, "plotdata.csv")).read().strip().splitlines()
    assert lines[0] == "series,t,value"
    series = {l.split(",")[0] for l in lines[1:]}
    assert "ccv" in series
    assert any(s.startswith("regret__") for s in series)
    assert any(s.startswith("bound_rhs__") for s in series)


class _BrokenStatic(StaticScenario):
    """static, but from round 3 on the cost's value is NaN wherever
    ``bad_value(x)`` holds and its subgradient is ``bad_grad``, if set."""

    bad_value = staticmethod(lambda x: False)
    bad_grad = None

    def generate(self, t):
        cost, constraint = super().generate(t)
        if t < 3:
            return cost, constraint
        good = cost.value
        grad = cost.subgradient if self.bad_grad is None \
            else (lambda x: np.array(self.bad_grad))
        return CostOracle(value=lambda x: np.nan if self.bad_value(x) else good(x),
                          subgradient=grad), constraint


@pytest.mark.parametrize("algorithm,bad_value,what", [
    ("coco2", lambda x: True, r"f\(x_t\)"),
    # adagrad plays 0, 3, 3, ... on static, so only the comparator at 1 hits NaN
    ("adagrad", lambda x: float(x[0]) == 1.0, "comparator 'minimizer-path'"),
], ids=["played", "comparator"])
def test_run_rejects_non_finite_cost_with_round(monkeypatch, algorithm, bad_value, what):
    # a NaN cost is a numerical failure, not a NaN regret read as a budget violation
    monkeypatch.setattr(_BrokenStatic, "bad_value", staticmethod(bad_value))
    monkeypatch.setitem(SCENARIOS, "broken-static", _BrokenStatic)
    with pytest.raises(HarnessError, match=f"round 3: non-finite cost.*{what}"):
        run(cfg("broken-static", T=10, algorithm=algorithm))


class _FailsFrom(StaticScenario):
    """static, but from round ``comparator_from`` on the cost is NaN at the
    points in ``nan_at``, from round ``infeasible_from`` on the constraint
    is ``infeasible_value`` at the points in ``infeasible_at``, and from
    round ``learner_from`` on the subgradient is NaN. From round
    ``raise_from`` on the cost raises at the points in ``cost_raises_at``,
    and the constraint at those in ``constraint_raises_at``. adagrad plays
    0, 3, 3, ..., so from round 2 on only the comparators meet the changed
    values at 1 and 0: 'minimizer-path' at 1, then 'interior-static' at 0;
    the learner meets them at 3."""

    nan_at = (1.0,)
    comparator_from = infeasible_from = learner_from = raise_from = math.inf
    infeasible_value, infeasible_at = 1.0, (1.0,)
    cost_raises_at = constraint_raises_at = ()

    def generate(self, t):
        cost, constraint = super().generate(t)
        nan_at = self.nan_at if t >= self.comparator_from else ()
        infeasible = t >= self.infeasible_from
        learner_nan = t >= self.learner_from
        raises = t >= self.raise_from

        def value(x):
            if raises and float(x[0]) in self.cost_raises_at:
                raise ArithmeticError(f"no cost at {float(x[0])}")
            return np.nan if float(x[0]) in nan_at else cost.value(x)

        def subgradient(x):
            return np.array([np.nan]) if learner_nan else cost.subgradient(x)

        def constraint_value(x):
            if raises and float(x[0]) in self.constraint_raises_at:
                raise ArithmeticError(f"no constraint at {float(x[0])}")
            return self.infeasible_value if infeasible and float(x[0]) in self.infeasible_at \
                else constraint.value(x)

        return (CostOracle(value=value, subgradient=subgradient),
                ConstraintOracle(value=constraint_value, subgradient=constraint.subgradient,
                                 feasible_region=constraint.feasible_region))


@pytest.mark.parametrize("block", [harness.ORACLE_BLOCK, 2], ids=["block", "small-block"])
@pytest.mark.parametrize("failures,what", [
    ({"comparator_from": 3, "learner_from": 5},
     "oracle failure at round 3: non-finite cost nan at comparator 'minimizer-path'"),
    ({"comparator_from": 3, "learner_from": 3}, "oracle failure at round 3: non-finite gradient"),
    ({"comparator_from": 5, "learner_from": 3}, "oracle failure at round 3: non-finite gradient"),
    ({"comparator_from": 3, "nan_at": (0.0, 1.0)},
     "oracle failure at round 3: non-finite cost nan at comparator 'minimizer-path'"),
    ({"comparator_from": 3, "infeasible_from": 3},
     "oracle failure at round 3: non-finite cost nan at comparator 'minimizer-path'"),
    ({"comparator_from": 3, "nan_at": (0.0,), "infeasible_from": 3},
     "comparator 'minimizer-path' marked feasible violates round 3"),
    ({"comparator_from": 4, "nan_at": (0.0,), "infeasible_from": 5},
     "oracle failure at round 4: non-finite cost nan at comparator 'interior-static'"),
], ids=["comparator-earlier", "same-round-learner-first", "learner-earlier",
        "same-round-first-comparator", "same-round-cost-before-feasibility",
        "same-round-first-comparator-feasibility", "second-comparator-earlier"])
def test_run_reports_the_first_failure(monkeypatch, block, failures, what):
    monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
    for name, value in failures.items():
        monkeypatch.setattr(_FailsFrom, name, value)
    monkeypatch.setitem(SCENARIOS, "fails-from", _FailsFrom)
    with pytest.raises(HarnessError, match=f"^{what}"):
        run(cfg("fails-from", T=10, algorithm="adagrad"))


@pytest.mark.parametrize("block", [harness.ORACLE_BLOCK, 2], ids=["block", "small-block"])
@pytest.mark.parametrize("failures,what", [
    ({"raise_from": 3, "cost_raises_at": (3.0,)}, "oracle failure at round 3: no cost at 3.0"),
    ({"raise_from": 3, "constraint_raises_at": (3.0,)},
     "oracle failure at round 3: no constraint at 3.0"),
    ({"raise_from": 3, "cost_raises_at": (1.0,)}, "oracle failure at round 3: no cost at 1.0"),
    ({"raise_from": 3, "constraint_raises_at": (1.0,)},
     "oracle failure at round 3: no constraint at 1.0"),
    ({"raise_from": 3, "cost_raises_at": (1.0,), "constraint_raises_at": (3.0,)},
     "oracle failure at round 3: no constraint at 3.0"),
    ({"raise_from": 4, "cost_raises_at": (3.0,), "comparator_from": 3},
     "oracle failure at round 3: non-finite cost nan at comparator 'minimizer-path'"),
    ({"raise_from": 3, "constraint_raises_at": (1.0,), "comparator_from": 3, "nan_at": (0.0,)},
     "oracle failure at round 3: no constraint at 1.0"),
    ({"raise_from": 3, "constraint_raises_at": (0.0,), "comparator_from": 3},
     "oracle failure at round 3: non-finite cost nan at comparator 'minimizer-path'"),
    ({"raise_from": 3, "cost_raises_at": (3.0,), "learner_from": 3},
     "oracle failure at round 3: non-finite gradient"),
    ({"comparator_from": 3, "nan_at": (3.0,)},
     "oracle failure at round 3: non-finite cost f(x_t) = nan"),
    ({"infeasible_from": 3, "infeasible_at": (3.0,), "infeasible_value": np.inf},
     "oracle failure at round 3: constraint value must be finite"),
    ({"comparator_from": 3, "nan_at": (3.0,), "infeasible_from": 3, "infeasible_at": (3.0,),
      "infeasible_value": np.nan}, "oracle failure at round 3: constraint value must be finite"),
], ids=["learner-cost", "learner-constraint", "comparator-cost", "feasible-comparator-constraint",
        "same-round-learner-first", "comparator-earlier",
        "same-round-feasibility-before-next-cost",
        "same-round-first-comparator", "step-before-its-rounds-values", "learner-cost-nan",
        "learner-constraint-inf", "same-round-constraint-before-cost"])
def test_run_replays_a_failing_block_to_its_first_failure(monkeypatch, block, failures, what):
    monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
    for name, value in failures.items():
        monkeypatch.setattr(_FailsFrom, name, value)
    monkeypatch.setitem(SCENARIOS, "fails-from", _FailsFrom)
    with pytest.raises(HarnessError, match=f"^{re.escape(what)}"):
        run(cfg("fails-from", T=10, algorithm="adagrad"))


def test_feasible_comparator_with_a_nan_constraint_value_completes(monkeypatch):
    # a NaN is not a violation: only a value above the tolerance is
    monkeypatch.setattr(_FailsFrom, "infeasible_from", 3)
    monkeypatch.setattr(_FailsFrom, "infeasible_value", np.nan)
    monkeypatch.setitem(SCENARIOS, "fails-from", _FailsFrom)
    record = run(cfg("fails-from", T=10, algorithm="adagrad"))
    assert record.horizon == 10 and record.summary["feasible__minimizer-path"]


@pytest.mark.parametrize("block", [harness.ORACLE_BLOCK, 4], ids=["block", "small-block"])
def test_kernel_that_raises_while_its_rows_answer_is_a_harness_error(monkeypatch, block):
    monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
    kernel_error = ValueError("the kernel cannot take this block")

    def evaluate(params, points):
        raise kernel_error

    monkeypatch.setattr(AffineCost, "evaluate", staticmethod(evaluate))
    stop = min(block, 10)
    with pytest.raises(HarnessError, match=f"^oracle kernels disagree with the oracles of "
                                           f"rounds 1..{stop}$") as raised:
        run(cfg("static", T=10, algorithm="coco2"))
    assert raised.value.__cause__ is kernel_error


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clean_run_builds_each_rounds_oracles_once(monkeypatch, algorithm):
    # only the learner's step calls generate: a clean block is never replayed
    calls = []
    original = TrackingBallScenario.generate
    monkeypatch.setattr(TrackingBallScenario, "generate",
                        lambda self, t: calls.append(t) or original(self, t))
    run(cfg("tracking-ball", T=300, seed=3, algorithm=algorithm))
    assert calls == list(range(1, 301))


def _sequential_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_comparator_costs_are_each_rounds_cost_value(scenario):
    record = run(cfg(scenario, T=70, seed=4, algorithm="ahag"))
    sc = build_scenario(ScenarioSpec(scenario, horizon=70, seed=4))
    costs = [sc.generate(t)[0] for t in range(1, 71)]
    sum_cost = _sequential_sum(record.f[:record.horizon].tolist())
    for name, comp in record.comparators.items():
        expect = [float(c.value(u)) for c, u in zip(costs, comp.points)]
        assert record.comparator_costs[name].tolist() == expect, name
        # the regret adds both sums in round order, as a running ``+=`` does
        regret = sum_cost - _sequential_sum(expect)
        assert record.summary[f"regret__{name}"] == regret, name


def test_block_size_does_not_change_a_run(monkeypatch, tmp_path):
    config = cfg("oco-mix", T=50, seed=2, algorithm="adagrad", emit_plotdata=True)
    texts = []
    for block, out in ((harness.ORACLE_BLOCK, "a"), (7, "b")):
        monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
        config.out_dir = str(tmp_path / out)
        run(config)
        assert verify_run(config.out_dir) == []
        texts.append([open(os.path.join(config.out_dir, f)).read()
                      for f in ("rounds.csv", "plotdata.csv")])
    assert texts[0] == texts[1]


def reference_totals(record):
    """A record's running sums as they were formed in one pass after the
    run, before the record carried them on block by block (``RunTotals.of``):
    ``(ccv, cost, grad_sq, comparator_cost, path)``, the last two by
    comparator name. Entry ``t`` covers rounds 1..t, so entry 0 is 0.0,
    and a path entry ``i`` covers the first ``i`` steps."""
    n = record.horizon
    return (np.concatenate(([0.0], record.Q[:n])), running_sum(record.f[:n]),
            running_sum([g ** 2 for g in record.grad_norm[:n].tolist()]),
            {name: running_sum(c[:n]) for name, c in record.comparator_costs.items()},
            {name: path_prefix(comp.points) for name, comp in record.comparators.items()})


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("block", [harness.ORACLE_BLOCK, 1, 7], ids=["block", "one", "seven"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_running_columns_are_the_one_pass_totals_bitwise(monkeypatch, scenario, algorithm,
                                                         block):
    # a sum carried on from the previous block's last entry adds in the
    # same order as one pass over the run; blocks of 1 and 7 cross many edges
    monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
    record = run(cfg(scenario, T=300, seed=3, algorithm=algorithm))
    ccv, cost, grad_sq, comparator_cost, path = reference_totals(record)
    assert record.horizon == 300
    for column, expect in ((record.Q, ccv), (record.cost_sum, cost), (record.S, grad_sq)):
        assert _bits(column) == _bits(expect[1:])
    assert record.surrogate_grad_sq_sum() == record.summary["surrogate_grad_sq_sum"]
    assert _bits(record.surrogate_grad_sq_sum()) == _bits(grad_sq[-1])
    for name, comp in record.comparators.items():
        assert _bits(record.comparator_cost_sum[name]) == _bits(comparator_cost[name][1:])
        assert _bits(record.regret(name)) == _bits((cost - comparator_cost[name])[1:])
        assert _bits(comp.path) == _bits(path[name])
        assert _bits(comp.path_length) == _bits(path[name][-1])


def test_each_path_prefix_is_computed_once(monkeypatch, tmp_path):
    # one per comparator, whose paths are also the scenario's declared CCV
    # paths, in a run that writes plotdata.csv and again in its verification
    calls = []

    def counted(points):
        calls.append(len(points))
        return path_prefix(points)

    monkeypatch.setattr(core, "path_prefix", counted)
    monkeypatch.setattr(harness, "path_prefix", counted, raising=False)
    out = str(tmp_path / "run")
    record = run(cfg("tracking-ball", T=300, seed=3, algorithm="coco1", out_dir=out,
                     emit_plotdata=True))
    assert len(record.comparators) == 2 and calls == [300] * 2
    calls.clear()
    assert verify_run(out) == []
    assert calls == [300] * 2


@pytest.mark.parametrize("algorithm", ["coco1", "coco2"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_coco_state_q_is_the_q_column_at_every_block_end(monkeypatch, scenario, algorithm):
    monkeypatch.setattr(harness, "ORACLE_BLOCK", 64)
    ends = []
    fill = RunRecord.fill

    def spy(record, f, g, q=None):
        fill(record, f, g, q)
        ends.append((record.horizon, q, record.Q[record.horizon - 1]))

    monkeypatch.setattr(RunRecord, "fill", spy)
    record = run(cfg(scenario, T=300, seed=3, algorithm=algorithm))
    assert [t for t, _, _ in ends] == [64, 128, 192, 256, 300]
    qs, column = zip(*((q, big_q) for _, q, big_q in ends))
    assert np.array_equal(np.array(qs).view(np.uint64), np.array(column).view(np.uint64))
    assert record.summary["final_ccv"] == qs[-1]


@pytest.mark.parametrize("algorithm", ["coco1", "coco2"])
def test_coco_state_q_off_the_q_column_is_a_harness_error(monkeypatch, algorithm):
    # the learner's own CCV drifts from the violations its plays incur
    monkeypatch.setattr(harness, "ORACLE_BLOCK", 8)
    original = coco.ccv_update
    monkeypatch.setattr(coco, "ccv_update", lambda q, g: original(q, g) + 2.0 ** -30)
    with pytest.raises(HarnessError, match="learner's CCV .* is not the Q column's .* round 8$"):
        run(cfg("tracking-ball", T=20, algorithm=algorithm))


def _edit(out, changes):
    """Replace the text of rounds.csv's ``column`` at ``round`` by
    ``edit(text)`` for each ``(column, round) -> edit`` in ``changes``."""
    path = os.path.join(out, "rounds.csv")
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    for (column, t), edit in changes.items():
        cells = lines[t].split(",")
        i = header.index(column)
        cells[i] = edit(cells[i])
        lines[t] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _tamper(out, changes):
    """Add ``delta`` to rounds.csv's ``column`` at ``round`` for each
    ``(column, round) -> delta`` in ``changes``."""
    _edit(out, {cell: lambda text, delta=delta: repr(float(text) + delta)
                for cell, delta in changes.items()})


@pytest.mark.parametrize("block", [harness.ORACLE_BLOCK, 2], ids=["block", "small-block"])
@pytest.mark.parametrize("changes,expect", [
    ({("g", 3): 0.5, ("f", 7): 0.5}, "g column mismatch at round 3"),
    ({("g", 3): 0.5, ("f", 3): 0.5}, "f column mismatch at round 3"),
    ({("f", 8): 0.5, ("g", 9): 0.5}, "f column mismatch at round 8"),
], ids=["g-earlier", "same-round-f-first", "f-earlier"])
def test_verify_reports_the_first_mismatching_round(monkeypatch, tmp_path, block, changes,
                                                    expect):
    monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
    out = str(tmp_path / "t")
    run(cfg("tracking-ball", T=30, seed=1, algorithm="adagrad", out_dir=out))
    _tamper(out, changes)
    problems = verify_run(out)
    assert [p for p in problems if "column mismatch" in p] == [expect]


def _one_ulp_up(text):
    return repr(math.nextafter(float(text), math.inf))


@pytest.mark.parametrize("column,expect", [
    ("f", "f column mismatch at round 5"),
    ("Q", "Q column does not match the running violation sum"),
], ids=["f", "Q"])
def test_verify_catches_a_one_ulp_change_of_a_cell(tmp_path, column, expect):
    # verify compares to the bit: no tolerance hides a changed last digit
    out = str(tmp_path / "t")
    run(cfg("static", T=20, algorithm="coco2", out_dir=out))
    assert harness.load_run(out)[2][column][4] != 0.0
    _edit(out, {(column, 5): _one_ulp_up})
    assert expect in verify_run(out)


@pytest.mark.parametrize("key,direction", [("final_ccv", math.inf), ("sum_cost", -math.inf)])
def test_verify_catches_a_one_ulp_change_of_a_summary_number(tmp_path, key, direction):
    out = str(tmp_path / "t")
    run(cfg("static", T=20, algorithm="coco2", out_dir=out))
    path = os.path.join(out, "summary.json")
    summary = json.loads(open(path).read())
    with open(path, "w") as f:
        json.dump({**summary, key: math.nextafter(summary[key], direction)}, f)
    assert verify_run(out) == [f"{key} mismatch"]


@pytest.mark.parametrize("t", ["4", "5.5"], ids=["repeated", "fractional"])
def test_verify_reports_a_t_column_that_is_not_the_rounds(tmp_path, t):
    out = str(tmp_path / "t")
    run(cfg("static", T=20, algorithm="coco2", out_dir=out))
    _edit(out, {("t", 5): lambda text: t})
    assert verify_run(out) == ["t column is not 1..20"]


def test_verify_reports_a_negative_gradient_norm(tmp_path):
    out = str(tmp_path / "t")
    run(cfg("tracking-ball", T=30, seed=1, algorithm="coco1", out_dir=out))
    norms = harness.load_run(out)[2]["grad_norm_surrogate"]
    assert norms[2] > 0.0 and norms[6] > 0.0
    # only the square of a norm enters S_T: a negated norm changes no sum
    _edit(out, {("grad_norm_surrogate", t): lambda text: repr(-float(text)) for t in (3, 7)})
    assert verify_run(out) == ["grad_norm_surrogate column holds a value that is not a norm"]


@pytest.mark.parametrize("cell,text,expect", [
    ("grad_norm_surrogate", "inf", "grad_norm_surrogate column holds a value that is not a norm"),
    ("grad_norm_surrogate", "nan", "grad_norm_surrogate column holds a value that is not a norm"),
    ("gplus", "nan", "gplus column is not max(0, g)"),
], ids=["infinite-norm", "nan-norm", "nan-gplus"])
def test_verify_reports_a_non_finite_cell(tmp_path, cell, text, expect):
    out = str(tmp_path / "t")
    run(cfg("tracking-ball", T=30, seed=1, algorithm="coco1", out_dir=out))
    _edit(out, {(cell, 4): lambda _: text})
    assert verify_run(out) == [expect]


def test_verify_reports_a_norm_whose_square_overflows(tmp_path):
    # a finite norm whose square overflows a float is one problem, not a
    # Python OverflowError out of verify
    out = str(tmp_path / "t")
    run(cfg("tracking-ball", T=30, seed=1, algorithm="coco1", out_dir=out))
    _edit(out, {("grad_norm_surrogate", 4): lambda _: "1e200"})
    assert verify_run(out) == ["a squared gradient norm overflows in rounds 1..30"]


@pytest.mark.parametrize("column,expect", [
    ("f", "f column mismatch at round 5"),
    ("g", "g column mismatch at round 5"),
    ("gplus", "gplus column is not max(0, g)"),
    ("Q", "Q column does not match the running violation sum"),
], ids=["f", "g", "gplus", "Q"])
def test_verify_reports_one_changed_cell_as_one_problem(tmp_path, column, expect):
    # the summary is rebuilt from the recomputed columns, not the file's: a
    # changed cell does not also show up as changed sums and regrets
    out = str(tmp_path / "t")
    run(cfg("tracking-ball", T=30, seed=1, algorithm="coco1", out_dir=out))
    _tamper(out, {(column, 5): 0.5})
    assert verify_run(out) == [expect]


@pytest.mark.parametrize("block", [harness.ORACLE_BLOCK, 4], ids=["block", "small-block"])
@pytest.mark.parametrize("algorithm", ["coco1", "adagrad"])
@pytest.mark.parametrize("scenario,round_,text", [("tracking-ball", 5, "nan"), ("static", 7, "inf")],
                         ids=["nan", "inf"])
def test_verify_reports_a_play_that_is_not_finite_as_its_rounds_one_failure(
        monkeypatch, tmp_path, block, algorithm, scenario, round_, text):
    # verify runs run's clean check and replay: the play's round is named,
    # and the f column and the sums and flags it feeds are not reported too
    monkeypatch.setattr(harness, "ORACLE_BLOCK", block)
    out = str(tmp_path / "t")
    run(cfg(scenario, T=30, seed=1, algorithm=algorithm, out_dir=out))
    _edit(out, {("x_0", round_): lambda _: text})
    assert verify_run(out) == [f"oracle failure at round {round_}: "
                               "constraint value must be finite"]


def test_verify_derives_its_columns_through_the_records_fill(monkeypatch, tmp_path):
    out = str(tmp_path / "t")
    run(cfg("tracking-ball", T=30, seed=1, algorithm="coco1", out_dir=out))
    filled = []
    original = RunRecord.fill

    def spy(self, f, g, q=None):
        filled.append(len(f))
        return original(self, f, g, q)

    monkeypatch.setattr(RunRecord, "fill", spy)
    assert verify_run(out) == []
    assert sum(filled) == 30


@pytest.mark.parametrize("algorithm", ["coco2", "ahag"])
def test_recorded_gradient_norm_is_the_stepped_gradients_norm(monkeypatch, algorithm):
    # a difference of the running squared-norm sum loses digits once the sum
    # is large (coco2 x static reaches S ~ 5e11 by T=20000)
    stepped = []
    original = subroutines.adagrad_step

    def recording_step(state, gradient):
        stepped.append(float(np.linalg.norm(gradient)))
        return original(state, gradient)

    monkeypatch.setattr(subroutines, "adagrad_step", recording_step)
    record = run(cfg("static", T=20000, seed=0, algorithm=algorithm))
    recorded = record.grad_norm[:record.horizon]
    assert len(stepped) == len(recorded)
    np.testing.assert_allclose(recorded, stepped, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scenario", ["tracking-ball", "static", "oco-mix"])
@pytest.mark.parametrize("algorithm,path_estimate", [
    ("adagrad", None), ("adagrad", 50.0), ("ahag", None), ("coco1", None), ("coco2", None),
], ids=["adagrad", "adagrad-known-path", "ahag", "coco1", "coco2"])
def test_each_budget_takes_the_runs_own_inputs(scenario, algorithm, path_estimate):
    # each budget is the budgets function of inputs rebuilt here: S from the
    # recorded norms, each comparator's path, the expert count, the declared
    # paths and coco2's default V
    T = 300
    record = run(RunConfig(ScenarioSpec(scenario, horizon=T, seed=0), algorithm,
                           path_estimate=path_estimate))
    sc = build_scenario(ScenarioSpec(scenario, horizon=T, seed=0))
    diameter, g_lip = sc.decision_set.diameter, sc.g_lip
    grad_sq = 0.0
    for norm in record.grad_norm[:T].tolist():
        grad_sq += norm ** 2
    n = budgets.num_experts(diameter, T)
    gamma = budgets.coco2_gamma(g_lip, diameter, n)
    v = coco.coco2_default_v(g_lip, diameter, T)
    expected = {}
    for name, comp in record.comparators.items():
        path = path_length(comp.points)
        if algorithm == "adagrad" and path_estimate is None:
            expected[name] = budgets.adagrad_path_free_rhs(diameter, path, grad_sq)
        elif algorithm == "adagrad" and path <= path_estimate:
            expected[name] = budgets.adagrad_known_path_rhs(diameter, path_estimate, grad_sq)
        elif algorithm in ("ahag", "coco1"):
            expected[name] = budgets.ensemble_rhs(diameter, n, path, grad_sq)
        elif algorithm == "coco2":
            expected[name] = budgets.coco2_regret_rhs(gamma, v, path, T)
    rhs = {key[len("bound_rhs__"):]: value for key, value in record.summary.items()
           if key.startswith("bound_rhs__")}
    assert rhs and rhs == expected
    assert all(type(value) is float for value in rhs.values())
    # the CCV budget takes a path the scenario declares, where it declares one
    ccv_path = {"coco1": sc.minimizer_path_length(),
                "coco2": sc.feasible_path_length()}.get(algorithm)
    if ccv_path is None:
        assert "ccv_bound_rhs" not in record.summary
    elif algorithm == "coco1":
        assert record.summary["ccv_bound_rhs"] == budgets.ensemble_rhs(
            diameter, n, ccv_path, grad_sq)
    else:
        assert record.summary["ccv_bound_rhs"] == budgets.coco2_ccv_rhs(
            gamma, v, g_lip, diameter, ccv_path, T)


def _holds(value, rhs):
    """The summary's budget check, on arrays of prefixes."""
    return value <= rhs * (1.0 + 1e-12) + 1e-12


@pytest.mark.parametrize("T", [50, 300])
def test_every_budget_holds_at_every_prefix(T):
    # each budget the summary checks at T also holds after every round t <= T:
    # a covered comparator's regret against its budget at its own path's
    # prefix, and coco1's and coco2's CCV against the CCV budget at the
    # prefix of the path the scenario declares for it
    ts = np.arange(1, T + 1)
    for name in SCENARIOS:
        for seed in range(3):
            sc = build_scenario(ScenarioSpec(name, horizon=T, seed=seed))
            ccv_paths = {"coco1": sc._minimizer_path, "coco2": sc._feasible_path}
            for algorithm in ALGORITHMS:
                record = run(cfg(name, T=T, seed=seed, algorithm=algorithm))
                summary, S = record.summary, record.S[:T]
                instance = (algorithm, name, seed)
                for comp_name, comp in record.comparators.items():
                    if f"bound_rhs__{comp_name}" in summary:
                        rhs = harness._budget(summary, comp.path, ts, S)
                        assert _holds(record.regret(comp_name), rhs).all(), (instance, comp_name)
                ccv_path = ccv_paths.get(algorithm)
                if ccv_path is not None:
                    rhs = harness._budget(summary, record.comparators[ccv_path].path, ts, S,
                                          ccv=True)
                    assert _holds(record.Q[:T], rhs).all(), instance


# ---------------------------------------------------------------------------
# CLI and config: every case of the command line is a row of
# tests/cli_cases.py; these tests need a monkeypatched scenario, the
# library's own calls or the process's umask

def write_config(tmp_path, **kw):
    payload = {
        "scenario": {"name": "static", "horizon": 40, "seed": 0, "params": {}},
        "algorithm": "coco2",
    }
    payload.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class _OfferingStatic(StaticScenario):
    """static, offering as its comparators the points ``offered`` maps each
    name to, given the horizon."""

    offered = {}

    def comparators(self):
        return {name: ComparatorSequence.from_points(points(self.horizon))
                for name, points in self.offered.items()}


@pytest.mark.parametrize("offered,chosen,message", [
    ({"interior-static": lambda T: np.zeros((T, 1))}, [],
     "at least one comparator must be registered"),
    ({"short": lambda T: np.zeros((T - 1, 1))}, None, "comparator 'short' has wrong shape (19, 1)"),
    ({"outside": lambda T: np.full((T, 1), 4.0)}, None,
     "comparator 'outside' leaves the decision set"),
], ids=["none-chosen", "wrong-shape", "outside-the-decision-set"])
def test_comparator_a_run_cannot_score_is_config_error(monkeypatch, tmp_path, capsys, offered,
                                                       chosen, message):
    monkeypatch.setattr(_OfferingStatic, "offered", offered)
    monkeypatch.setitem(SCENARIOS, "offering-static", _OfferingStatic)
    played = []
    monkeypatch.setattr(harness, "_play", lambda *args: played.append(args))
    extra = {} if chosen is None else {"comparators": chosen}
    config = write_config(tmp_path, scenario={"name": "offering-static", "horizon": 20}, **extra)
    assert main(["run", "--config", config]) == 2
    assert message in capsys.readouterr().err
    assert not played  # rejected before any round is played


class _Misnamed(Scenario):
    """A scenario whose feasible CCV path names no comparator it declares."""

    def __init__(self, spec):
        super().__init__(spec, DecisionSet(Box([-1.0], [1.0]), 2.0), 1.0,
                         {"origin": np.zeros((spec.horizon, 1))}, feasible_path="center")


def test_a_ccv_path_that_names_no_comparator_is_config_error(monkeypatch):
    monkeypatch.setitem(SCENARIOS, "misnamed", _Misnamed)
    with pytest.raises(ConfigError, match="bad scenario: path 'center' is not a declared "
                                          r"comparator; 'misnamed' declares \['origin'\]"):
        run(cfg("misnamed", T=5))


def test_persist_writes_summary_json_as_strict_json(tmp_path):
    record = run(cfg("static", T=5))
    record.summary["final_ccv"] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        persist(record, cfg("static", T=5), str(tmp_path))
    assert not (tmp_path / "summary.json").exists()


def test_verify_of_a_budget_that_is_not_finite_is_one_problem(tmp_path):
    out = str(tmp_path / "run")
    run(cfg("disjoint-alternating", T=7, seed=3, algorithm="adagrad", path_estimate=1.0,
            out_dir=out))
    _edit_config(out, path_estimate=1e308)
    assert verify_run(out) == ["summary value bound_rhs__min-feasible-path is not finite: nan"]


def _edit_config(out, **changes):
    path = os.path.join(out, "config.json")
    config = json.loads(open(path).read())
    open(path, "w").write(json.dumps({**config, **changes}))


def test_atomic_write_that_fails_keeps_the_target_and_leaves_no_temporary_file(monkeypatch,
                                                                             tmp_path):
    target = tmp_path / "summary.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        harness._atomic_write(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_atomic_write_of_a_writer_that_fails_after_a_block_keeps_the_target(tmp_path):
    target = tmp_path / "rounds.csv"
    target.write_text("old\n")
    record = run(cfg("tracking-ball", T=3 * harness.ORACLE_BLOCK, seed=1, algorithm="coco1"))

    class Full(Exception):
        pass

    class FailsAfterOneBlock:
        def __init__(self, f):
            self.f, self.blocks = f, 0

        def write(self, text):
            if self.blocks == 2:  # the header, then the first block of rows
                raise Full
            self.blocks += 1
            self.f.write(text)

    with pytest.raises(Full):
        harness._atomic_write(str(target),
                              lambda f: harness.rounds_csv_text(record, FailsAfterOneBlock(f)))
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rounds.csv"]


def test_written_files_take_the_umask_as_open_does(tmp_path):
    old = os.umask(0o022)
    try:
        out = tmp_path / "run"
        run(cfg("static", T=20, out_dir=str(out), emit_plotdata=True))
        config = write_config(tmp_path, horizons=[20, 40, 80])
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "sw")]) == 0
    finally:
        os.umask(old)
    written = [out / name for name in ("rounds.csv", "summary.json", "config.json",
                                       "plotdata.csv")] + [tmp_path / "sw" / "sweep.json"]
    assert [oct(p.stat().st_mode & 0o777) for p in written] == [oct(0o644)] * len(written)


def test_cli_non_finite_gradient_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # plain descent must not freeze on a NaN gradient and report a budget verdict
    monkeypatch.setattr(_BrokenStatic, "bad_grad", [float("nan")])
    monkeypatch.setitem(SCENARIOS, "broken-static", _BrokenStatic)
    config = write_config(tmp_path, algorithm="adagrad",
                          scenario={"name": "broken-static", "horizon": 10})
    assert main(["run", "--config", config]) == 3
    assert "round 3" in capsys.readouterr().err


def test_adagrad_integer_path_estimate_is_recorded_as_a_float(tmp_path):
    out = tmp_path / "run"
    run(cfg(algorithm="adagrad", path_estimate=3, out_dir=str(out)))
    text = (out / "summary.json").read_text()
    assert '"path_estimate": 3.0' in text and json.loads(text)["mode"] == "known_path"
    assert verify_run(str(out)) == []


def test_package_imports_and_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import coco_lab, coco_lab.cli\n"
            "from coco_lab.harness import RunConfig, run\n"
            "from coco_lab.scenarios import ScenarioSpec\n"
            "run(RunConfig(scenario=ScenarioSpec('static', horizon=20), algorithm='coco2'))\n")
    src = os.path.dirname(os.path.dirname(coco_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_g_lip_below_the_oracles_bound_is_rejected():
    for bad in (0, -1, 0.001, 0.999, math.inf, math.nan):
        with pytest.raises(ValueError, match="g_lip"):
            StaticScenario(ScenarioSpec("static", horizon=5, params={"g_lip": bad}))
    assert StaticScenario(ScenarioSpec("static", horizon=5, params={"g_lip": 1.0})).g_lip == 1.0


def test_g_lip_must_agree_with_the_scenarios():
    with pytest.raises(ConfigError, match="disagrees"):
        RunConfig(ScenarioSpec("static", 20, params={"g_lip": 3.0}), "coco2", g_lip=2.0)
    # equal values, as every config.json holds them, load
    scenario = {"name": "static", "horizon": 20, "seed": 0, "params": {"g_lip": 3.0}}
    assert RunConfig.from_json({"scenario": scenario, "algorithm": "coco2", "g_lip": 3.0}) == \
        RunConfig(ScenarioSpec(**scenario), "coco2", g_lip=3.0)


def test_library_run_takes_a_config_with_horizons():
    # the command line's run refuses one; only its sweep reads horizons
    config = {"scenario": {"name": "static", "horizon": 40}, "algorithm": "coco2",
              "horizons": [20, 40, 80]}
    assert run(RunConfig.from_json(config)).summary["horizon"] == 40


# a library caller gets the command line's checks (tests/cli_cases.py), not
# a TypeError from inside run
@pytest.mark.parametrize("fields,message", [
    ({"horizon": 20.7, "seed": 1.9}, "horizon must be an integer"),
    ({"horizon": 20.0}, "horizon must be an integer"),
    ({"horizon": True}, "horizon must be an integer"),
    ({"horizon": "20"}, "horizon must be an integer"),
    ({"seed": 1.9}, "seed must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"name": "tracking-ball", "seed": -1}, "seed must be non-negative, got -1"),
    ({"horizon": 0}, "horizon must be at least 1"),
    ({"name": "tracking-ball", "horizon": 0}, "horizon must be at least 1"),
    ({"params": None}, "params must be a JSON object, got None"),
    ({"params": [["radius", 2.0]]}, "params must be a JSON object, got [['radius', 2.0]]"),
])
def test_scenario_spec_rejects_a_field_it_cannot_take(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioSpec(**{"name": "static", "horizon": 20, "seed": 0, **fields})


@pytest.mark.parametrize("config,message", [
    ({"out_dir": 5}, "out_dir must be a path, got int 5"),
    ({"out_dir": ["runs"]}, "out_dir must be a path, got list ['runs']"),
    ({"out_dir": ""}, "out_dir must be a path, got str ''"),
    ({"comparators": "interior-static"},
     "comparators must be a list of names, got str 'interior-static'"),
    ({"comparators": {"interior-static": 1}}, "comparators must be a list of names, got dict"),
    ({"comparators": ["interior-static", 3]}, "comparators must be a list of names, got list"),
    ({"V": 3.0}, "unknown config keys ['V']; config reads scenario, algorithm, comparators, v,"),
    ({"scenario": {"name": "static", "horizn": 20}},
     "unknown scenario keys ['horizn']; scenario reads name, horizon, seed, params"),
    ({"scenario": "static"}, "scenario must be a JSON object, got 'static'"),
])
def test_run_config_from_json_rejects_a_field_it_cannot_take(config, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig.from_json({"scenario": {"name": "static"}, "algorithm": "coco2", **config})


@pytest.mark.parametrize("name,params", [
    ("static", {"bogus": 1}), ("tracking-ball", {"ring_radiuss": 1.0}),
    ("trivial", {"radius": 2.0})])
def test_build_scenario_rejects_an_unknown_param(name, params):
    with pytest.raises(ValueError, match=re.escape(f"unknown params {sorted(params)}")):
        build_scenario(ScenarioSpec(name, horizon=20, params=params))


@dataclass
class TracedConfig(RunConfig):
    """A config with one field more, as a later switch would add it."""

    trace: bool = False


@pytest.mark.parametrize("config", [
    RunConfig(ScenarioSpec("tracking-ball", 40, seed=2, params={"ring_radius": 1.0}), "coco2",
              comparators=["minimizer-path"], v=3.0, g_lip=1.5, horizons=[10, 20, 40],
              out_dir="run", emit_plotdata=True),
    RunConfig(ScenarioSpec("oco-mix", 30, seed=1), "adagrad", path_estimate=2.0,
              horizons=[10, 20, 30], out_dir="run"),
    TracedConfig(ScenarioSpec("static", 20), "coco1", g_lip=2.0, out_dir="run", trace=True),
], ids=["coco2", "adagrad", "new-field"])
def test_config_json_reads_back_to_the_config_less_how_it_was_invoked(tmp_path, config):
    # a field added to RunConfig is parsed and written with no other edit
    out = str(tmp_path / "run")
    run(replace(config, out_dir=out))
    with open(os.path.join(out, "config.json")) as f:
        saved = json.load(f)
    assert set(saved) == {f.name for f in fields(config)} - {"horizons", "out_dir"}
    assert type(config).from_json(saved) == replace(config, horizons=None, out_dir=None)
