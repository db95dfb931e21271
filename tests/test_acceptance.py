"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and instance sizes are fixed here, not configurable.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from coco_lab.coco import (
    Coco1State,
    Coco2State,
    coco1_round,
    coco2_round,
)
from coco_lab.core import g_plus, path_length
from coco_lab.geometry import (
    Ball,
    Box,
    Halfspace,
    Intersection,
    dist,
    dist_subgradient,
    project,
)
from coco_lab.harness import RunConfig, run, verify_run
from coco_lab.scenarios import (
    ScenarioSpec,
    affine_cost,
    ball_constraint,
    box_constraint,
    halfspace_constraint,
    make_scenario,
    norm_cost,
)
from coco_lab.budgets import ensemble_rhs
from coco_lab.subroutines import AhagState, adahedge_step, ahag_round
from coco_lab.subroutines import HedgeState
from reference import (GridSpec, auxiliary_value, constrained_minimizer_path, grid_argmin,
                       min_feasible_path, sweep_slope)


def _report(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def _random_set_suite(rng, d):
    lo = rng.uniform(-2, -0.5, d)
    hi = rng.uniform(0.5, 2, d)
    normal = rng.normal(size=d)
    normal /= np.linalg.norm(normal)
    box = Box(lo, hi)
    ball = Ball(rng.uniform(-0.5, 0.5, d), rng.uniform(0.5, 1.5))
    half = Halfspace(normal, rng.uniform(0.2, 1.0))
    return [box, ball, half, Intersection((box, half)), Intersection((ball, half))]


def test_criterion_1_geometry_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    fd_step = 1e-5
    for d in (1, 2, 5):
        sets = _random_set_suite(rng, d)
        for s in sets:
            xs = rng.uniform(-4, 4, size=(16, d))
            ys = rng.uniform(-4, 4, size=(16, d))
            px, py = project(xs, s), project(ys, s)
            assert np.max(np.linalg.norm(project(px, s) - px, axis=-1)) <= 1e-8
            assert np.all(np.linalg.norm(px - py, axis=-1)
                          <= np.linalg.norm(xs - ys, axis=-1) + 1e-9)
            dx, dy = dist(xs, s), dist(ys, s)
            assert np.all(dist((xs + ys) / 2, s) <= (dx + dy) / 2 + 1e-9)
            assert np.all(np.abs(dx - dy) <= np.linalg.norm(xs - ys, axis=-1) + 1e-9)
        # finite-difference check on 200 exterior points per dimension
        checked = 0
        while checked < 200:
            s = sets[checked % len(sets)]
            x = rng.uniform(-4, 4, d)
            if dist(x, s) < 0.1:
                continue
            g = dist_subgradient(x, s)
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = fd_step
                fd[i] = (dist(x + e, s) - dist(x - e, s)) / (2 * fd_step)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-4
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"projection/distance properties and 600 FD checks in {elapsed:.1f}s")


def test_criterion_2_penalized_argmin_lands_in_feasible_set():
    h = 0.01
    rng = np.random.default_rng(101)
    families = ("halfspace", "ball", "box")
    total = 0
    for family in families:
        for case in range(50):
            d = 1 if case % 2 == 0 else 2
            span = 2.0
            geom = Box([-span] * d, [span] * d)
            grid = GridSpec([-span] * d, [span] * d, h)
            if case % 2 == 0:
                a = rng.normal(size=d)
                a /= np.linalg.norm(a)
                cost = affine_cost(a * rng.uniform(0.3, 1.0))
            else:
                cost = norm_cost(rng.uniform(-1.5, 1.5, d))
            if family == "halfspace":
                n = rng.normal(size=d)
                n /= np.linalg.norm(n)
                anchor = rng.uniform(-1.0, 1.0, d)
                constraint = halfspace_constraint(n, float(n @ anchor), geom)
            elif family == "ball":
                constraint = ball_constraint(rng.uniform(-1.0, 1.0, d),
                                             rng.uniform(0.3, 1.2), geom)
            else:
                lo = rng.uniform(-1.5, 0.0, d)
                constraint = box_constraint(lo, lo + rng.uniform(0.4, 1.5, d), geom)
            g_lip = 1.0
            region = constraint.feasible_region
            x_hat = grid_argmin(
                lambda x: np.asarray(cost.value(x)) + 2.0 * g_lip * dist(x, region),
                geom, grid)
            assert float(constraint.value(x_hat)) <= g_lip * h + 1e-12
            total += 1

    # fixtures: 1-d |x-3| with feasible [-1,1]; 2-d norm to (3,0) with unit disk
    geom1 = Box([-2.0], [4.0])
    region1 = ball_constraint([0.0], 1.0, geom1).feasible_region
    cost1 = norm_cost([3.0])
    am1 = grid_argmin(lambda x: np.asarray(cost1.value(x)) + 2.0 * dist(x, region1),
                      geom1, GridSpec([-2.0], [4.0], h))
    assert abs(float(am1[0]) - 1.0) <= h

    geom2 = Box([-2.0, -2.0], [4.0, 4.0])
    region2 = ball_constraint([0.0, 0.0], 1.0, geom2).feasible_region
    cost2 = norm_cost([3.0, 0.0])
    am2 = grid_argmin(lambda x: np.asarray(cost2.value(x)) + 2.0 * dist(x, region2),
                      geom2, GridSpec([-2.0, -2.0], [4.0, 4.0], h))
    assert np.linalg.norm(am2 - np.array([1.0, 0.0])) <= h * math.sqrt(2.0)
    _report(2, f"{total} random penalized argmins satisfied g(x_hat) <= G*h, plus fixtures")


def test_criterion_3_adagrad_regret_budgets():
    T = 2000
    violations = 0
    checked = 0
    for seed in range(10):
        for path_estimate in (None, 50.0):
            config = RunConfig(
                scenario=ScenarioSpec("oco-mix", horizon=T, seed=seed),
                algorithm="adagrad", path_estimate=path_estimate)
            s = run(config).summary
            names = [k[len("regret__"):] for k in s if k.startswith("regret__")]
            for name in names:
                key = f"bound_rhs__{name}"
                if path_estimate is not None and s[f"path_length__{name}"] > path_estimate:
                    assert key not in s  # out of the known-path contract
                    continue
                checked += 1
                if not s[f"regret__{name}"] < s[key]:  # strict
                    violations += 1
    assert checked >= 40
    assert violations == 0
    _report(3, f"20 runs, {checked} comparator budgets, strict inequality, 0 violations")


def test_criterion_4_adahedge_regret_budget():
    T = 5000
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = (2, 6, 16)[seed % 3]
        st = HedgeState.uniform(n)
        hedge_loss, cum, linf_sq = 0.0, np.zeros(n), 0.0
        for _ in range(T):
            scale = 10.0 ** rng.uniform(-1.5, 1.5)  # three orders of magnitude
            losses = rng.uniform(-1.0, 1.0, n) * scale
            hedge_loss += float(st.weights @ losses)
            cum += losses
            linf_sq += float(np.max(np.abs(losses))) ** 2
            adahedge_step(st, losses)
        regret = hedge_loss - float(np.min(cum))
        rhs = 2.0 * math.sqrt((4.0 + math.log(n)) * linf_sq)
        if not regret <= rhs:
            violations += 1
    assert violations == 0
    _report(4, "20 expert streams (N in {2,6,16}, T=5000), 0 budget violations")


def test_criterion_5_ensemble_regret_budget():
    T = 2000
    violations = 0
    for seed in range(10):
        sc = make_scenario("oco-mix", T, seed=seed)
        st = AhagState.create(sc.decision_set, T)
        diam = sc.decision_set.diameter
        costs, plays = [], []
        for t in range(1, T + 1):
            cost, _ = sc.generate(t)
            x = st.combined_point
            grad = np.asarray(cost.subgradient(x), dtype=float)
            linf = float(np.max(np.abs(st.experts.point @ grad)))
            assert linf <= diam * float(np.linalg.norm(grad)) * (1 + 1e-9) + 1e-12
            _, played = ahag_round(st, cost)
            costs.append(cost)
            plays.append(played)
        comps = sc.comparators()
        paths = sorted(c.path_length for c in comps.values())
        assert paths[0] == 0.0 and paths[1] >= 0.5 * math.sqrt(T) and paths[2] >= 0.25 * T
        for comp in comps.values():
            regret = sum(float(c.value(x)) - float(c.value(u))
                         for c, x, u in zip(costs, plays, comp.points))
            if not regret <= ensemble_rhs(diam, st.num_experts, comp.path_length,
                                          st.grad_sq_sum):
                violations += 1
    assert violations == 0
    _report(5, "10 ensemble runs x 3 path scales, loss-range cap held every round")


def test_criterion_6_full_feedback_coco():
    start = time.perf_counter()
    T = 2000

    # (a) + (b): decomposition identity and budget inequalities
    for name in ("disjoint-alternating", "tracking-ball"):
        config = RunConfig(scenario=ScenarioSpec(name, horizon=T, seed=0),
                           algorithm="coco1")
        rec = run(config)
        s = rec.summary
        assert s["ccv_bound_ok"], name
        for k in s:
            if k.startswith("bound_ok__"):
                assert s[k], (name, k)

        sc = make_scenario(name, T, seed=0)
        xs = rec.x[:rec.horizon]
        for comp in sc.comparators().values():
            lhs = s["final_ccv"]
            rhs = 0.0
            for t in range(1, T + 1):
                cost, constraint = sc.generate(t)
                x, u = xs[t - 1], comp.points[t - 1]
                aux_x = auxiliary_value(cost, constraint.feasible_region, sc.g_lip, x)
                aux_u = auxiliary_value(cost, constraint.feasible_region, sc.g_lip, u)
                lhs += aux_x - aux_u
                rhs += (aux_x + g_plus(float(constraint.value(x)))
                        - aux_u - g_plus(float(constraint.value(u))))
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs), abs(rhs))

    # closed-form oracle paths cross-checked at a DP-sized truncation
    t_small = 20
    sc = make_scenario("disjoint-alternating", t_small)
    pairs = [sc.generate(t) for t in range(1, t_small + 1)]
    grid = GridSpec([0.0], [3.0], 0.01)
    _, p_star = constrained_minimizer_path([c for c, _ in pairs],
                                           [k for _, k in pairs], grid)
    assert p_star == pytest.approx(sc.minimizer_path_length(), abs=1e-9)

    # (c) CCV sublinearity on the bounded-minimizer-path scenario
    config = RunConfig(scenario=ScenarioSpec("tracking-ball", horizon=1000, seed=0),
                       algorithm="coco1", horizons=[1000, 10_000, 100_000])
    slope = sweep_slope(config, "ccv")
    assert slope <= 0.6
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, f"identity to 1e-6, budgets hold, CCV slope {slope:.3f} <= 0.6 "
               f"({elapsed:.0f}s < 5min)")


def test_criterion_7_first_order_coco():
    T = 2000
    # (a) budgets with the default V on both scenarios
    for name in ("disjoint-alternating", "tracking-ball"):
        config = RunConfig(scenario=ScenarioSpec(name, horizon=T, seed=0),
                           algorithm="coco2")
        s = run(config).summary
        assert s["ccv_bound_ok"], name
        for k in s:
            if k.startswith("bound_ok__"):
                assert s[k], (name, k)

    # (c) the no-common-feasible-point instance: CCV within the budget
    # evaluated at the exact minimum feasible path T-1
    config = RunConfig(scenario=ScenarioSpec("disjoint-alternating", horizon=T, seed=0),
                       algorithm="coco2")
    s = run(config).summary
    assert s["ccv_bound_path"] == pytest.approx(T - 1)
    assert s["final_ccv"] <= s["ccv_bound_rhs"]

    # (b) CCV sublinearity under common feasibility (min feasible path 0)
    config = RunConfig(scenario=ScenarioSpec("static", horizon=1000, seed=0),
                       algorithm="coco2", horizons=[1000, 10_000, 100_000])
    slope = sweep_slope(config, "ccv")
    assert slope <= 0.85
    _report(7, f"budgets hold incl. min-feasible-path T-1; CCV slope {slope:.3f} <= 0.85")


def test_criterion_8_reduction_sanity():
    T = 500
    sc = make_scenario("oco-mix", T, seed=4)  # constraints are identically -1
    c1 = Coco1State.create(sc.decision_set, T, sc.g_lip)
    ens = AhagState.create(sc.decision_set, T)
    for t in range(1, T + 1):
        cost, constraint = sc.generate(t)
        assert float(constraint.value(ens.combined_point)) == -1.0
        _, x1, _ = coco1_round(c1, cost, constraint)
        _, x2 = ahag_round(ens, cost)
        assert np.array_equal(x1, x2)  # bitwise identical trajectories
    assert c1.q == 0.0

    c2 = Coco2State.create(sc.decision_set, T, sc.g_lip)
    for t in range(1, T + 1):
        cost, constraint = sc.generate(t)
        _, x, _ = coco2_round(c2, cost, constraint)
        f, gplus = float(cost.value(x)), g_plus(float(constraint.value(x)))
        assert c2.q == 0.0
        surrogate_value = c2.v_param * f + 2.0 * c2.q * gplus
        assert abs(surrogate_value - c2.v_param * f) <= 1e-9
    _report(8, "inert constraints: full-feedback run bitwise equals the ensemble; "
               "first-order run keeps Q == 0")


def test_criterion_9_oracle_consistency():
    # DP vs exhaustive enumeration on 20 small instances
    rng = np.random.default_rng(102)
    geom = Box([0.0], [3.0])
    for _ in range(20):
        T = int(rng.integers(2, 5))
        grid = GridSpec([0.0], [3.0], 0.2)
        cons = [ball_constraint([rng.uniform(0.3, 2.7)], rng.uniform(0.15, 0.8), geom)
                for _ in range(T)]
        pts_all = grid.points()
        stages = [pts_all[np.asarray(k.feasible_region.contains(pts_all))] for k in cons]
        assert all(0 < len(s) <= 20 for s in stages)
        _, p_min = min_feasible_path(cons, grid)
        best = min(path_length(np.array(combo)) for combo in itertools.product(*stages))
        assert p_min == pytest.approx(best, abs=1e-12)

    # per-round minimizers are definitionally grid argmins
    sc = make_scenario("tracking-ball", 6, seed=1)
    grid2 = GridSpec([-3.0, -3.0], [3.0, 3.0], 0.05)
    pairs = [sc.generate(t) for t in range(1, 7)]
    pts, _ = constrained_minimizer_path([c for c, _ in pairs], [k for _, k in pairs], grid2)
    for (c, k), p in zip(pairs, pts):
        assert np.array_equal(grid_argmin(c.value, k.feasible_region, grid2), p)

    # named instances hit their exact DP values
    T = 14
    for name, expect in (("alternating", 0.0), ("disjoint-alternating", float(T - 1))):
        sc = make_scenario(name, T)
        cons = [sc.generate(t)[1] for t in range(1, T + 1)]
        bounds = sc.decision_set.geometry
        grid = GridSpec(bounds.lower, bounds.upper, 0.01)
        _, p_min = min_feasible_path(cons, grid)
        assert p_min == pytest.approx(expect, abs=1e-12)
    _report(9, "DP matches exhaustive enumeration (20 instances) and exact path values")


def test_criterion_10_harness_determinism_and_verification(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "scenario": {"name": "tracking-ball", "horizon": 120, "seed": 11, "params": {}},
        "algorithm": "coco2",
    }))
    from coco_lab.cli import main

    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", str(config_path), "--out", out1]) == 0
    assert main(["run", "--config", str(config_path), "--out", out2]) == 0
    csv1 = open(os.path.join(out1, "rounds.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "rounds.csv"), "rb").read()
    assert csv1 == csv2

    assert verify_run(out1) == []
    assert main(["report", out1, "--verify"]) == 0

    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"scenario": {"name": "nope", "horizon": 5},
                                      "algorithm": "coco1"}))
    assert main(["run", "--config", str(bad_config)]) == 2

    summary_path = os.path.join(out1, "summary.json")
    s = json.loads(open(summary_path).read())
    s["sum_cost"] += 1.0
    open(summary_path, "w").write(json.dumps(s))
    assert main(["report", out1, "--verify"]) == 3
    _report(10, "byte-identical reruns, verify reproduces the summary, exit codes 0/2/3")
