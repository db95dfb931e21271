import itertools

import numpy as np
import pytest

from coco_lab.core import path_length
from coco_lab.geometry import Ball, Box, dist
from reference import (
    GridSpec,
    constrained_minimizer_path,
    grid_argmin,
    min_feasible_path,
)
from coco_lab.scenarios import ball_constraint, make_scenario, norm_cost


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="dimension"):
        GridSpec([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.1)
    with pytest.raises(ValueError, match="cap"):
        GridSpec([0.0, 0.0], [400.0, 400.0], 0.1)
    with pytest.raises(ValueError, match="mesh"):
        GridSpec([0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="vectors of equal length"):
        GridSpec([0.0, 0.0], [1.0], 0.1)
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        GridSpec([0.0, 2.0], [1.0, 1.0], 0.1)
    grid = GridSpec([0.0], [1.0], 0.25)
    assert np.allclose(grid.points().ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_points_lexicographic_order():
    grid = GridSpec([0.0, 0.0], [0.2, 0.1], 0.1)
    pts = grid.points()
    as_tuples = [tuple(p) for p in pts]
    assert as_tuples == sorted(as_tuples)


def test_grid_argmin_symmetric_quadratic():
    grid = GridSpec([-2.0, -2.0], [2.0, 2.0], 0.01)
    region = Ball(np.zeros(2), 1.0)
    am = grid_argmin(lambda x: np.sum(np.asarray(x) ** 2, axis=-1), region, grid)
    assert np.allclose(am, [0.0, 0.0], atol=1e-12)


def test_grid_argmin_penalized_cost_fixture():
    # f(x)=|x-3| with feasible interval [-1,1]: the distance-penalized cost
    # attains its unconstrained minimum at the feasible boundary x=1
    geom = Box([-2.0], [4.0])
    cost = norm_cost([3.0])
    region = ball_constraint([0.0], 1.0, geom).feasible_region
    grid = GridSpec([-2.0], [4.0], 0.01)
    am = grid_argmin(lambda x: np.asarray(cost.value(x)) + 2.0 * dist(x, region),
                     geom, grid)
    assert abs(float(am[0]) - 1.0) <= 0.01


def test_grid_argmin_double_scan_agreement():
    rng = np.random.default_rng(14)
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 0.05)
    region = Box([-1.0, -1.0], [1.0, 1.0])
    for _ in range(5):
        c = rng.uniform(-0.8, 0.8, 2)
        w = rng.uniform(0.5, 2.0, 2)

        def fn(x):
            return np.sum(w * (np.asarray(x) - c) ** 2, axis=-1)

        am = grid_argmin(fn, region, grid)
        # independent exhaustive scan, running minimum point by point
        best, best_val = None, np.inf
        for p in grid.points():
            v = float(fn(p))
            if v < best_val:
                best, best_val = p, v
        assert np.array_equal(am, best)


def test_grid_argmin_empty_region():
    grid = GridSpec([0.0], [1.0], 0.1)
    with pytest.raises(ValueError, match="empty grid-region intersection"):
        grid_argmin(lambda x: np.zeros(np.shape(x)[0]), Box([5.0], [6.0]), grid)


def test_constrained_minimizer_path_cases():
    sc = make_scenario("static", 8)
    pairs = [sc.generate(t) for t in range(1, 9)]
    grid = GridSpec([-3.0], [3.0], 0.01)
    pts, p_star = constrained_minimizer_path([c for c, _ in pairs],
                                             [k for _, k in pairs], grid)
    assert p_star == 0.0  # time-invariant instance

    # alternating targets +/-2 with feasible interval [-1,1]: minimizers
    # alternate between the endpoints, one hop of 2 per round
    geom = Box([-3.0], [3.0])
    T = 6
    costs = [norm_cost([2.0 if t % 2 == 0 else -2.0]) for t in range(T)]
    cons = [ball_constraint([0.0], 1.0, geom) for _ in range(T)]
    pts, p_star = constrained_minimizer_path(costs, cons, grid)
    assert np.allclose(pts.ravel(), [1, -1, 1, -1, 1, -1])
    assert p_star == pytest.approx(2.0 * (T - 1))

    # definitional: matches grid_argmin round by round
    for (c, k), p in zip(zip(costs, cons), pts):
        assert np.array_equal(grid_argmin(c.value, k.feasible_region, grid), p)


def test_min_feasible_path_common_point_and_disjoint_hops():
    grid = GridSpec([0.0], [3.0], 0.01)
    for name, expect in (("alternating", 0.0), ("disjoint-alternating", 9.0)):
        sc = make_scenario(name, 10)
        cons = [sc.generate(t)[1] for t in range(1, 11)]
        g = GridSpec([-3.0], [3.0], 0.01) if name == "alternating" else grid
        pts, p_min = min_feasible_path(cons, g)
        assert p_min == pytest.approx(expect, abs=1e-12)
        for k, p in zip(cons, pts):
            assert float(k.value(p)) <= 1e-9


def test_min_feasible_path_never_beats_feasible_sequences():
    sc = make_scenario("disjoint-alternating", 8)
    pairs = [sc.generate(t) for t in range(1, 9)]
    grid = GridSpec([0.0], [3.0], 0.05)
    _, p_min = min_feasible_path([k for _, k in pairs], grid)
    _, p_star = constrained_minimizer_path([c for c, _ in pairs],
                                           [k for _, k in pairs], grid)
    assert p_min <= p_star + 1e-12


def test_min_feasible_path_matches_exhaustive_enumeration():
    rng = np.random.default_rng(15)
    for trial in range(20):
        T = int(rng.integers(2, 5))
        grid = GridSpec([0.0], [3.0], 0.2)  # 16 points per round
        geom = Box([0.0], [3.0])
        cons = []
        for _ in range(T):
            c = rng.uniform(0.3, 2.7)
            r = rng.uniform(0.15, 0.8)
            cons.append(ball_constraint([c], r, geom))
        _, p_min = min_feasible_path(cons, grid)

        pts = grid.points()
        stages = [pts[np.asarray(k.feasible_region.contains(pts))] for k in cons]
        assert all(len(s) <= 20 for s in stages)
        best = np.inf
        for combo in itertools.product(*stages):
            best = min(best, path_length(np.array(combo)))
        assert p_min == pytest.approx(best, abs=1e-12)


def test_min_feasible_path_mesh_refinement_control():
    sc = make_scenario("disjoint-alternating", 12)
    cons = [sc.generate(t)[1] for t in range(1, 13)]
    h = 0.08
    _, coarse = min_feasible_path(cons, GridSpec([0.0], [3.0], h))
    _, fine = min_feasible_path(cons, GridSpec([0.0], [3.0], h / 2.0))
    assert fine <= coarse + 1e-9 or fine - coarse <= 1 * h * 12


def test_path_oracles_reject_inputs_that_are_not_a_run():
    grid = GridSpec([0.0], [1.0], 0.1)
    geom = Box([-3.0], [3.0])
    with pytest.raises(ValueError, match="pair up round by round"):
        constrained_minimizer_path([norm_cost([0.5])], [], grid)
    with pytest.raises(ValueError, match="empty run"):
        min_feasible_path([], grid)
    with pytest.raises(ValueError, match="empty grid-region intersection"):
        min_feasible_path([ball_constraint([0.5], 0.2, geom),
                           ball_constraint([2.5], 0.2, geom)], grid)


def test_min_feasible_path_horizon_cap():
    sc = make_scenario("alternating", 2)
    cons = [sc.generate(t)[1] for t in range(1, 3)] * 150
    with pytest.raises(ValueError, match="capped"):
        min_feasible_path(cons, GridSpec([-3.0], [3.0], 0.5))


def test_grid_argmin_batch_error_surfaces_after_one_call():
    calls = []

    def broken(x):
        calls.append(np.shape(x))
        raise RuntimeError("oracle broke on its batch")

    with pytest.raises(RuntimeError, match="oracle broke on its batch"):
        grid_argmin(broken, Box([0.0], [1.0]), GridSpec([0.0], [1.0], 0.25))
    assert calls == [(5, 1)]


def test_grid_argmin_calls_point_by_point_on_a_wrongly_shaped_batch():
    # a point-only oracle: on a batch it returns one number, not one per point
    def point_only(x):
        return float(np.sum((np.asarray(x) - 0.3) ** 2))

    am = grid_argmin(point_only, Box([0.0], [1.0]), GridSpec([0.0], [1.0], 0.25))
    assert np.array_equal(am, [0.25])
