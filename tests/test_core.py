import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coco_lab.core import (
    ComparatorSequence,
    DecisionSet,
    RunRecord,
    ccv_update,
    g_plus,
    path_length,
    path_prefix,
)
from coco_lab.geometry import Ball, Box
from coco_lab.scenarios import make_scenario


def test_g_plus_examples():
    assert g_plus(-0.5) == 0.0
    assert g_plus(0.0) == 0.0
    assert g_plus(0.3) == 0.3
    with pytest.raises(ValueError):
        g_plus(float("nan"))


def test_ccv_update_examples():
    assert ccv_update(1.2, -0.5) == 1.2
    assert ccv_update(1.2, 0.3) == pytest.approx(1.5)
    assert ccv_update(0.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="negative CCV"):
        ccv_update(-0.1, 0.0)


def test_path_length_examples():
    assert path_length([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]) == 0.0
    assert path_length([[0.0], [1.0], [0.0]]) == pytest.approx(2.0)
    assert path_length([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)
    assert path_length([[2.5, -1.0]]) == 0.0
    with pytest.raises(ValueError, match="empty comparator"):
        path_length(np.zeros((0, 2)))


coords = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=12))
def test_path_length_reversal_and_duplicate_invariance(points):
    pts = np.asarray(points, dtype=float)
    p = path_length(pts)
    assert path_length(pts[::-1]) == pytest.approx(p, abs=1e-9)
    dup = np.insert(pts, 1 if len(pts) > 1 else 0, pts[0], axis=0)
    assert path_length(dup) == pytest.approx(p, abs=1e-9)
    assert p >= 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1,
                max_size=40))
@example([(0.3, -0.7)])
@example([(1.5, 2.5)] * 7)
def test_path_length_is_the_last_prefix_and_adds_its_steps_in_order(points):
    pts = np.asarray(points, dtype=float)
    prefix = path_prefix(pts)
    expected, total = [0.0], 0.0
    for step in np.diff(pts, axis=0):
        total += float(np.linalg.norm(step))
        expected.append(total)
    assert prefix.tolist() == expected  # bit for bit, every prefix
    assert path_length(pts) == prefix[-1] == total


def test_decision_set_requires_origin_and_positive_diameter():
    with pytest.raises(ValueError, match="origin"):
        DecisionSet(Box([1.0], [2.0]), 1.0)
    with pytest.raises(ValueError, match="diameter"):
        DecisionSet(Box([-1.0], [1.0]), 0.0)
    # an infinite diameter would give the ensemble infinitely many experts
    with pytest.raises(ValueError, match="diameter must be finite and positive, got inf"):
        DecisionSet(Box([-1.0], [1.0]), math.inf)
    with pytest.raises(ValueError, match="diameter must be finite and positive, got True"):
        DecisionSet(Box([-1.0], [1.0]), True)
    ds = DecisionSet(Ball(np.zeros(2), 3.0), 6.0)
    assert ds.dim == 2


def test_decision_set_projection_pairs_within_diameter():
    rng = np.random.default_rng(1)
    ds = DecisionSet(Ball(np.zeros(3), 2.0), 4.0)
    pts = ds.project(rng.normal(scale=5.0, size=(64, 3)))
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    assert np.max(dists) <= ds.diameter + 1e-9


def test_comparator_sequence_from_points():
    comp = ComparatorSequence.from_points([[0.0], [1.0], [0.0]], feasible=True, name="zig")
    assert comp.path_length == pytest.approx(2.0)
    assert comp.points.shape == (3, 1)


def test_comparator_feasibility_validated_against_constraints():
    sc = make_scenario("alternating", 6)
    for comp in sc.comparators().values():
        if not comp.feasible:
            continue
        for t in range(1, sc.horizon + 1):
            _, constraint = sc.generate(t)
            assert float(constraint.value(comp.points[t - 1])) <= 1e-9


def test_run_record_rejects_decreasing_ccv():
    # round 1 violates by 1; the learner then claims a CCV of 0.5 after round 2
    rec = RunRecord(dimension=1, capacity=2)
    rec.fill([0.0], [1.0])
    with pytest.raises(ValueError, match="decreased at round 2"):
        rec.fill([0.0], [0.0], q=0.5)
    with pytest.raises(ValueError, match="not the Q column's 1.0 at round 2"):
        rec.fill([0.0], [0.0], q=1.5)
    assert rec.horizon == 1


def test_run_record_fill_has_the_bits_of_the_per_round_bookkeeping():
    rng = np.random.default_rng(5)
    g = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, 40),
                        [0.0, -0.0, 1e-300, -1e-300, 1e16, 1.0, 1.0]])
    rec = RunRecord(dimension=2, capacity=len(g))
    q = 0.0
    for start, stop in ((0, 1), (1, 17), (17, 40), (40, len(g))):
        for t in range(start, stop):
            q = ccv_update(q, float(g[t]))
        rec.fill(np.zeros(stop - start), g[start:stop], q=q)
    assert rec.horizon == len(g)
    expect_gplus = [g_plus(float(v)) for v in g]
    assert np.array_equal(rec.gplus.view(np.uint64), np.array(expect_gplus).view(np.uint64))
    assert rec.Q[-1] == q and np.array_equal(rec.g, g)


def test_run_record_row_count_and_monotone_q():
    sc = make_scenario("disjoint-alternating", 25)
    from coco_lab.coco import Coco1State, coco1_round

    state = Coco1State.create(sc.decision_set, 25, sc.g_lip)
    rec = RunRecord(dimension=1, capacity=25)
    for t in range(1, 26):
        cost, constraint = sc.generate(t)
        _, rec.x[t - 1], rec.grad_norm[t - 1] = coco1_round(state, cost, constraint)
        x = rec.x[t - 1]
        rec.fill([float(cost.value(x))], [float(constraint.value(x))], q=state.q)
    assert rec.horizon == 25
    qs = rec.Q[:rec.horizon].tolist()
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert qs[-1] >= 0.0


def test_surrogate_grad_sq_sum_adds_left_to_right():
    # squares 1e16, 1, 1: added in turn, each 1 rounds away (1e16 + 1 is a
    # tie that rounds to even); a compensated sum (the builtin ``sum`` of
    # floats from Python 3.12) gives 1e16 + 2. The summary and the
    # plotdata prefixes must agree on every Python version.
    rec = RunRecord(dimension=1, capacity=3)
    rec.grad_norm[:] = [1e8, 1.0, 1.0]
    rec.fill(np.zeros(3), np.zeros(3))
    prefixes = np.cumsum([norm ** 2 for norm in rec.grad_norm.tolist()])
    assert rec.surrogate_grad_sq_sum() == prefixes[-1] == 1e16
    assert RunRecord(dimension=1).surrogate_grad_sq_sum() == 0.0
