import math
import re
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coco_lab import coco, geometry, harness
from coco_lab.budgets import coco2_ccv_rhs, coco2_regret_rhs, ensemble_rhs
from coco_lab.coco import (
    Coco1State,
    Coco2State,
    auxiliary_value,
    coco1_round,
    coco1_surrogate_subgradient,
    coco2_default_v,
    coco2_gamma,
    coco2_round,
    coco2_surrogate_subgradient,
)
from coco_lab.core import ConstraintOracle, DecisionSet, RunRecord, g_plus, running_sum
from coco_lab.geometry import (Ball, Box, Halfspace, Intersection, ProjectionError,
                               dist, dist_subgradient, membership)
from coco_lab.harness import RunConfig, run
from coco_lab.scenarios import (
    BallConstraint,
    BoxConstraint,
    HalfspaceConstraint,
    ScenarioSpec,
    affine_cost,
    ball_constraint,
    box_constraint,
    constant_constraint,
    halfspace_constraint,
    make_scenario,
    norm_cost,
)
from coco_lab.subroutines import AhagState, ahag_round, num_experts


def interval_instance():
    """d=1 fixture: f(x)=x, g(x)=x-1, decision set [-3, 3]."""
    geom = Box([-3.0], [3.0])
    cost = affine_cost([1.0])
    constraint = halfspace_constraint([1.0], 1.0, geom)
    return DecisionSet(geom, 6.0), cost, constraint


def test_auxiliary_value_examples():
    geom = Box([-2.0], [4.0])
    cost = norm_cost([3.0])  # f(x) = |x - 3|
    feasible = ball_constraint([0.0], 1.0, geom).feasible_region  # [-1, 1]
    assert auxiliary_value(cost, feasible, 1.0, np.array([1.0])) == pytest.approx(2.0)
    assert auxiliary_value(cost, feasible, 1.0, np.array([3.0])) == pytest.approx(4.0)
    # feasible point: penalty vanishes
    assert auxiliary_value(cost, feasible, 1.0, np.array([0.5])) == pytest.approx(2.5)


def test_penalized_cost_regret_dominates_plain_regret():
    # against any feasible comparator the penalized-cost gap dominates the
    # plain-cost gap, because the penalty vanishes at feasible points
    rng = np.random.default_rng(12)
    sc = make_scenario("disjoint-alternating", 40)
    xs = rng.uniform(0.0, 3.0, size=(40, 1))
    comp = sc.comparators()["min-feasible-path"]
    plain = penalized = 0.0
    for t in range(1, 41):
        cost, constraint = sc.generate(t)
        x, u = xs[t - 1], comp.points[t - 1]
        plain += float(cost.value(x)) - float(cost.value(u))
        penalized += (auxiliary_value(cost, constraint.feasible_region, sc.g_lip, x)
                      - auxiliary_value(cost, constraint.feasible_region, sc.g_lip, u))
    assert plain <= penalized + 1e-12


def test_coco1_surrogate_subgradient_examples():
    ds, cost, constraint = interval_instance()
    state = Coco1State.create(ds, 1, 1.0)
    # strictly feasible: only the cost gradient survives
    g = coco1_surrogate_subgradient(state, cost, constraint, np.array([0.0]))
    assert g == pytest.approx(np.array([1.0]))
    # violating point x=2: 1 (cost) + 1 (constraint) + 2*G (distance unit)
    g = coco1_surrogate_subgradient(state, cost, constraint, np.array([2.0]))
    assert g == pytest.approx(np.array([4.0]))


def test_coco1_surrogate_penalty_scales_with_the_states_g_lip():
    # the distance penalty is 2G with G the state's g_lip, whatever the oracles
    ds, cost, constraint = interval_instance()
    x = np.array([2.0])
    one, three = (coco1_surrogate_subgradient(Coco1State.create(ds, 1, g), cost, constraint, x)
                  for g in (1.0, 3.0))
    assert np.array_equal(three - one,
                          2.0 * (3.0 - 1.0) * dist_subgradient(x, constraint.feasible_region))
    assert three == pytest.approx(np.array([8.0]))


@pytest.mark.parametrize("create", [
    lambda ds, bad: Coco1State.create(ds, 10, bad),
    lambda ds, bad: Coco2State.create(ds, 10, bad),
    lambda ds, bad: Coco2State.create(ds, 10, 1.0, v=bad),
    lambda ds, bad: coco2_default_v(bad, ds.diameter, 10),
], ids=["coco1-g_lip", "coco2-g_lip", "coco2-v", "default_v-g_lip"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True],
                         ids=["nan", "inf", "-inf", "bool"])
def test_learner_parameters_must_be_finite(create, bad):
    ds, _, _ = interval_instance()
    with pytest.raises(ValueError, match=repr(bad)):
        create(ds, bad)


def always_projecting_surrogate(state, cost, constraint, x, g_val=None):
    """coco1's surrogate subgradient with the distance term projected on
    every call, feasible ``x`` included."""
    if g_val is None:
        g_val = float(constraint.value(x))
    grad = np.array(cost.subgradient(x), dtype=float)
    if g_val > 0.0:
        grad += np.asarray(constraint.subgradient(x), dtype=float)
    grad += 2.0 * state.g_lip * dist_subgradient(x, constraint.feasible_region)
    return grad


SQUARE = Box([-2.0, -2.0], [2.0, 2.0])
SQUARE_STATE = Coco1State.create(DecisionSet(SQUARE, 4.0 * math.sqrt(2.0)), 1, 1.0)


@pytest.mark.parametrize("g_val", [None, math.nan])
@pytest.mark.parametrize("constraint, x", [
    (halfspace_constraint([1.0, 0.0], 1.0, SQUARE), [0.0, 0.5]),  # feasible
    (halfspace_constraint([1.0, 0.0], 1.0, SQUARE), [1.0, 0.3]),  # g == 0
    (halfspace_constraint([1.0, 0.0], 1.0, SQUARE), [1.5, -0.2]),  # violating
    (ball_constraint([0.5, 0.0], 1.0, SQUARE), [0.2, 0.1]),
    (ball_constraint([0.5, 0.0], 1.0, SQUARE), [1.5, 0.0]),
    (ball_constraint([0.5, 0.0], 1.0, SQUARE), [-1.0, -1.5]),
])
def test_coco1_surrogate_subgradient_is_the_always_projecting_one_bitwise(
        monkeypatch, constraint, x, g_val):
    x = np.array(x)
    cost = affine_cost([-0.0, 1.0])
    expected = always_projecting_surrogate(SQUARE_STATE, cost, constraint, x, g_val)
    calls = []
    monkeypatch.setattr(coco, "dist_subgradient",
                        lambda *args: calls.append(args) or dist_subgradient(*args))
    got = coco1_surrogate_subgradient(SQUARE_STATE, cost, constraint, x, g_val)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    g = float(constraint.value(x))
    # the region is read on a violation and on a NaN g_val, and only there
    assert len(calls) == (g_val is not None or g > 0.0)
    if g <= 0.0:
        # the cost's -0.0 comes out +0.0, as the projecting path adds +0.0
        assert got[0] == 0.0 and not np.signbit(got[0])


DECISION_GEOMETRIES = (Box([-2.0], [3.0]), Box([-2.0, -1.0], [1.5, 2.0]),
                       Ball([0.3, -0.2], 1.5))


@st.composite
def constraints_with_feasible_points(draw):
    """A constraint from any factory on a 1-d box, a 2-d box or a 2-d ball
    decision set, and points of the decision set where it reads ``<= 0``:
    random ones, and their projections onto the constraint's sublevel set."""
    geom = draw(st.sampled_from(DECISION_GEOMETRIES))
    vectors = hnp.arrays(float, geom.dim, elements=st.floats(-3.0, 3.0))
    reach = hnp.arrays(float, geom.dim, elements=st.floats(0.0, 3.0))
    z = geom.project(draw(vectors))  # each constraint below holds at z
    kind = draw(st.sampled_from(["halfspace", "ball", "box", "constant"]))
    if kind == "halfspace":
        a = draw(vectors.filter(lambda a: np.linalg.norm(a) > 0.1))
        b = float(a @ z) + draw(st.floats(0.0, 3.0))
        make, sublevel = lambda: halfspace_constraint(a, b, geom), Halfspace(a, b)
    elif kind == "ball":
        center = z + draw(vectors)
        radius = float(np.linalg.norm(z - center)) + draw(st.floats(0.0, 2.0))
        if radius <= 0.0:
            radius = draw(st.floats(0.1, 2.0))
        make, sublevel = lambda: ball_constraint(center, radius, geom), Ball(center, radius)
    elif kind == "box":
        lo, hi = z - draw(reach), z + draw(reach)
        make, sublevel = lambda: box_constraint(lo, hi, geom), Box(lo, hi)
    else:
        level = draw(st.floats(-3.0, 0.0))
        make, sublevel = lambda: constant_constraint(level, geom), geom
    try:
        constraint = make()
    except ValueError:
        # Dykstra's emptiness probe rejects some regions that hold a single
        # point, such as a ball touching the square's corner, and the
        # factory refuses the constraint: no run can play one
        reject()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inside = geom.project(rng.uniform(-3.0, 3.0, size=(8, geom.dim)))
    on_sublevel = sublevel.project(inside)
    candidates = np.vstack([z[None], inside, on_sublevel, geom.project(on_sublevel)])
    points = [x for x in candidates
              if membership(x, geom, tol=0.0) and float(constraint.value(x)) <= 0.0]
    return constraint, points


@settings(max_examples=300, deadline=None)
@given(constraints_with_feasible_points())
def test_distance_subgradient_is_zero_where_the_constraint_holds(instance):
    # coco1 skips the projection when g(x) <= 0: that is exact because every
    # point of the decision set where a constraint reads <= 0 is in its
    # feasible region, where the distance subgradient is +0.0 throughout
    constraint, points = instance
    for x in points:
        sub = dist_subgradient(x, constraint.feasible_region)
        assert sub.shape == x.shape
        assert not sub.any() and not np.signbit(sub).any()


def test_coco1_surrogate_gradient_norm_capped_at_4g():
    rng = np.random.default_rng(13)
    geom = Box([-2.0, -2.0], [2.0, 2.0])
    for _ in range(50):
        a = rng.normal(size=2)
        a /= np.linalg.norm(a)
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        cost = affine_cost(a * rng.uniform(0.2, 1.0))
        constraint = halfspace_constraint(b, rng.uniform(-0.5, 1.0), geom)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            g = coco1_surrogate_subgradient(SQUARE_STATE, cost, constraint, x)
            assert np.linalg.norm(g) <= 4.0 * SQUARE_STATE.g_lip + 1e-9


def test_coco1_round_bookkeeping():
    ds, cost, constraint = interval_instance()
    state = Coco1State.create(ds, horizon=5, g_lip=1.0)
    q_prev = 0.0
    for _ in range(5):
        state, played, _ = coco1_round(state, cost, constraint)
        g = float(constraint.value(played))
        assert state.q == pytest.approx(q_prev + g_plus(g))
        q_prev = state.q
    assert state.q == q_prev


def test_coco1_trajectory_matches_reference_loop():
    # reference: drive a bare ensemble with explicitly assembled surrogate
    # gradients in the documented order
    sc = make_scenario("disjoint-alternating", 12)
    state = Coco1State.create(sc.decision_set, 12, sc.g_lip)
    ref = AhagState.create(sc.decision_set, 12)

    for t in range(1, 13):
        cost, constraint = sc.generate(t)
        _, played, _ = coco1_round(state, cost, constraint)
        _, ref_played = ahag_round(
            ref, types.SimpleNamespace(
                subgradient=lambda p: coco1_surrogate_subgradient(state, cost, constraint, p)))
        assert np.array_equal(played, ref_played)


def test_coco2_surrogate_subgradient_examples():
    ds, cost, constraint = interval_instance()
    state = Coco2State.create(ds, horizon=4, g_lip=1.0, v=2.0)
    state.q = 3.0
    # x=2 violates: 2*1 + 2*3*1 = 8
    g = coco2_surrogate_subgradient(state, cost, constraint, np.array([2.0]))
    assert g == pytest.approx(np.array([8.0]))
    # feasible x: V * grad f regardless of Q
    g = coco2_surrogate_subgradient(state, cost, constraint, np.array([0.0]))
    assert g == pytest.approx(np.array([2.0]))
    state.q = 0.0
    g = coco2_surrogate_subgradient(state, cost, constraint, np.array([2.0]))
    assert g == pytest.approx(np.array([2.0]))


def test_coco2_round_records_surrogate_gradient():
    ds, cost, constraint = interval_instance()
    g_lip = 1.0
    state = Coco2State.create(ds, horizon=6, g_lip=g_lip, v=2.0)
    for _ in range(6):
        state, played, grad_norm = coco2_round(state, cost, constraint)
        expected = coco2_surrogate_subgradient(state, cost, constraint, played)
        assert grad_norm == pytest.approx(float(np.linalg.norm(expected)))
        cap = g_lip * (state.v_param + 2.0 * state.q) + 1e-9
        assert grad_norm <= cap


def test_coco2_trajectory_matches_reference_loop():
    sc = make_scenario("disjoint-alternating", 12)
    state = Coco2State.create(sc.decision_set, 12, sc.g_lip, v=5.0)
    ref = AhagState.create(sc.decision_set, 12)

    q = 0.0
    for t in range(1, 13):
        cost, constraint = sc.generate(t)
        x = ref.combined_point
        q += g_plus(float(constraint.value(x)))
        q_now = q

        def surrogate_grad(p, _cost=cost, _con=constraint, _q=q_now):
            g = 5.0 * np.asarray(_cost.subgradient(p), dtype=float)
            if float(_con.value(p)) > 0:
                g = g + 2.0 * _q * np.asarray(_con.subgradient(p), dtype=float)
            return g

        _, played, _ = coco2_round(state, cost, constraint)
        _, ref_played = ahag_round(ref, types.SimpleNamespace(subgradient=surrogate_grad))
        assert np.array_equal(played, ref_played)
    assert state.q == pytest.approx(q)


def test_coco2_default_v_examples():
    # G=1, D=1, T=1 -> N=2: sqrt(2) * (2*sqrt(2)*2 + 2*sqrt(4+ln 2)) * 1
    expect = math.sqrt(2.0) * (4.0 * math.sqrt(2.0) + 2.0 * math.sqrt(4.0 + math.log(2.0)))
    assert coco2_default_v(1.0, 1.0, 1) == pytest.approx(expect)
    assert expect == pytest.approx(14.1275, abs=1e-3)
    # at fixed expert count, quadrupling T doubles V
    n_fixed = num_experts(1.0, 16)
    gamma = coco2_gamma(1.0, 1.0, n_fixed)
    assert gamma * math.sqrt(64.0) == pytest.approx(2.0 * gamma * math.sqrt(16.0))
    with pytest.raises(ValueError):
        coco2_default_v(0.0, 1.0, 10)


def test_coco1_bound_rhs_matches_recomputation():
    s = sum(g ** 2 for g in [1.0, 2.0, 0.5, 3.0])
    n = num_experts(6.0, 4)
    c = 2.0 * math.sqrt(2.0) * 7.0 + 12.0 * math.sqrt(4.0 + math.log(n))
    for p in (0.0, 2.5, 7.0):
        assert ensemble_rhs(6.0, n, p, s) == pytest.approx(c * math.sqrt(1.0 + p) * math.sqrt(s))
    # monotone in the path length
    assert ensemble_rhs(6.0, n, 1.0, s) < ensemble_rhs(6.0, n, 2.0, s)
    assert ensemble_rhs(6.0, num_experts(6.0, 2), 3.0, 0.0) == 0.0


def test_coco2_bound_rhs_algebra():
    T = 10_000
    g_lip, diam = 1.0, 1.0
    n = num_experts(diam, T)
    gamma = coco2_gamma(g_lip, diam, n)
    v = gamma * math.sqrt(T)
    regret_rhs = coco2_regret_rhs(gamma, v, 0.0, T)
    ccv_rhs = coco2_ccv_rhs(gamma, v, g_lip, diam, 0.0, T)
    # with P=0 and V=gamma*sqrt(T) the regret budget collapses to 2*gamma*sqrt(T)
    assert regret_rhs == pytest.approx(2.0 * gamma * math.sqrt(T))
    expected_ccv = (2.0 * gamma * math.sqrt(T)
                    + 0.5 * math.sqrt(4.0 * gamma * v * math.sqrt(T))
                    + 0.5 * math.sqrt(4.0 * v * g_lip * diam * T))
    assert ccv_rhs == pytest.approx(expected_ccv)


def test_regret_decomposition_identity_exact():
    # CCV + penalized-cost gap == surrogate-cost gap for feasible comparators
    for name in ("disjoint-alternating", "alternating"):
        sc = make_scenario(name, 60)
        state = Coco1State.create(sc.decision_set, 60, sc.g_lip)
        plays = []
        for t in range(1, 61):
            cost, constraint = sc.generate(t)
            _, x, _ = coco1_round(state, cost, constraint)
            plays.append(x)
        for comp in sc.comparators().values():
            lhs = state.q
            rhs = 0.0
            for t in range(1, 61):
                cost, constraint = sc.generate(t)
                x, u = plays[t - 1], comp.points[t - 1]
                aux_x = auxiliary_value(cost, constraint.feasible_region, sc.g_lip, x)
                aux_u = auxiliary_value(cost, constraint.feasible_region, sc.g_lip, u)
                lhs += aux_x - aux_u
                rhs += (aux_x + g_plus(float(constraint.value(x)))
                        - aux_u - g_plus(float(constraint.value(u))))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_coco1_budgets_hold_on_runs():
    for name in ("disjoint-alternating", "tracking-ball", "static"):
        sc = make_scenario(name, 250)
        state = Coco1State.create(sc.decision_set, 250, sc.g_lip)
        rec = RunRecord(dimension=sc.dimension, capacity=250)
        costs, plays = [], []
        for t in range(1, 251):
            cost, constraint = sc.generate(t)
            _, x, rec.grad_norm[t - 1] = coco1_round(state, cost, constraint)
            rec.fill([float(cost.value(x))], [float(constraint.value(x))], q=state.q)
            costs.append(cost)
            plays.append(x)
        diam = sc.decision_set.diameter
        n, grad_sq = num_experts(diam, 250), float(running_sum(rec.grad_norm ** 2)[-1])
        assert state.q <= ensemble_rhs(diam, n, sc.minimizer_path_length(), grad_sq)
        for comp in sc.comparators().values():
            regret = sum(float(c.value(x)) - float(c.value(u))
                         for c, x, u in zip(costs, plays, comp.points))
            assert regret <= ensemble_rhs(diam, n, comp.path_length, grad_sq)


def test_coco2_budgets_hold_on_runs():
    for name in ("disjoint-alternating", "tracking-ball", "static"):
        sc = make_scenario(name, 250)
        state = Coco2State.create(sc.decision_set, 250, sc.g_lip)
        rec = RunRecord(dimension=sc.dimension, capacity=250)
        costs, plays = [], []
        for t in range(1, 251):
            cost, constraint = sc.generate(t)
            _, x, rec.grad_norm[t - 1] = coco2_round(state, cost, constraint)
            rec.fill([float(cost.value(x))], [float(constraint.value(x))], q=state.q)
            costs.append(cost)
            plays.append(x)
        diam = sc.decision_set.diameter
        gamma = coco2_gamma(sc.g_lip, diam, num_experts(diam, 250))
        assert state.q <= coco2_ccv_rhs(gamma, state.v_param, sc.g_lip, diam,
                                        sc.feasible_path_length(), 250)
        for comp in sc.comparators().values():
            regret = sum(float(c.value(x)) - float(c.value(u))
                         for c, x, u in zip(costs, plays, comp.points))
            assert regret <= coco2_regret_rhs(gamma, state.v_param, comp.path_length, 250)


@pytest.mark.parametrize("name", ["tracking-ball", "static"])
def test_coco1_projects_once_per_violating_round_only(monkeypatch, name):
    points = []
    monkeypatch.setattr(coco, "dist_subgradient",
                        lambda x, s: points.append(np.array(x)) or dist_subgradient(x, s))
    record = run(RunConfig(ScenarioSpec(name, 500, seed=0), "coco1"))
    xs, g = record.x[:record.horizon], record.g[:record.horizon]
    violating = xs[g > 0.0]
    assert 0 < len(violating) < record.horizon
    assert np.array_equal(np.array(points).view(np.uint64), violating.view(np.uint64))


@pytest.mark.parametrize("name", ["static", "disjoint-alternating", "tracking-ball"])
def test_coco1_tries_the_float_projection_once_per_violating_round(monkeypatch, name):
    # the distance subgradient tries a violating play's float projection
    # once (``_point``: a box target on the 1-d scenarios, a ball or a lens
    # on tracking-ball) and, where that gives None, takes the array path
    # without ``project``, which would try it again
    counts = {"_point": 0, "project": 0}
    inside = []

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += bool(inside)
            return f(*args, **kwargs)
        return counted
    monkeypatch.setattr(Intersection, "_point", counting("_point", Intersection._point))
    monkeypatch.setattr(Intersection, "project", counting("project", Intersection.project))

    def counted_subgradient(x, s):
        inside.append(True)
        try:
            return dist_subgradient(x, s)
        finally:
            inside.pop()
    monkeypatch.setattr(coco, "dist_subgradient", counted_subgradient)
    record = run(RunConfig(ScenarioSpec(name, 500, seed=0), "coco1"))
    violating = np.count_nonzero(record.g[:record.horizon] > 0.0)
    assert violating > 50
    assert counts == {"_point": violating, "project": 0}


def test_coco1_round_builds_no_set_object(monkeypatch):
    # a violating round builds its region, one Intersection, from the
    # constraint's own numbers and projects onto its closed form: no Ball is
    # built on a round, and neither Dykstra nor its emptiness probe runs
    counts = dict.fromkeys(["Ball", "Intersection", "_dykstra", "_probe_nonempty"], 0)
    in_round = []

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += bool(in_round)
            return f(*args, **kwargs)
        return counted
    monkeypatch.setattr(Ball, "__post_init__", counting("Ball", Ball.__post_init__))
    monkeypatch.setattr(Intersection, "__init__", counting("Intersection", Intersection.__init__))
    monkeypatch.setattr(Intersection, "_probe_nonempty",
                        counting("_probe_nonempty", Intersection._probe_nonempty))
    monkeypatch.setattr(geometry, "_dykstra", counting("_dykstra", geometry._dykstra))
    original = harness.coco1_round

    def counted_round(*args):
        in_round.append(True)
        try:
            return original(*args)
        finally:
            in_round.pop()
    monkeypatch.setattr(harness, "coco1_round", counted_round)
    record = run(RunConfig(ScenarioSpec("tracking-ball", 500, seed=0), "coco1"))
    violating = np.count_nonzero(record.g[:record.horizon] > 0.0)
    assert violating > 100
    assert counts == {"Ball": 0, "Intersection": violating, "_dykstra": 0, "_probe_nonempty": 0}


EQUIVALENCE_GEOMETRIES = (Box([-2.0], [3.0]), Box([-2.0, -1.0], [1.5, 2.0]),
                          Box([-1.0, -2.0, -0.5], [2.0, 1.0, 1.5]), Ball([0.3, -0.2], 1.5))


@st.composite
def constraint_makers(draw):
    """A function that builds a new ball, halfspace or box constraint on a
    1-d, 2-d or 3-d box or a 2-d ball decision set. A 1-d ball or halfspace
    on the 1-d box is a box; a ball on the ball decision set lies nested in
    it, holds it, cuts a lens, touches it from outside (a tangent lens) or
    lies just apart. These closed forms may be empty: the constraint is
    built directly, so that an empty region is refused only where it is
    read. The other pairs, a ball or halfspace on a box in 2-d or 3-d, a
    halfspace on the ball and a box on the ball, go to Dykstra, and hold a
    point of the decision set (Dykstra's emptiness probe is slow)."""
    geom = draw(st.sampled_from(EQUIVALENCE_GEOMETRIES))
    vectors = hnp.arrays(float, geom.dim, elements=st.floats(-4.0, 4.0))
    reach = hnp.arrays(float, geom.dim, elements=st.floats(0.0, 3.0))
    z = geom.project(draw(vectors))
    kind = draw(st.sampled_from(["ball", "halfspace", "box"]))
    closed = geom.dim == 1 or (kind, type(geom)) in {("box", Box), ("ball", Ball)}
    miss = closed and draw(st.booleans())  # the region may be empty
    if kind == "halfspace":
        a = draw(vectors.filter(lambda a: np.linalg.norm(a) > 0.1))
        b = draw(st.floats(-4.0, 4.0)) if miss else float(a @ z) + draw(st.floats(0.0, 3.0))
        return lambda: HalfspaceConstraint(a, b, geom)
    if kind == "box":
        lo = draw(vectors) if miss else z - draw(reach)
        hi = lo + draw(reach) if miss else z + draw(reach)
        return lambda: BoxConstraint(lo, hi, geom)
    r = draw(st.floats(0.05, 3.0))
    if isinstance(geom, Ball):
        big = geom.radius
        gap = draw(st.one_of(
            st.floats(0.0, 1.0).map(lambda f: f * abs(big - r)),  # nested either way
            st.floats(0.0, 1.0).map(lambda f: abs(big - r) + f * (big + r - abs(big - r))),
            st.just(big + r),  # tangent from outside
            st.floats(1e-5, 1.0).map(lambda e: big + r + e)))  # apart
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        center = geom.center + gap * np.array([math.cos(angle), math.sin(angle)])
    elif miss:
        center = draw(vectors)
    else:
        center = z + draw(vectors) / 4.0
        r += float(np.linalg.norm(z - center))
    return lambda: BallConstraint(center, r, geom)


def widened(closed_form):
    """``geometry._closed_form`` with its result moved 1e-6 outside its
    region: each box end, ball radius and lens radius 1e-6 further out."""
    def form(first, second):
        target = closed_form(first, second)
        if target is None:
            return None
        kind, p, q = target
        if kind is Box:
            return Box, p - 1e-6, q + 1e-6
        if kind is Ball:
            return Ball, p, q + 1e-6
        gap = float(np.linalg.norm(p.c2 - p.c1))
        return kind, geometry._Lens(p.c1, p.r1 + 1e-6, p.c2, p.r2 + 1e-6, gap), None
    return form


def outcome(f, *args):
    """The bits of ``f(*args)``, or the type and message of what it raises."""
    try:
        return np.asarray(f(*args)).view(np.uint64).tolist()
    except (ValueError, ProjectionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(constraint_makers(), hnp.arrays(float, 3, elements=st.sampled_from(
    [-0.0, 0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)), st.integers(0, 2 ** 32 - 1))
def test_coco1_closed_form_is_the_feasible_region_path_bitwise(make, cost_vector, seed):
    # coco1 projects onto the feasible region its constraint derives from its
    # own numbers, a closed form where one applies; the reference projects
    # onto the Intersection of the decision set and the family's own set
    # object, on every call. They agree bit for bit and error for error
    constraint = make()
    geom = constraint.decision_geometry
    cost = affine_cost(cost_vector[:geom.dim])
    state = Coco1State.create(DecisionSet(geom, 10.0), 1, 1.5)

    def reference_of(c):
        kind, p, q = c._fields()
        return ConstraintOracle(c.value, c.subgradient, Intersection((geom, kind(p, q))))
    try:
        reference = reference_of(constraint)
    except ValueError as exc:  # an empty region: the same error
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            constraint.feasible_region
        return
    region, ref_region = constraint.feasible_region, reference.feasible_region
    exact = ref_region.target is not None
    assert (region.target is not None) == exact
    rng = np.random.default_rng(seed)
    # Dykstra pairs project onto an Intersection on both paths, by a slow
    # scheme: a few points check the sum
    outside = rng.uniform(-5.0, 5.0, size=(6 if exact else 2, geom.dim))
    signed_zeros = np.where(rng.random(geom.dim) < 0.5, -0.0, outside[0])
    # the rim: the outside points projected (Dykstra may fail to converge),
    # and 1e-7 further out, where the distance subgradient is a unit vector
    rim = [(outcome(ref_region.project, x), x) for x in outside]
    rim = [(np.array(p).view(float), x) for p, x in rim if isinstance(p, list)]
    near = [r + 1e-7 * (x - r) / np.linalg.norm(x - r) for r, x in rim if np.any(x != r)]
    points = [-np.zeros(geom.dim), *geom.project(np.array(
        [signed_zeros, *outside, *(r for r, _ in rim), *near]))]
    for bad in (math.nan, math.inf):  # refused before either path projects
        for r in (region, ref_region):
            with pytest.raises(ValueError, match="^cannot project a non-finite point$"):
                dist_subgradient(np.full(geom.dim, bad), r)
    # a short point onto a closed form takes the float path, a batch the
    # array path (Dykstra moves every row of a batch until all converge)
    assert not exact or (outcome(region.project, np.array(points)) == outcome(
        lambda xs: np.array([region.project(x) for x in xs]), np.array(points)))
    for x in points:
        # the surrogate reads only the direction to the projection (in 1-d,
        # its sign), so the projections are compared too
        assert outcome(region.project, x) == outcome(ref_region.project, x)
        # g(x) read by the surrogate itself where x violates, and a NaN g_val
        # at every point, both of which project. (Where g(x) <= 0 the
        # surrogate reads no region; that the distance term is zero there
        # fails by 1e-8 at the rim of two balls that barely touch, whose
        # lens the closed form draws too thin)
        for g_val in (None, math.nan) if float(constraint.value(x)) > 0.0 else (math.nan,):
            assert (outcome(coco1_surrogate_subgradient, state, cost, constraint, x, g_val)
                    == outcome(always_projecting_surrogate, state, cost, reference, x, g_val))
    if exact:  # the closed form moved outside its region fails its check on both paths
        far = [x for x in points if dist(x, ref_region) > 1e-2]
        with mock.patch.object(geometry, "_closed_form", widened(geometry._closed_form)):
            for x in far:
                for path, c in ((coco1_surrogate_subgradient, make()),
                                (always_projecting_surrogate, reference_of(make()))):
                    with pytest.raises(ProjectionError, match="closed-form projection left"):
                        path(state, cost, c, x, None)


def test_feasible_rounds_reduce_to_unconstrained_learning():
    # constraints never bind: no violation accumulates, the distance penalty
    # vanishes, and the full-feedback algorithm collapses onto the ensemble
    sc = make_scenario("oco-mix", 100, seed=2)
    state = Coco1State.create(sc.decision_set, 100, sc.g_lip)
    ens = AhagState.create(sc.decision_set, 100)
    for t in range(1, 101):
        cost, constraint = sc.generate(t)
        _, x1, _ = coco1_round(state, cost, constraint)
        _, x2 = ahag_round(ens, cost)
        assert np.array_equal(x1, x2)
        assert state.q == 0.0
    assert state.q == 0.0
