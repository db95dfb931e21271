import functools
import math
import operator
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coco_lab import geometry
from coco_lab.core import DecisionSet
from coco_lab.geometry import (
    Ball,
    Box,
    Halfspace,
    Intersection,
    ProjectionError,
    dist,
    dist_subgradient,
    membership,
    project,
)
from coco_lab.scenarios import (
    BallConstraint,
    HalfspaceConstraint,
    affine_cost,
    ball_constraint,
    box_constraint,
    constant_constraint,
    halfspace_constraint,
    norm_cost,
)
from reference import _dykstra, reference_ball_project, same_bits


def random_sets(rng, d):
    lo = rng.uniform(-2, -0.5, d)
    hi = rng.uniform(0.5, 2, d)
    center = rng.uniform(-0.5, 0.5, d)
    normal = rng.normal(size=d)
    normal /= np.linalg.norm(normal)
    sets = [
        Box(lo, hi),
        Ball(center, rng.uniform(0.5, 1.5)),
        Halfspace(normal, rng.uniform(0.2, 1.0)),
    ]
    sets.append(Intersection((sets[0], sets[2])))
    sets.append(Intersection((sets[1], sets[2])))
    return sets


def test_project_examples():
    ball = Ball(np.zeros(2), 1.0)
    inside = np.array([0.3, -0.2])
    assert np.allclose(project(inside, ball), inside)
    assert np.allclose(project(np.array([3.0, 0.0]), ball), [1.0, 0.0])
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(project(np.array([2.0, -3.0]), box), [1.0, -1.0])


def test_intersection_projection_matches_grid_bruteforce():
    rng = np.random.default_rng(2)
    ball = Ball(np.array([0.2, -0.1]), 1.0)
    half = Halfspace(np.array([1.0, 1.0]), 0.3)
    region = Intersection((ball, half))
    xs, ys = np.meshgrid(np.arange(-1.5, 1.5, 0.004), np.arange(-1.5, 1.5, 0.004),
                         indexing="ij")
    mesh = np.stack([xs.ravel(), ys.ravel()], axis=1)
    mesh = mesh[np.asarray(region.contains(mesh))]
    h_diag = 0.004 * np.sqrt(2.0)
    for _ in range(10):
        x = rng.uniform(-3, 3, 2)
        p = project(x, region)
        brute = mesh[np.argmin(np.linalg.norm(mesh - x, axis=1))]
        d_p, d_b = np.linalg.norm(x - p), np.linalg.norm(x - brute)
        assert membership(p, region, tol=1e-8)
        # the claimed projection is at least as close as any grid point, and
        # the grid argmin distance matches within one mesh diagonal
        assert d_p <= d_b + 1e-9
        assert d_b - d_p <= h_diag
        # strong convexity of ||x - .||^2 localizes the argmin itself
        assert np.linalg.norm(p - brute) ** 2 <= d_b ** 2 - d_p ** 2 + 1e-9


def test_dist_examples():
    ball = Ball(np.zeros(2), 1.0)
    assert dist(np.array([0.1, 0.1]), ball) == 0.0
    assert dist(np.array([3.0, 0.0]), ball) == pytest.approx(2.0)
    box = Box([-1.0], [1.0])
    assert dist(np.array([3.0]), box) == pytest.approx(2.0)


def test_dist_subgradient_examples():
    ball = Ball(np.zeros(2), 1.0)
    assert np.allclose(dist_subgradient(np.array([3.0, 0.0]), ball), [1.0, 0.0])
    assert np.allclose(dist_subgradient(np.array([0.2, 0.0]), ball), [0.0, 0.0])


def test_dist_subgradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for d in (1, 2, 5):
        for s in random_sets(rng, d):
            checked = 0
            while checked < 8:
                x = rng.uniform(-4, 4, d)
                if dist(x, s) < 0.1:
                    continue
                g = dist_subgradient(x, s)
                fd = np.zeros(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = h
                    fd[i] = (dist(x + e, s) - dist(x - e, s)) / (2 * h)
                assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-4
                checked += 1


def test_membership_examples():
    ball = Ball(np.zeros(2), 1.0)
    assert membership(np.zeros(2), ball)
    assert not membership(np.array([2.0, 0.0]), ball)
    half = Halfspace(np.array([1.0, 0.0]), 0.5)
    assert membership(np.array([0.5, 3.0]), half)  # boundary counts


def test_projection_properties():
    rng = np.random.default_rng(4)
    for d in (1, 2, 5):
        for s in random_sets(rng, d):
            xs = rng.uniform(-4, 4, size=(12, d))
            ys = rng.uniform(-4, 4, size=(12, d))
            px, py = project(xs, s), project(ys, s)
            # members of the set
            assert np.all(membership(px, s, tol=1e-8))
            # idempotent
            assert np.max(np.linalg.norm(project(px, s) - px, axis=-1)) <= 1e-8
            # non-expansive
            assert np.all(
                np.linalg.norm(px - py, axis=-1)
                <= np.linalg.norm(xs - ys, axis=-1) + 1e-9
            )


def test_dist_is_convex_and_one_lipschitz():
    rng = np.random.default_rng(5)
    for d in (1, 2, 5):
        for s in random_sets(rng, d):
            xs = rng.uniform(-4, 4, size=(12, d))
            ys = rng.uniform(-4, 4, size=(12, d))
            dx, dy = dist(xs, s), dist(ys, s)
            dmid = dist((xs + ys) / 2.0, s)
            assert np.all(dmid <= (dx + dy) / 2.0 + 1e-9)
            assert np.all(np.abs(dx - dy) <= np.linalg.norm(xs - ys, axis=-1) + 1e-9)


def test_dist_subgradient_norm_is_at_most_one():
    rng = np.random.default_rng(6)
    for d in (1, 2, 5):
        for s in random_sets(rng, d):
            xs = rng.uniform(-4, 4, size=(24, d))
            norms = np.linalg.norm(dist_subgradient(xs, s), axis=-1)
            assert np.all(norms <= 1.0 + 1e-12)
            outside = dist(xs, s) > 1e-8
            assert np.allclose(norms[outside], 1.0)


def test_empty_intersection_rejected_at_construction():
    with pytest.raises(ValueError, match="empty intersection"):
        Intersection((Ball(np.array([3.0]), 1.0), Halfspace(np.array([1.0]), 1.0)))
    with pytest.raises(ValueError, match="empty intersection"):
        Intersection((Box([0.0, 0.0], [1.0, 1.0]), Box([2.0, 2.0], [3.0, 3.0])))


@pytest.mark.parametrize("make,message", [
    (lambda: Box([0.0, 0.0], [1.0]), "box bounds must be vectors of equal length"),
    (lambda: Box([0.0, 2.0], [1.0, 1.0]), "box lower bound exceeds upper bound"),
    (lambda: Ball(np.zeros((2, 2)), 1.0), "ball center must be a vector"),
    (lambda: Ball([0.0], 0.0), "ball radius must be positive"),
    (lambda: Halfspace(np.ones((2, 2)), 1.0), "halfspace normal must be a vector"),
    (lambda: Halfspace([0.0, 0.0], 1.0), "halfspace normal must be nonzero"),
    (lambda: Intersection(()), "intersection needs at least one component"),
    (lambda: Intersection((Box([-1.0], [1.0]), Ball([0.0, 0.0], 1.0))),
     "intersection components must share a dimension"),
    # a closed form of fields that differ in dimension would broadcast
    (lambda: ball_constraint([0.0], 1.0, Box([-1.0, -1.0], [1.0, 1.0])),
     "intersection components must share a dimension"),
], ids=["box-shapes", "box-order", "ball-center", "ball-radius", "halfspace-shape",
        "halfspace-zero", "intersection-empty", "intersection-dimensions",
        "constraint-dimensions"])
def test_malformed_set_rejected_at_construction(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


ON_1D_BOX = Box([-1.0], [1.0])


@pytest.mark.parametrize("make,message", [
    (lambda: Ball([0.0, 0.0], math.inf), "ball radius must be finite"),
    (lambda: Ball([math.nan, 0.0], 1.0), "ball center must be finite"),
    (lambda: Ball([0.0, -math.inf], 1.0), "ball center must be finite"),
    (lambda: Box([math.nan], [1.0]), "box bounds must not be NaN"),
    (lambda: Box([0.0], [math.nan]), "box bounds must not be NaN"),
    (lambda: Halfspace([1.0], math.nan), "halfspace offset must not be NaN"),
    (lambda: Halfspace([math.inf], 1.0), "halfspace normal must be finite"),
    (lambda: Halfspace([math.nan, 1.0], 1.0), "halfspace normal must be finite"),
    (lambda: DecisionSet(Ball([0.0, 0.0], math.inf), 2.0), "ball radius must be finite"),
    (lambda: ball_constraint([0.0], math.inf, ON_1D_BOX), "ball radius must be finite"),
    (lambda: halfspace_constraint([1.0], math.nan, ON_1D_BOX),
     "halfspace offset must not be NaN"),
    (lambda: box_constraint([math.nan], [1.0], ON_1D_BOX), "box bounds must not be NaN"),
    # a constraint built with its class is refused where its region is first
    # read, by the check its factory runs, and with no numpy warning
    (lambda: BallConstraint(np.zeros(2), -1.0, Ball(np.zeros(2), 3.0)).feasible_region,
     "ball radius must be positive"),
    (lambda: HalfspaceConstraint(np.array([0.0]), 1.0, ON_1D_BOX).feasible_region,
     "halfspace normal must be nonzero"),
    (lambda: BallConstraint(np.array([math.nan, 0.0]), 1.0, Ball(np.zeros(2), 3.0))
     .feasible_region, "ball center must be finite"),
    (lambda: constant_constraint(math.nan, ON_1D_BOX), "constant constraint level must be finite"),
    (lambda: constant_constraint(-math.inf, ON_1D_BOX),
     "constant constraint level must be finite"),
    (lambda: affine_cost([math.nan], 0.0), "affine cost a must be finite"),
    (lambda: affine_cost([1.0], math.inf), "affine cost b must be finite"),
    (lambda: norm_cost([math.inf]), "norm cost center must be finite"),
], ids=["ball-radius", "ball-center-nan", "ball-center-inf", "box-lower", "box-upper",
        "halfspace-offset", "halfspace-normal-inf", "halfspace-normal-nan", "decision-set",
        "ball-constraint", "halfspace-constraint", "box-constraint",
        "class-ball-radius", "class-halfspace-normal", "class-ball-center",
        "constant-nan", "constant-minus-inf", "affine-a", "affine-b", "norm-center"])
@pytest.mark.filterwarnings("error")
def test_a_field_that_is_not_finite_is_refused(make, message):
    # it would project every point to NaN; a factory refuses it as a set
    # would, and a class-built constraint's region too
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_an_infinite_box_end_or_halfspace_offset_is_a_set():
    # a 1-d halfspace is a box with an infinite end
    assert Box([-math.inf], [1.0]).project(np.array([-5.0, 5.0])[:, None]).tolist() == [
        [-5.0], [1.0]]
    assert Halfspace([1.0], math.inf).project([5.0]).tolist() == [5.0]


def three_sets(d):
    """A box, a ball and a halfspace around the origin: no closed form."""
    return (Box(-np.ones(d), np.ones(d)), Ball([0.3, 0.2, 0.1][:d], 1.0),
            Halfspace(np.ones(d), 0.5))


@pytest.mark.parametrize("d", [2, 3])
def test_three_component_intersection_projects_by_peeling(d):
    region = Intersection(three_sets(d))
    rng = np.random.default_rng(d)
    xs = rng.uniform(-4.0, 4.0, size=(6, d))
    ps = region.project(xs)
    assert np.all(membership(ps, region, tol=1e-8))
    # the projection inequality against members, as for the closed forms
    cand = rng.uniform(-4.0, 4.0, size=(400, d))
    ys = np.vstack([region.project(rng.uniform(-4.0, 4.0, size=(32, d))),
                    cand[np.asarray(region.contains(cand, tol=0.0))]])
    for x, p in zip(xs, ps):
        assert np.max((ys - p) @ (x - p)) <= 1e-9 * (1.0 + np.linalg.norm(x))


def test_nested_one_d_intersection_projects_onto_its_common_box():
    # a nested intersection adds its parts: three intervals meet in one
    inner = Intersection((Box([-1.0], [1.0]), Ball([0.5], 1.0)))
    region = Intersection((inner, Halfspace([1.0], 0.8)))
    np.testing.assert_allclose(region.project(np.array([[2.0], [-3.0], [0.1]])),
                               [[0.8], [-0.5], [0.1]], rtol=0, atol=1e-8)


def test_projection_error_carries_residual():
    err = ProjectionError("projection left the set", 0.125)
    assert err.residual == 0.125
    assert "1.250e-01" in str(err)


@pytest.mark.parametrize("components", [
    (Ball(np.zeros(2), 3.0), Ball([1.5, 0.0], 1.0)),
    (Ball(np.zeros(2), 1.0), Ball([1.0, 0.0], 1.0)),
    (Box([-1.0, -1.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 0.5)),
], ids=["nested-balls", "lens", "box-halfspace"])
def test_intersection_projects_only_a_point_or_a_batch(components):
    region = Intersection(components)
    for x in (np.zeros((2, 3, 2)), 0.0):
        with pytest.raises(ValueError, match=r"expected point of shape \(d,\) or batch"):
            region.project(x)


@pytest.mark.parametrize("first,second,closed", [
    ((Ball, np.zeros(2), 3.0), (Ball, np.array([0.5, 0.0]), 1.0), True),
    ((Ball, np.zeros(2), 1.0), (Ball, np.array([1.0, 0.0]), 1.0), False),
    ((Box, np.array([-1.0]), np.array([1.0])), (Halfspace, np.array([1.0]), 0.5), True),
    ((Box, -np.ones(2), np.ones(2)), (Halfspace, np.array([1.0, 1.0]), 0.5), False),
], ids=["nested-balls", "lens", "box", "box-halfspace"])
def test_closed_form_is_a_set_that_projects_only_a_point_or_a_batch(first, second, closed):
    # an Intersection given its primitives' fields is the one given their
    # sets: a closed form or a peeled region alike, of the same dimension,
    # membership and projections, and it refuses what that one refuses
    # rather than broadcasting a scalar or a (2, 2, 2) array
    form = Intersection((first, second))
    region = Intersection((first[0](*first[1:]), second[0](*second[1:])))
    xs = np.random.default_rng(0).uniform(-3.0, 3.0, size=(50, region.dim))
    assert form.dim == region.dim
    assert (form.target is not None) == (region.target is not None) == closed
    assert np.array_equal(form.contains(xs), region.contains(xs))
    assert [bool(form.contains(x)) for x in xs] == [bool(region.contains(x)) for x in xs]
    assert np.array_equal(bits(form.project(xs)), bits(region.project(xs)))
    for x in (np.zeros((2, 2, 2)), 2.0):
        with pytest.raises(ValueError, match=r"^expected point of shape \(d,\) or batch "
                                             r"\(n, d\), got "):
            form.project(x)
    # the pair moved apart is refused on both paths, with the same message
    kind, p, q = second
    apart = (kind, p + 10.0, q) if kind is Ball else (kind, p, q - 10.0)
    messages = []
    for components in ((first, apart), (first[0](*first[1:]), kind(*apart[1:]))):
        with pytest.raises(ValueError, match="^empty intersection") as error:
            Intersection(components)
        messages.append(str(error.value))
    assert messages[0] == messages[1]


def test_non_finite_point_rejected():
    with pytest.raises(ValueError):
        project(np.array([np.nan, 0.0]), Ball(np.zeros(2), 1.0))


def test_near_tangent_balls_intersect():
    # Dykstra's scheme stalls 1.4e-5 away from this thin lens
    Intersection((Ball([5.0, 5.0], 1.0), Ball([6.999, 5.0], 1.0)))


def test_near_tangent_lens_projects_onto_its_rim():
    lens = Intersection((Ball([0.0, 0.0], 1.0), Ball([1.99, 0.0], 1.0)))
    h = math.sqrt(1.0 - 0.995 ** 2)
    # Dykstra runs out of sweeps here
    np.testing.assert_allclose(lens.project([0.995, -5.0]), [0.995, -h], rtol=0, atol=1e-12)
    # and stops 5e-8 short of the rim here, outside the set at 1e-9
    p = lens.project([0.995, 3.0])
    assert membership(p, lens, tol=1e-9)
    np.testing.assert_allclose(p, [0.995, h], rtol=0, atol=1e-12)


# Exact projections onto ball ∩ ball (a lens), onto 1-d pairs (an
# interval) and onto box ∩ box. Each instance is built around a common
# point, so it is never empty; ``depth`` is how far it is from tangency,
# where Dykstra is slow.

coords = st.floats(-3.0, 3.0)
radii = st.floats(0.1, 2.0)


@st.composite
def lenses(draw):
    d = draw(st.integers(1, 4))
    c1 = draw(hnp.arrays(float, d, elements=coords))
    r1, r2 = draw(radii), draw(radii)
    axis = draw(hnp.arrays(float, d, elements=st.floats(-1.0, 1.0)).filter(
        lambda a: np.linalg.norm(a) > 0.1))
    gap = draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda s: s * (r1 + r2)),  # overlapping or nested
        st.sampled_from([0.0, r1 + r2, abs(r1 - r2)])))  # concentric, tangent
    c2 = c1 + gap * axis / np.linalg.norm(axis)
    depth = min(r1 + r2 - gap, abs(gap - abs(r1 - r2)))
    return (Ball(c1, r1), Ball(c2, r2)), depth


@st.composite
def one_d_primitive(draw, z):
    """A 1-d Box, Ball or Halfspace holding ``z``, and its ends."""
    kind = draw(st.sampled_from(["box", "ball", "halfspace"]))
    if kind == "box":
        lo, hi = z - draw(st.floats(0.0, 3.0)), z + draw(st.floats(0.0, 3.0))
        return Box([lo], [hi]), (lo, hi)
    if kind == "ball":
        r = draw(radii)
        c = z + draw(st.floats(-1.0, 1.0)) * r
        return Ball([c], r), (c - r, c + r)
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 2.0))
    end = z + draw(st.floats(0.0, 3.0)) * (1.0 if a > 0 else -1.0)
    half = Halfspace([a], a * end)
    return half, ((-np.inf, end) if a > 0 else (end, np.inf))


@st.composite
def intervals(draw):
    z = draw(coords)
    (s1, e1), (s2, e2) = draw(one_d_primitive(z)), draw(one_d_primitive(z))
    return (s1, s2), min(e1[1], e2[1]) - max(e1[0], e2[0])


@st.composite
def box_pairs(draw):
    """Two boxes in 2 or 3 dimensions around a common point. Dykstra is
    slow where the common box is thin and where two lower (or upper) ends
    differ by a little: its corrections then drift by that much a sweep."""
    d = draw(st.integers(2, 3))
    z = draw(hnp.arrays(float, d, elements=coords))
    reach = hnp.arrays(float, d, elements=st.floats(0.0, 3.0))
    lo1, hi1, lo2, hi2 = z - draw(reach), z + draw(reach), z - draw(reach), z + draw(reach)
    gaps = np.abs(np.concatenate([lo1 - lo2, hi1 - hi2]))
    depth = min(float(np.min(np.minimum(hi1, hi2) - np.maximum(lo1, lo2))),
                float(np.min(gaps, initial=np.inf, where=gaps > 0.0)))
    return (Box(lo1, hi1), Box(lo2, hi2)), depth


@settings(max_examples=300, deadline=None)
@given(st.one_of(lenses(), intervals(), box_pairs()), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_exact_projection_properties(instance, n, seed):
    (s1, s2), depth = instance
    region = Intersection((s1, s2))
    d = region.dim
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-6.0, 6.0, size=(n, d))
    ps = region.project(xs)
    assert np.all(membership(ps, region, tol=1e-9))
    # a batch is its rows projected one by one
    assert np.array_equal(ps, np.array([region.project(x) for x in xs]))
    # the projection inequality against members: projections of other
    # points and uniform samples that fall inside both sets
    cand = rng.uniform(-6.0, 6.0, size=(400, d))
    ys = np.vstack([region.project(rng.uniform(-6.0, 6.0, size=(32, d))),
                    cand[np.asarray(region.contains(cand, tol=0.0))]])
    for x, p in zip(xs, ps):
        assert np.max((ys - p) @ (x - p)) <= 1e-9 * (1.0 + np.linalg.norm(x))
    if depth >= 0.1:
        ref, converged, _ = _dykstra(xs, (s1, s2))
        assert converged
        np.testing.assert_allclose(ps, ref, rtol=0, atol=1e-8)


@settings(max_examples=100, deadline=None)
@given(lenses(), st.floats(2e-6, 3.0))
# centres 1e-161 apart: the square of the gap is subnormal, and an axis
# divided by its unscaled norm comes out 0.99206 long
@example(((Ball([0.0], 1.5), Ball([1.08027491e-161], 0.25)), 0.0), 0.0078125)
def test_separated_balls_are_empty(instance, extra):
    (b1, b2), _ = instance
    axis = b2.center - b1.center
    scale = np.max(np.abs(axis))
    if scale > 0:
        axis = axis / scale  # a largest coordinate of 1: the norm cannot underflow
        axis = axis / np.linalg.norm(axis)
    else:
        axis = np.eye(b1.dim)[0]
    far = Ball(b1.center + (b1.radius + b2.radius + extra) * axis, b2.radius)
    with pytest.raises(ValueError, match="empty intersection"):
        Intersection((b1, far))


@st.composite
def nearly_concentric_balls(draw):
    """Two balls in 2 to 4 dimensions whose centres lie 1e-170 to 1e-150
    apart, where the squared gap is subnormal or zero; equal radii or not."""
    d = draw(st.integers(2, 4))
    c1 = draw(hnp.arrays(float, d, elements=st.floats(-1e-150, 1e-150)))
    axis = draw(hnp.arrays(float, d, elements=st.floats(-1.0, 1.0)).filter(
        lambda a: np.max(np.abs(a)) > 0.1))
    c2 = c1 + axis * 10.0 ** draw(st.integers(-170, -150))
    r1 = draw(radii)
    r2 = r1 if draw(st.booleans()) else draw(radii)
    return Ball(c1, r1), Ball(c2, r2)


@settings(max_examples=100, deadline=None)
@given(nearly_concentric_balls(), st.integers(0, 2 ** 32 - 1))
# 1e-161 apart the gap reads 9.94e-162, and 1e-162 apart it reads 0
@example((Ball([0.0, 0.0], 1.0), Ball([1e-161, 0.0], 1.0)), 0)
@example((Ball([0.0, 0.0], 1.0), Ball([1e-162, 0.0], 1.0)), 0)
@example((Ball([0.0, 0.0, 0.0], 1.5), Ball([0.0, 1e-161, 0.0], 0.25)), 0)
@example((Ball([0.0, 0.0, 0.0], 0.25), Ball([0.0, 1e-162, 0.0], 1.5)), 0)
def test_nearly_concentric_balls_project_onto_one_ball(balls, seed):
    # the gap ``math.sqrt(v @ v)`` underflows, but only by far less than
    # the 1e-6 slack of the emptiness and nesting tests
    b1, b2 = balls
    region = Intersection(balls)
    # the closed form's target is one ball's own fields, not a lens
    target, parts = region.target, region.parts
    if b1.radius == b2.radius:
        assert target is parts[0] or target is parts[1]
    else:
        assert target is parts[0 if b1.radius < b2.radius else 1]
    xs = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(8, b1.dim))
    for ps in (region.project(xs), np.array([region.project(x) for x in xs])):
        assert np.all(membership(ps, b1, tol=1e-8)) and np.all(membership(ps, b2, tol=1e-8))


@settings(max_examples=100, deadline=None)
@given(one_d_primitive(0.0), st.sampled_from(["box", "ball", "halfspace"]),
       st.floats(2e-6, 3.0), st.booleans())
def test_disjoint_intervals_are_empty(first, kind, extra, above):
    s1, (lo, hi) = first
    if not np.isfinite(hi if above else lo):
        above = not above
    # the second set starts ``extra`` past one end of the first and points away
    sign = 1.0 if above else -1.0
    start = (hi if above else lo) + sign * extra
    s2 = {"box": Box([min(start, start + sign)], [max(start, start + sign)]),
          "ball": Ball([start + sign * 0.5], 0.5),
          "halfspace": Halfspace([-sign], -sign * start)}[kind]
    with pytest.raises(ValueError, match="empty intersection"):
        Intersection((s1, s2))


@settings(max_examples=100, deadline=None)
@given(box_pairs(), st.integers(0, 2), st.floats(2e-6, 3.0), st.booleans())
def test_disjoint_boxes_are_empty(instance, axis, extra, above):
    (b1, _), _ = instance
    axis %= b1.dim
    # the second box starts ``extra`` past one end of the first on ``axis``
    lo, hi = b1.lower - 1.0, b1.upper + 1.0
    if above:
        lo[axis], hi[axis] = b1.upper[axis] + extra, b1.upper[axis] + extra + 1.0
    else:
        lo[axis], hi[axis] = b1.lower[axis] - extra - 1.0, b1.lower[axis] - extra
    with pytest.raises(ValueError, match="empty intersection"):
        Intersection((b1, Box(lo, hi)))


def test_box_pair_is_projected_as_one_box():
    region = Intersection((Box([-1.0, -2.0, 0.0], [1.0, 2.0, 3.0]),
                           Box([0.0, -3.0, -1.0], [2.0, 1.0, 1e-7])))
    xs = np.array([[5.0, -5.0, 5.0], [-5.0, 5.0, -5.0], [0.5, 0.0, 5e-8]])
    np.testing.assert_array_equal(region.project(xs), [[1.0, -2.0, 1e-7], [0.0, 1.0, 0.0],
                                                       [0.5, 0.0, 5e-8]])
    # a lower end above its upper end by at most 1e-6 is allowed, as for an
    # interval, and the membership check then rejects the projection
    touching = Intersection((Box([0.0, 0.0], [1.0, 1.0]), Box([1.0 + 5e-7, 0.0], [2.0, 1.0])))
    with pytest.raises(ProjectionError, match="left the set"):
        touching.project([3.0, 0.5])


@pytest.mark.parametrize("components", [
    (Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0)),  # lens
    (Ball([0.0, 0.0], 3.0), Ball([1.5, 0.0], 1.0)),  # nested balls
    (Box([-1.0], [1.0]), Halfspace([1.0], 0.5)),  # interval
    (Box([-1.0, -1.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 0.5)),  # box ∩ halfspace
    # the same regions given their primitives' fields
    ((Ball, np.zeros(2), 1.0), (Ball, np.array([1.5, 0.0]), 1.0)),
    ((Ball, np.zeros(2), 3.0), (Ball, np.array([1.5, 0.0]), 1.0)),
    ((Box, [-1.0], [1.0]), (Halfspace, [1.0], 0.5)),
    ((Box, [-1.0, -1.0], [1.0, 1.0]), (Halfspace, [1.0, 1.0], 0.5)),
], ids=["lens", "nested", "interval", "box-halfspace",
        "lens-fields", "nested-fields", "interval-fields", "box-halfspace-fields"])
def test_intersection_pickles(components):
    region = Intersection(components)
    copy = pickle.loads(pickle.dumps(region))
    xs = np.random.default_rng(3).uniform(-4.0, 4.0, size=(20, region.dim))
    assert np.array_equal(copy.project(xs), region.project(xs))


def bits(a):
    """The bit patterns of a float array (tells -0.0 from 0.0)."""
    return np.asarray(a, dtype=float).reshape(-1).view(np.uint64)


@st.composite
def points(draw, d, elements=st.floats(-1e3, 1e3)):
    """A point of shape ``(d,)`` or a batch ``(n, d)``."""
    shape = draw(st.one_of(st.just((d,)), st.integers(1, 8).map(lambda n: (n, d))))
    return draw(hnp.arrays(float, shape, elements=elements))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(points), st.booleans())
def test_norm_helper_is_linalg_norm_bitwise(v, keepdims):
    assert same_bits(geometry._norm(v, keepdims=keepdims),
                     np.linalg.norm(v, axis=-1, keepdims=keepdims))
    if geometry._floats(v) is not None:
        assert same_bits(geometry._norm_floats(v.tolist()), geometry._norm(v))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=7))
def test_numpy_sums_fewer_than_8_terms_from_left_to_right(values):
    # the premise of geometry's float path for a point of fewer than 8
    # coordinates: numpy adds them to +0.0 in order (so a lone -0.0 sums to
    # +0.0); from 8 terms on it sums in pairwise blocks
    with np.errstate(over="ignore"):
        total = np.add.reduce(np.array(values))
    assert same_bits(total, functools.reduce(operator.add, values, 0.0))


signed = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    hnp.arrays(float, d, elements=signed), hnp.arrays(float, d, elements=signed),
    points(d, elements=signed))))
def test_box_project_is_clip_bitwise(instance):
    a, b, x = instance
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    box = Box(lo, hi)
    p = box.project(x)
    # np.clip of each row, signed zeros included. np.clip of a whole (n, 1)
    # batch breaks ties with a bound the other way (it returns the point's
    # zero, where np.clip of a row returns the bound's), so against it only
    # the values are compared
    rows = np.clip(x, lo, hi) if x.ndim == 1 else np.array([np.clip(r, lo, hi) for r in x])
    assert same_bits(p, rows)
    assert np.array_equal(p, np.clip(x, lo, hi))


def ball_edge_points(ball, rng):
    """Points at distance 0, r, one ulp either side of r, 3r and 1000r
    from the center, along the first axis and along a random direction,
    then two non-finite points. Along the axis of a ball centred at the
    origin these distances are exact (``sqrt(r * r) == r``)."""
    r = ball.radius
    dists = np.array([0.0, r, np.nextafter(r, np.inf), np.nextafter(r, 0.0), 3.0 * r, 1e3 * r])
    u = rng.normal(size=ball.dim)
    u /= np.linalg.norm(u)
    axis = np.eye(ball.dim)[0]
    pts = ball.center + np.vstack([dists[:, None] * axis, dists[:, None] * u])
    bad = np.tile(ball.center, (2, 1))
    bad[0, 0], bad[1, -1] = np.nan, np.inf
    return np.vstack([pts, bad])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)), st.floats(1e-3, 1e3),
    points(d, elements=st.floats(-1e4, 1e4)))), st.integers(0, 2 ** 32 - 1))
def test_ball_project_matches_where_form_bitwise(instance, seed):
    center, radius, x = instance
    for ball in (Ball(center, radius), Ball(np.zeros_like(center), radius)):
        edge = ball_edge_points(ball, np.random.default_rng(seed))
        with np.errstate(invalid="ignore"):  # inf * 0 in the non-finite points
            for pts in (x, edge, *edge):
                assert same_bits(ball.project(pts), reference_ball_project(ball, pts))
            # a batch is its rows projected one by one
            assert same_bits(ball.project(edge), np.array([ball.project(p) for p in edge]))


# coordinates where a float path could part from the array path: NaN,
# infinities, signed zeros, and magnitudes whose squares underflow or overflow
EXTREME = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                     1e-200, -1e-200, 1e200, -1e200]),
                    st.floats(-1e3, 1e3), st.floats())


def outcome(f, x):
    """The bits of ``f(x)``, or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return bits(f(x)).tolist()
    except (ValueError, ProjectionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda d: st.tuples(
    hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)), st.floats(1e-3, 1e3),
    hnp.arrays(float, d, elements=EXTREME))), st.integers(0, 2 ** 32 - 1))
def test_single_point_is_its_batch_row_bitwise(instance, seed):
    # a point of fewer than 8 coordinates takes the float path, a batch and
    # a longer point the array path
    center, radius, x = instance
    for ball in (Ball(center, radius), Ball(np.zeros_like(center), radius)):
        rng = np.random.default_rng(seed)
        # nested in a larger ball, so the intersection's closed form is
        # ``ball``'s own fields (in one dimension, the interval ``ball`` as a box)
        outer = Ball(np.zeros_like(center), np.linalg.norm(center) + 2.0 * radius)
        nested = Intersection((outer, ball))
        assert nested.target is nested.parts[1] or ball.dim == 1
        regions = [(nested, [x, *ball_edge_points(ball, rng)])]
        if ball.dim >= 2:
            # overlapping, neither inside the other: a lens, peeled
            other = Ball(ball.center + radius * np.eye(ball.dim)[0], radius)
            lens = Intersection((ball, other))
            assert lens.target is None
            regions.append((lens, [x, *ball_edge_points(ball, rng),
                                   *ball_edge_points(other, rng),
                                   *lens_rim_points(ball, other, rng)]))
        for region, pts in regions:
            ops = [ball.project, ball.contains, region.project, region.contains,
                   *(functools.partial(f, s=s) for f in (project, dist_subgradient)
                     for s in (ball, region))]
            for p in pts:
                for op in ops:
                    assert outcome(op, p) == outcome(lambda b: op(b)[0], p[None, :])


def lens_rim_points(b1, b2, rng):
    """The centre ``mid`` of the lens of two overlapping balls, a point of
    its rim (the circle of radius ``h`` around ``mid`` orthogonal to the
    centres' axis), that point with every coordinate one ulp up and one ulp
    down, and points 3h and 1000h from ``mid`` in the rim's plane, which
    project onto the rim."""
    gap = np.linalg.norm(b2.center - b1.center)
    u = (b2.center - b1.center) / gap
    a = (gap * gap + b1.radius ** 2 - b2.radius ** 2) / (2.0 * gap)
    mid, h = b1.center + a * u, math.sqrt(max(b1.radius ** 2 - a * a, 0.0))
    v = rng.normal(size=u.shape[0])
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    rim = mid + h * v
    return [mid, rim, np.nextafter(rim, np.inf), np.nextafter(rim, -np.inf),
            mid + 3.0 * h * v, mid + 1e3 * h * v]


@st.composite
def halfspace_batches(draw):
    d = draw(st.integers(1, 5))
    normal = draw(hnp.arrays(float, d, elements=st.floats(-2.0, 2.0)).filter(
        lambda a: np.linalg.norm(a) > 0.1))
    xs = draw(hnp.arrays(float, (draw(st.integers(1, 8)), d), elements=st.floats(-5.0, 5.0)))
    return normal, draw(st.floats(-2.0, 2.0)), xs


@settings(max_examples=300, deadline=None)
@given(halfspace_batches())
def test_halfspace_batch_matches_rows(instance):
    normal, offset, xs = instance
    half = Halfspace(normal, offset)
    ps = half.project(xs)
    assert same_bits(ps, np.array([half.project(x) for x in xs]))
    assert np.array_equal(half.contains(xs), [half.contains(x) for x in xs])
    # a single point gets the bits it got from ``x @ normal``
    nsq = float(normal @ normal)
    for x, p in zip(xs, ps):
        assert same_bits(p, x - max((x @ normal - offset) / nsq, 0.0) * normal)


def test_dykstra_waits_for_its_corrections_to_settle():
    # the iterate stood still at [0.9906, 0.9596] while the corrections kept
    # changing; the projection is the vertex where the halfspace cuts y = 1
    normal, offset = np.array([0.2265042905300834, 0.9740101674887504]), 1.159074751207022
    components = (Box([-1.0, -1.0], [1.0, 1.0]), Halfspace(normal, offset))
    x, converged, _ = _dykstra(np.array([[1.4640170270421287, 5.4799021948254465]]), components)
    assert converged
    np.testing.assert_allclose(x, [[(offset - normal[1]) / normal[0], 1.0]], rtol=0, atol=1e-8)


def test_dykstra_stops_at_a_point_nearest_in_one_component():
    # the ends -1 and -0.99999 lie 1e-5 apart, so the corrections shift by
    # 1e-5 a sweep for 1.9e5 sweeps; the iterate is the projection onto the
    # ball from the first sweep on, which settles it
    components = (Box([-1.0], [0.0]), Ball([1e-5], 1.0))
    x, converged, _ = _dykstra(np.array([[-2.86]]), components)
    assert converged
    np.testing.assert_allclose(x, [[-0.99999]], rtol=0, atol=1e-12)


def clip_square(normal, offset):
    """Vertices, in order, of the square [-1, 1]^2 cut by normal . y <= offset."""
    square = [np.array(v, dtype=float) for v in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    poly = []
    for p, q in zip(square, square[1:] + square[:1]):
        fp, fq = p @ normal - offset, q @ normal - offset
        if fp <= 0.0:
            poly.append(p)
        if min(fp, fq) < 0.0 < max(fp, fq):
            poly.append(p + fp / (fp - fq) * (q - p))
    return poly


def nearest_on_polygon(poly, x):
    """The point of the polygon's boundary nearest to ``x``."""
    best = None
    for p, q in zip(poly, poly[1:] + poly[:1]):
        e = q - p
        s = min(1.0, max(0.0, (x - p) @ e / (e @ e))) if e @ e > 0.0 else 0.0
        y = p + s * e
        if best is None or np.linalg.norm(x - y) < np.linalg.norm(x - best):
            best = y
    return best


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi), st.floats(1e-3, 1.9),
       hnp.arrays(float, 2, elements=st.floats(-5.0, 5.0)))
def test_box_halfspace_projection_is_exact(angle, depth, x):
    # the halfspace cuts ``depth`` into the square, measured along its normal
    normal = np.array([math.cos(angle), math.sin(angle)])
    offset = float(np.abs(normal).sum()) - depth
    region = Intersection((Box([-1.0, -1.0], [1.0, 1.0]), Halfspace(normal, offset)))
    p = region.project(x)
    inside = np.all(np.abs(x) <= 1.0) and x @ normal <= offset
    ref = x if inside else nearest_on_polygon(clip_square(normal, offset), x)
    np.testing.assert_allclose(p, ref, rtol=0, atol=1e-7)


# a cut whose line passes 5e-4 from the corner (1, 1): Dykstra's scheme needs
# more than 10,000 sweeps to project ``x`` onto the square less that corner
CORNER_CUT = (np.array([-0.8584020334834557, 0.5129775325601194]), -0.345912256133708,
              np.array([1.1801586173866276, 5.345095387964924]))


def test_corner_cut_projects_onto_its_vertex():
    normal, offset, x = CORNER_CUT
    region = Intersection((Box([-1.0, -1.0], [1.0, 1.0]), Halfspace(normal, offset)))
    np.testing.assert_allclose(region.project(x), [1.0, 0.99904917], rtol=0, atol=1e-8)


@st.composite
def corner_cuts(draw):
    """A halfspace whose line passes 1e-9 to 1e-2 inside a corner of the
    square [-1, 1]², at any angle that leaves part of the square, and a
    point around the square."""
    corner = np.array(draw(st.sampled_from([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0),
                                            (-1.0, 1.0)])))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    normal = np.array([math.cos(angle), math.sin(angle)])
    offset = float(normal @ corner) - draw(st.floats(1e-9, 1e-2))
    if not offset > 1e-6 - np.abs(normal).sum():
        reject()  # the cut leaves no part of the square
    return normal, offset, draw(hnp.arrays(float, 2, elements=st.floats(-6.0, 6.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corner_cuts())
@example(CORNER_CUT)
def test_corner_cuts_project_onto_the_cut_square(cut):
    normal, offset, x = cut
    region = Intersection((Box([-1.0, -1.0], [1.0, 1.0]), Halfspace(normal, offset)))
    inside = np.all(np.abs(x) <= 1.0) and x @ normal <= offset
    ref = x if inside else nearest_on_polygon(clip_square(normal, offset), x)
    np.testing.assert_allclose(region.project(x), ref, rtol=0, atol=1e-8)


def test_a_region_of_one_corner_point_is_built_and_projects_onto_it():
    # the region is the corner (1.5, 2); Dykstra's scheme stalls 8.1e-4 away
    box = Box([-2.0, -1.0], [1.5, 2.0])
    for region in (Intersection((box, Ball([1.5, 3.0], 1.0))),
                   ball_constraint([1.5, 3.0], 1.0, box).feasible_region):
        np.testing.assert_allclose(region.project(np.zeros(2)), [1.5, 2.0], rtol=0, atol=1e-8)


@st.composite
def peeled_regions(draw):
    """Two or three boxes, balls and halfspaces in 2 to 4 dimensions, in any
    order, each holding a common point 0.1 or more inside it: every pair
    of kinds that no closed form takes, and three parts."""
    d = draw(st.integers(2, 4))
    z = draw(hnp.arrays(float, d, elements=coords))
    reach = hnp.arrays(float, d, elements=st.floats(0.1, 2.0))
    kinds = draw(st.sampled_from([
        ("box", "halfspace"), ("box", "ball"), ("ball", "halfspace"),
        ("halfspace", "halfspace"), ("ball", "ball"), ("box", "ball", "halfspace"),
        ("ball", "halfspace", "halfspace"), ("ball", "ball", "halfspace")]).flatmap(
            st.permutations))
    sets = []
    for kind in kinds:
        if kind == "box":
            sets.append(Box(z - draw(reach), z + draw(reach)))
        elif kind == "ball":
            v = draw(hnp.arrays(float, d, elements=st.floats(-1.0, 1.0)))
            sets.append(Ball(z + v, np.linalg.norm(v) + draw(st.floats(0.1, 1.5))))
        else:
            n = draw(hnp.arrays(float, d, elements=st.floats(-1.0, 1.0)).filter(
                lambda a: np.linalg.norm(a) > 0.1))
            sets.append(Halfspace(n, n @ z + np.linalg.norm(n) * draw(st.floats(0.1, 2.0))))
    return sets


@settings(max_examples=150, deadline=None)
@given(peeled_regions(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_peeled_projection_is_dykstras_and_each_batch_row_bitwise(sets, n, seed):
    region = Intersection(sets)
    xs = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(n, region.dim))
    ps = region.project(xs)
    assert region.target is None or len(sets) == 2 and region.target[0] is Ball
    # in every part at 1e-9, and a batch is its rows projected one by one
    for s in sets:
        assert np.all(s.contains(ps, tol=1e-9))
    assert same_bits(ps, np.array([region.project(x) for x in xs]))
    ref, converged, _ = _dykstra(xs, sets)
    if converged:
        np.testing.assert_allclose(ps, ref, rtol=0, atol=1e-8)


@pytest.mark.parametrize("component", [DecisionSet(Box([-1.0], [1.0]), 2.0), "box",
                                       geometry.GeometricSet()],
                         ids=["decision-set", "str", "set"])
def test_a_component_that_is_no_primitive_is_refused(component):
    with pytest.raises(TypeError, match="^an intersection component must be a Box, Ball "):
        Intersection((Box([-1.0], [1.0]), component))


def test_a_nested_intersection_adds_its_parts():
    box, ball, half = three_sets(2)
    nested = Intersection((Intersection((box, (Ball, ball.center, ball.radius))), half))
    flat = Intersection((box, ball, half))
    assert [kind for kind, _, _ in nested.parts] == [Box, Ball, Halfspace]
    xs = np.random.default_rng(1).uniform(-4.0, 4.0, size=(20, 2))
    assert same_bits(nested.project(xs), flat.project(xs))


# ---------------------------------------------------------------------------
# a short point's box projection in Python floats

# box ends where the float kernel could part from numpy: signed zeros, which
# tie with a zero coordinate, and the infinite ends of a 1-d halfspace's box
BOX_ENDS = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, 1.0, -math.inf, math.inf]),
                     st.floats(-3.0, 3.0))
# coordinates: the same, plus NaN and values tied with a finite end
BOX_COORDS = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, 1.0, math.nan, -math.inf, math.inf]),
                       st.floats(-3.0, 3.0))


def box_ends(d):
    """``(lower, upper)`` of a box in ``d`` dimensions, drawn from ``BOX_ENDS``
    (either end may be -0.0 against the other's +0.0)."""
    pair = st.tuples(hnp.arrays(float, d, elements=BOX_ENDS),
                     hnp.arrays(float, d, elements=BOX_ENDS))
    return pair.map(lambda ab: (np.minimum(*ab), np.maximum(*ab)))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 7).flatmap(lambda d: st.tuples(
    box_ends(d), hnp.arrays(float, d, elements=BOX_COORDS))))
@example(((np.array([0.0]), np.array([-0.0])), np.array([0.0])))
@example(((np.array([-0.0]), np.array([1.0])), np.array([0.0])))
@example(((np.array([-1.0]), np.array([-0.0])), np.array([0.0])))
@example(((np.array([-math.inf]), np.array([1.0])), np.array([math.nan])))
def test_box_float_kernel_is_maximum_then_minimum_bitwise(instance):
    # np.maximum and np.minimum return their second operand, the end, on a
    # tie of -0.0 with +0.0, and keep a NaN coordinate; the kernel does both
    (lo, hi), x = instance
    expected = np.minimum(np.maximum(x, lo), hi)
    assert same_bits(np.array(geometry._box_floats(x.tolist(), lo, hi)), expected)
    box = Box(lo, hi)
    assert same_bits(np.array(box._point(x.tolist())), expected)
    assert same_bits(box.project(x), expected)
    # as the target of an intersection of two boxes, which holds it twice
    region = Intersection((box, (Box, lo, hi)))
    assert region.target[0] is Box
    with np.errstate(invalid="ignore"):  # the residual of a NaN coordinate
        assert raised(region.project, x) == raised(checked_target_projection(region), x)


def raised(f, x):
    """The bits of ``f(x)``, or the type, message and residual bits of the
    ``ProjectionError`` it raises."""
    try:
        return bits(f(x)).tolist()
    except ProjectionError as exc:
        return type(exc), str(exc), bits(exc.residual).tolist()


def checked_target_projection(region):
    """An intersection's closed form projection as its array path takes it:
    the target's array projection, post-checked on arrays."""
    return lambda a: geometry._checked(geometry._project_onto(region.target, a), region.parts)


@st.composite
def box_target_regions(draw):
    """An intersection of two primitives' fields whose closed form is a box:
    a 1-d box with a 1-d halfspace (either sign of normal, its end at a
    point of the box or 1e-9 past it) or a 1-d ball (of radius down to
    1e-9), as the 1-d scenarios' regions are, or two boxes in 1 to 7
    dimensions."""
    kind = draw(st.sampled_from([Halfspace, Ball, Box]))
    d = 1 if kind is not Box else draw(st.integers(1, 7))
    lo, hi = draw(box_ends(d).filter(lambda e: np.isfinite(e).all()))
    first = (Box, lo, hi + 1.0)
    if kind is Halfspace:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        scale = draw(st.sampled_from([1.0, 0.5, 3.0]))
        # the end sits at a point of the box, or 1e-9 past it
        end = draw(st.sampled_from([lo[0], hi[0], (lo[0] + hi[0]) / 2.0])) + draw(
            st.sampled_from([0.0, 1e-9, -1e-9]))
        second = (Halfspace, np.array([sign * scale]), sign * scale * end)
    elif kind is Ball:
        center = draw(st.floats(lo[0], hi[0] + 1.0))
        second = (Ball, np.array([center]), draw(st.sampled_from([0.5, 1e-9, 2.0])))
    else:
        lo2, hi2 = draw(box_ends(d).filter(lambda e: np.isfinite(e).all()))
        second = (Box, np.minimum(lo2, hi + 1.0), np.maximum(hi2, lo))
    try:
        region = Intersection((first, second))
    except ValueError:
        reject()  # the two sets miss each other
    assert region.target[0] is Box
    return region


@settings(max_examples=400, deadline=None)
@given(box_target_regions(), st.data())
def test_box_target_point_is_the_checked_array_projection_bitwise(region, data):
    # a short point onto a box target is projected and post-checked in
    # floats, and a point that fails the floats' check is checked on arrays:
    # the bits, or the ProjectionError with its residual, of the array path
    d = region.dim
    x = data.draw(hnp.arrays(float, d, elements=BOX_COORDS | st.floats(-1e3, 1e3)))
    reference = checked_target_projection(region)
    with np.errstate(invalid="ignore"):
        expected = raised(reference, x)
        assert raised(lambda a: np.array(region._point(a.tolist())), x) == expected
        assert raised(region.project, x) == expected
    # the closed form moved 1e-6 outside its region: a point far outside
    # projects onto the moved box, which fails the check on both paths
    with mock.patch.object(geometry, "_closed_form", moved_box(geometry._closed_form)):
        moved = Intersection(region.parts)
    far = 1e4 * data.draw(hnp.arrays(float, d, elements=st.sampled_from([-1.0, 1.0])))
    expected = raised(checked_target_projection(moved), far)
    assert expected[0] is ProjectionError
    assert raised(moved.project, far) == expected
    assert raised(lambda a: np.array(moved._point(a.tolist())), far) == expected


def moved_box(closed_form):
    """``geometry._closed_form`` with a box target's ends moved 1e-6 out."""
    def form(parts):
        kind, p, q = closed_form(parts)
        return kind, p - 1e-6, q + 1e-6
    return form


def test_a_long_point_or_a_batch_stays_on_arrays_bitwise(monkeypatch):
    # ``project`` is every set's array path: a point of 7 or 8 coordinates
    # and a batch reach no float kernel there (a ball's own included) and
    # get the bits of their one-row batches; ``dist_subgradient`` takes a
    # point of 7, and never one of 8, into a float kernel (``_point``)
    seen = []

    def counted(f):
        return lambda v, p, q: seen.append(len(v)) or f(v, p, q)

    for kind in (Box, Ball):
        row = geometry._KERNELS[kind]
        monkeypatch.setitem(geometry._KERNELS, kind, row._replace(floats=counted(row.floats)))
    monkeypatch.setattr(geometry, "_ball_floats", counted(geometry._ball_floats))
    for d in (7, 8):
        box = Box(-np.ones(d), np.ones(d))
        ball = Ball(np.zeros(d), 1.0)
        sets = [box, ball, Intersection((box, (Box, -2.0 * np.ones(d), 0.5 * np.ones(d)))),
                Intersection((ball, (Ball, np.zeros(d), 2.0)))]
        assert [s.target[0] for s in sets[2:]] == [Box, Ball]
        x = np.linspace(-3.0, 3.0, d)
        for s in sets:
            for pts in (x, np.vstack([x, -x])):
                seen.clear()
                out = s.project(pts)
                expected = np.array([s.project(p[None, :])[0] for p in np.atleast_2d(pts)])
                assert not seen
                assert same_bits(np.atleast_2d(out), expected)
                if pts.ndim == 1:
                    assert same_bits(dist_subgradient(pts, s), geometry._unit_offset(
                        pts, expected[0], geometry.ZERO_DIST_TOL))
                    assert seen == ([d] if d < 8 else [])
