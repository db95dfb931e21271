import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coco_lab.core import CostOracle, DecisionSet
from coco_lab.geometry import Box, membership
from coco_lab.scenarios import (
    SCENARIOS,
    AffineCost,
    BallConstraint,
    BoxConstraint,
    ConstantConstraint,
    HalfspaceConstraint,
    NormCost,
    OracleStack,
    Scenario,
    ScenarioSpec,
    StaticScenario,
    box_constraint,
    build_scenario,
    constant_constraint,
    make_scenario,
)
from reference import GridSpec, constrained_minimizer_path, min_feasible_path


ALL_NAMES = sorted(SCENARIOS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_same_seed_regenerates_identical_oracles(name):
    a = make_scenario(name, 50, seed=9)
    b = make_scenario(name, 50, seed=9)
    rng = np.random.default_rng(16)
    for t in (1, 2, 25, 50):
        cost_a, con_a = a.generate(t)
        cost_b, con_b = b.generate(t)
        xs = rng.uniform(-1, 1, size=(5, a.dimension))
        assert np.array_equal(np.asarray(cost_a.value(xs)), np.asarray(cost_b.value(xs)))
        assert np.array_equal(np.asarray(con_a.value(xs)), np.asarray(con_b.value(xs)))
        assert np.array_equal(np.asarray(cost_a.subgradient(xs[0])),
                              np.asarray(cost_b.subgradient(xs[0])))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_bounds_enforced(name):
    sc = make_scenario(name, 10)
    with pytest.raises(ValueError):
        sc.generate(0)
    with pytest.raises(ValueError):
        sc.generate(11)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_lipschitz_dominates_sampled_gradients(name):
    sc = make_scenario(name, 30, seed=3)
    rng = np.random.default_rng(17)
    for t in range(1, 31):
        cost, constraint = sc.generate(t)
        for _ in range(5):
            x = sc.decision_set.project(rng.normal(scale=2.0, size=sc.dimension))
            assert np.linalg.norm(cost.subgradient(x)) <= sc.g_lip + 1e-9
            assert np.linalg.norm(constraint.subgradient(x)) <= sc.g_lip + 1e-9


@pytest.mark.parametrize("name", ALL_NAMES)
def test_constraint_value_agrees_with_region_membership(name):
    sc = make_scenario(name, 20, seed=4)
    rng = np.random.default_rng(18)
    for t in range(1, 21):
        _, constraint = sc.generate(t)
        for _ in range(5):
            x = sc.decision_set.project(rng.normal(scale=2.0, size=sc.dimension))
            inside = bool(membership(x, constraint.feasible_region, tol=1e-9))
            val = float(constraint.value(x))
            if val <= -1e-9:
                assert inside
            if val >= 1e-9 or not inside:
                # outside the sublevel set, or flagged outside: signs agree
                assert (val >= -1e-9) or inside


@pytest.mark.parametrize("name", ALL_NAMES)
def test_comparators_are_members_and_feasible_on_every_round(name):
    sc = make_scenario(name, 25, seed=5)
    for comp in sc.comparators().values():
        assert comp.points.shape == (25, sc.dimension)
        assert np.all(membership(comp.points, sc.decision_set.geometry, tol=1e-8))
        for t in range(1, 26):
            _, constraint = sc.generate(t)
            assert float(constraint.value(comp.points[t - 1])) <= 1e-9


def test_closed_form_paths_match_grid_oracles_at_truncation():
    checks = [
        ("alternating", GridSpec([-3.0], [3.0], 0.01)),
        ("disjoint-alternating", GridSpec([0.0], [3.0], 0.01)),
        ("static", GridSpec([-3.0], [3.0], 0.01)),
    ]
    T = 21
    for name, grid in checks:
        sc = make_scenario(name, T)
        pairs = [sc.generate(t) for t in range(1, T + 1)]
        _, p_star = constrained_minimizer_path([c for c, _ in pairs],
                                               [k for _, k in pairs], grid)
        assert p_star == pytest.approx(sc.minimizer_path_length(), abs=1e-9)
        _, p_min = min_feasible_path([k for _, k in pairs], grid)
        assert p_min <= sc.feasible_path_length() + 1e-9


def test_tracking_ball_closed_forms_match_oracles_at_truncation():
    T = 21
    sc = make_scenario("tracking-ball", T, seed=6)
    grid = GridSpec([-3.0, -3.0], [3.0, 3.0], 0.02)
    pairs = [sc.generate(t) for t in range(1, T + 1)]
    _, p_star = constrained_minimizer_path([c for c, _ in pairs],
                                           [k for _, k in pairs], grid)
    # grid argmins sit within one diagonal cell of the true minimizers
    slack = 3.0 * np.sqrt(2.0) * 0.02 * T
    assert abs(p_star - sc.minimizer_path_length()) <= slack
    _, p_min = min_feasible_path([k for _, k in pairs], grid)
    assert p_min <= sc.feasible_path_length() + 1e-9


def test_disjoint_alternating_declared_paths_exact():
    sc = make_scenario("disjoint-alternating", 40)
    assert sc.minimizer_path_length() == pytest.approx(78.0)
    assert sc.feasible_path_length() == pytest.approx(39.0)
    comps = sc.comparators()
    assert comps["min-feasible-path"].path_length == pytest.approx(39.0)
    assert comps["minimizer-path"].path_length == pytest.approx(78.0)


def test_tracking_ball_center_path_bounded_by_step_budget():
    T = 60
    sc = make_scenario("tracking-ball", T, seed=7)
    comp = sc.comparators()["center-path"]
    step = 2.0 * 1.5 * np.sin(np.pi / T)  # per-round center movement
    assert comp.path_length <= step * T + 1e-9
    assert sc.feasible_path_length() == pytest.approx(comp.path_length)


def test_minimizer_comparator_matches_declared_path():
    for name in ("tracking-ball", "static", "alternating", "disjoint-alternating"):
        sc = make_scenario(name, 30, seed=8)
        comp = sc.comparators()["minimizer-path"]
        assert comp.path_length == pytest.approx(sc.minimizer_path_length())


# (minimizer, feasible) path lengths as each scenario declared them in
# numbers before they were the paths of named comparators: 0.0, 2.0 * (T - 1),
# float(T - 1) and, for tracking-ball, core.path_length of its minimizers
# and of its centers
DECLARED_PATHS = {
    ("tracking-ball", 2, 0): (4.588900481158686, 3.0),
    ("tracking-ball", 2, 3): (2.453080516894193, 3.0000000000000004),
    ("tracking-ball", 7, 0): (11.986297510239812, 7.809907304116046),
    ("tracking-ball", 7, 3): (14.544571848739086, 7.809907304116045),
    ("tracking-ball", 300, 0): (19.956965199976292, 9.393190352272464),
    ("tracking-ball", 300, 3): (19.993703162019195, 9.39319035227245),
    **{("disjoint-alternating", T, seed): paths for seed in (0, 3) for T, paths in (
        (2, (2.0, 1.0)), (7, (12.0, 6.0)), (300, (598.0, 299.0)))},
    **{("oco-mix", T, seed): (None, 0.0) for T in (1, 2, 7, 300) for seed in (0, 3)},
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("T", [1, 2, 7, 300])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_paths_keep_their_bits(name, T, seed):
    sc = make_scenario(name, T, seed=seed)
    declared = (sc.minimizer_path_length(), sc.feasible_path_length())
    expected = DECLARED_PATHS.get((name, T, seed), (0.0, 0.0))
    assert [None if v is None else (type(v), v.hex()) for v in declared] == \
        [None if v is None else (float, v.hex()) for v in expected]


@pytest.mark.parametrize("path", ["minimizer_path", "feasible_path"])
def test_a_path_that_names_no_declared_comparator_is_rejected(path):
    spec = ScenarioSpec("static", horizon=4)
    ds = DecisionSet(Box([-1.0], [1.0]), 2.0)
    with pytest.raises(ValueError, match="path 'nope' is not a declared comparator; "
                                         r"'static' declares \['origin'\]"):
        Scenario(spec, ds, 1.0, {"origin": np.zeros((4, 1))}, **{path: "nope"})
    sc = Scenario(spec, ds, 1.0, {"origin": np.zeros((4, 1))}, **{path: "origin"})
    assert list(sc.comparators()) == ["origin"]


def test_comparators_are_built_once_and_handed_out_in_a_new_dict():
    sc = make_scenario("tracking-ball", 20, seed=1)
    first, second = sc.comparators(), sc.comparators()
    assert first is not second and list(first) == ["center-path", "minimizer-path"]
    assert all(first[name] is second[name] for name in first)
    first.clear()
    assert list(sc.comparators()) == list(second)


def test_tracking_ball_angles_that_overflow_are_rejected_without_a_warning():
    for name in ("ring_loops", "cost_loops"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"param {name} makes angles that overflow, "
                                                 "got 1e\\+308"):
                make_scenario("tracking-ball", 10, **{name: 1e308})


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario(ScenarioSpec(name="nope", horizon=5))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)),
    hnp.arrays(float, d, elements=st.floats(0.1, 3.0)),
    hnp.arrays(float, (4, d), elements=st.floats(-1.5, 2.5)))))
def test_box_constraint_subgradient_is_a_signed_unit_vector_on_the_largest_margin(instance):
    lo, width, steps = instance
    hi = lo + width
    constraint = box_constraint(lo, hi, Box(np.full_like(lo, -10.0), np.full_like(lo, 10.0)))
    # the first point inside the box, the others anywhere around it
    pts = lo + np.vstack([np.clip(steps[:1], 0.0, 1.0), steps[1:]]) * width
    for x in pts:
        s = constraint.subgradient(x)
        margins = np.maximum(lo - x, x - hi)
        (i,) = np.flatnonzero(s)  # zero on every other coordinate
        assert abs(s[i]) == 1.0 and margins[i] == margins.max()
        # a subgradient of the convex value: its linearization stays below it
        for y in pts:
            assert constraint.value(y) >= constraint.value(x) + s @ (y - x) - 1e-12


def test_constant_positive_constraint_is_rejected():
    geom = Box([-1.0], [1.0])
    with pytest.raises(ValueError, match="a constant positive constraint has an empty "
                                         "feasible region"):
        constant_constraint(0.5, geom)
    assert constant_constraint(0.0, geom).value(np.zeros(1)) == 0.0


def test_oco_mix_comparator_paths_span_orders():
    T = 2000
    sc = make_scenario("oco-mix", T, seed=0)
    comps = sc.comparators()
    assert comps["static-center"].path_length == 0.0
    assert 0.5 * np.sqrt(T) <= comps["slow-circle"].path_length <= 2.0 * np.sqrt(T)
    assert comps["fast-circle"].path_length >= 0.25 * T


def same_bits(a, b):
    """Equal shapes and bit patterns (tells -0.0 from 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


FAMILIES = [AffineCost, NormCost, HalfspaceConstraint, BallConstraint, BoxConstraint,
            ConstantConstraint]
NUMBERS = st.floats(-1e3, 1e3)


@st.composite
def family_oracle(draw, family, d):
    """One round's oracle of ``family`` in dimension ``d``, parameters drawn."""
    vec = hnp.arrays(float, d, elements=NUMBERS)
    geom = Box(np.full(d, -1e4), np.full(d, 1e4))
    if family is AffineCost:
        return AffineCost(draw(vec), draw(NUMBERS))
    if family is NormCost:
        return NormCost(draw(vec))
    if family is HalfspaceConstraint:
        return HalfspaceConstraint(draw(vec), draw(NUMBERS), geom)
    if family is BallConstraint:
        return BallConstraint(draw(vec), draw(st.floats(0.0, 1e3)), geom)
    if family is BoxConstraint:
        a, b = draw(vec), draw(vec)
        return BoxConstraint(np.minimum(a, b), np.maximum(a, b), geom)
    return ConstantConstraint(draw(st.floats(-1e3, 0.0)), geom)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_family_kernel_is_each_rounds_value_bitwise(family, d, data):
    n = data.draw(st.integers(1, 12))
    oracles = [data.draw(family_oracle(family, d)) for _ in range(n)]
    points = data.draw(hnp.arrays(float, (n, d), elements=NUMBERS))
    expect = [float(o.value(p)) for o, p in zip(oracles, points)]
    assert same_bits(family.evaluate(family.stack(oracles), points), expect)
    assert same_bits(OracleStack(oracles).values(points), expect)


# coordinates where a float path could part from the array path: NaN,
# infinities, signed zeros, and magnitudes whose squares underflow or overflow
EXTREME = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0,
                                     1e-200, -1e-200, 1e200, -1e200]), NUMBERS, st.floats())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda d: st.tuples(
    hnp.arrays(float, d, elements=NUMBERS), hnp.arrays(float, d, elements=EXTREME),
    hnp.arrays(float, d, elements=NUMBERS))))
def test_radial_single_point_is_its_batch_row_bitwise(instance):
    # a point of fewer than 8 coordinates takes the float path, a batch and
    # a longer point the array path
    center, x, y = instance
    d = len(center)
    geom = Box(np.full(d, -1e4), np.full(d, 1e4))
    # at the subgradient's zero threshold 1e-12 and at the radius 1, and one
    # ulp either side of each, along the first axis of an origin-centred oracle
    dists = [t for r in (1e-12, 1.0) for t in (np.nextafter(r, 0.0), r, np.nextafter(r, 2.0))]
    edge = [dist * np.eye(d)[0] for dist in dists]
    for c, points in ((center, [x, y]), (np.zeros(d), [x, y, *edge])):
        for oracle in (NormCost(c), BallConstraint(c, 1.0, geom)):
            for f in (oracle.value, oracle.subgradient):
                for p in points:
                    with np.errstate(all="ignore"):
                        assert same_bits(f(p), f(p[None, :])[0])


def test_oracle_values_mixes_families_and_plain_oracles():
    rng = np.random.default_rng(21)
    geom = Box([-5.0, -5.0], [5.0, 5.0])
    plain = CostOracle(value=lambda x: float(np.sum(x ** 3)), subgradient=None)
    oracles = [AffineCost(rng.normal(size=2), 0.5), plain,
               NormCost(rng.normal(size=2)), plain,
               BallConstraint(rng.normal(size=2), 1.0, geom),
               AffineCost(rng.normal(size=2), -1.0)]
    points = rng.normal(size=(len(oracles), 2))
    values = OracleStack(oracles).values(points)
    assert same_bits(values, [float(o.value(p)) for o, p in zip(oracles, points)])


def _mixed_block():
    """oco-mix's costs, which alternate ``AffineCost`` and ``NormCost``, and
    its constraints."""
    sc = make_scenario("oco-mix", 40, seed=6)
    pairs = [sc.generate(t) for t in range(1, 41)]
    assert {type(c) for c, _ in pairs} == {AffineCost, NormCost}
    return [c for c, _ in pairs], [k for _, k in pairs]


def _plain(oracle):
    return CostOracle(value=oracle.value, subgradient=oracle.subgradient)


@pytest.mark.parametrize("block", ["oco-mix-costs", "oco-mix-constraints", "plain-rows"])
def test_one_oracle_stack_serves_several_point_sets(monkeypatch, block):
    costs, constraints = _mixed_block()
    oracles = {"oco-mix-costs": costs, "oco-mix-constraints": constraints,
               "plain-rows": [_plain(o) if i % 3 else o for i, o in enumerate(costs)]}[block]
    stacked = []
    for family in {type(o) for o in oracles}:
        if hasattr(family, "stack"):
            original = family.stack
            monkeypatch.setattr(family, "stack", staticmethod(
                lambda group, _original=original: stacked.append(len(group))
                or _original(group)))
    stack = OracleStack(oracles)
    assert sum(stacked) == sum(hasattr(type(o), "stack") for o in oracles)
    rng = np.random.default_rng(8)
    for points in (rng.normal(size=(40, 2)), np.zeros((40, 2)), rng.uniform(-9, 9, (40, 2))):
        values = stack.values(points)
        assert same_bits(values, [float(o.value(p)) for o, p in zip(oracles, points)])
    assert len(stacked) == len({type(o) for o in oracles} - {CostOracle})  # stacked once


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generated_oracles_pickle(name):
    sc = make_scenario(name, 8, seed=2)
    xs = np.random.default_rng(19).uniform(-1, 1, size=(6, sc.dimension))
    for t in (1, 2, 8):
        cost, constraint = sc.generate(t)
        cost_b, constraint_b = pickle.loads(pickle.dumps((cost, constraint)))
        assert same_bits(cost_b.value(xs), cost.value(xs))
        assert same_bits(constraint_b.value(xs), np.asarray(constraint.value(xs)))
        assert same_bits(cost_b.subgradient(xs[0]), cost.subgradient(xs[0]))
        assert np.array_equal(constraint_b.feasible_region.contains(xs),
                              constraint.feasible_region.contains(xs))


# (start, stop) rounds of a block at T=300: one row at an odd and at an even
# round, a block starting on an even round (the other parity), one on an
# odd round, the last partial block of 256, every round, and no round
BLOCKS = [(1, 2), (300, 301), (2, 40), (3, 41), (257, 301), (1, 301), (7, 7)]


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: f"{b[0]}-{b[1]}")
@pytest.mark.parametrize("name", ALL_NAMES)
def test_oracle_block_is_the_generated_stack_bitwise(name, block):
    sc = make_scenario(name, 300, seed=5)
    start, stop = block
    pairs = [sc.generate(t) for t in range(start, stop)]
    rng = np.random.default_rng(start)
    for k, stack in enumerate(sc.oracle_block(start, stop)):
        assert len(stack) == stop - start
        reference = OracleStack([pair[k] for pair in pairs])
        for points in (rng.uniform(-4, 4, (stop - start, sc.dimension)),
                       np.zeros((stop - start, sc.dimension))):
            values = stack.values(points)
            assert same_bits(values, reference.values(points))
            assert same_bits(values, [float(p[k].value(x)) for p, x in zip(pairs, points)])


def test_oracle_block_outside_the_horizon_is_rejected():
    sc = make_scenario("tracking-ball", 10)
    for start, stop in ((0, 3), (5, 12), (6, 5)):
        with pytest.raises(ValueError, match="outside horizon"):
            sc.oracle_block(start, stop)


class _Shifted(StaticScenario):
    """static, whose cost is ``1 - 2x`` on even rounds: only ``generate`` says so."""

    def generate(self, t):
        cost, constraint = super().generate(t)
        return (AffineCost(np.array([-2.0]), 1.0) if t % 2 == 0 else cost), constraint


def test_scenario_that_overrides_only_generate_gets_blocks_of_its_own_oracles():
    assert _Shifted.oracle_block is Scenario.oracle_block
    sc = _Shifted(ScenarioSpec("static", horizon=9))
    points = np.linspace(-3.0, 3.0, 9)[:, None]
    costs, constraints = sc.oracle_block(1, 10)
    values = costs.values(points)
    assert same_bits(values, [float(sc.generate(t)[0].value(x))
                              for t, x in zip(range(1, 10), points)])
    assert values[1] == 1.0 - 2.0 * points[1, 0]  # not static's -x
    assert same_bits(constraints.values(points), points[:, 0] - 1.0)
