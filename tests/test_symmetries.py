"""Exact symmetries of a run, checked through ``harness.run`` with no
reference implementation.

Scaling every cost, every constraint and the Lipschitz bound G by 2^k
leaves the plays bit-identical. The learner is scale-free: AdaGrad's step
divides by the root of its summed squared gradients, and AdaHedge's rate by
its loss gap. Both surrogates are positively homogeneous once G scales with
the losses, and so is coco2's default V = gamma sqrt(T). A power of two
multiplies exactly barring overflow and underflow, so each summary value
scales by an exact power of two, and a constraint's feasible region, a
sublevel set, does not move.

Reflecting a 1-d instance through the origin, x -> -x, negates the plays.
The learner starts at 0 and moves by sums of gradients, which negate
exactly; a box's projection clips at ends that negate and swap; the hedge
sees the same losses. So every play is the negation of the original's,
and every summary value, none of which has a sign in x, is equal.

coco2 with a power-of-two V on a constraint that never binds is ahag. Its
violation total stays 0, so its surrogate gradient is V times the cost's,
exactly, and the scale-free ensemble plays as it does on the cost's own
gradient. A V that is no power of two rounds the products and moves the
plays.
"""

import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coco_lab.core import ConstraintOracle, CostOracle, DecisionSet
from coco_lab.geometry import Box
from coco_lab.harness import ALGORITHMS, HarnessError, RunConfig, run, verify_run
from coco_lab.scenarios import SCENARIOS, Scenario, ScenarioSpec, build_scenario

# the values that carry one unit of cost or constraint; a path length, a
# diameter or a flag carries none
SCALES_ONCE = ("final_ccv", "sum_cost", "ccv_bound_rhs", "v", "g_lip")


def scaled_scenario(name: str, s: float):
    """A ``Scenario`` class that plays the built-in ``name`` with every cost,
    every constraint and ``g_lip`` multiplied by ``s``."""

    class Scaled(Scenario):
        def __init__(self, spec):
            inner = build_scenario(replace(spec, name=name))
            super().__init__(spec, inner.decision_set, s * inner.g_lip,
                             {n: c.points for n, c in inner.comparators().items()},
                             minimizer_path=inner._minimizer_path,
                             feasible_path=inner._feasible_path)
            self._inner = inner

        def generate(self, t):
            cost, constraint = self._inner.generate(t)
            return (CostOracle(lambda x: s * cost.value(x), lambda x: s * cost.subgradient(x)),
                    ConstraintOracle(lambda x: s * constraint.value(x),
                                     lambda x: s * constraint.subgradient(x),
                                     constraint.feasible_region))

    return Scaled


def ratio(key: str, algorithm: str, s: float):
    """The factor a summary value takes when the losses scale by ``s``; 1
    for one that carries no unit."""
    if key == "surrogate_grad_sq_sum":
        # coco2's surrogate gradient V f' + 2 Q g' scales as s^2: V and Q
        # scale too
        return s ** 4 if algorithm == "coco2" else s ** 2
    if key in SCALES_ONCE or key.startswith(("regret__", "bound_rhs__")):
        return s
    return 1.0


def assert_scaled_run_scales_exactly(spec, algorithm: str, base, k: int, out_dir: str):
    """Run ``spec``'s scenario with losses and ``g_lip`` scaled by 2^k,
    writing to ``out_dir``: its plays are those of ``base``, the unscaled
    run, bit for bit, each summary value is the unscaled one times its power
    of two, and the run directory verifies clean."""
    s = 2.0 ** k
    scaled_name = f"{spec.name}*2^{k}"
    with mock.patch.dict(SCENARIOS, {scaled_name: scaled_scenario(spec.name, s)}):
        scaled = run(RunConfig(replace(spec, name=scaled_name), algorithm, out_dir=out_dir))
        assert np.array_equal(scaled.x.view(np.uint64), base.x.view(np.uint64))
        assert set(scaled.summary) == set(base.summary)
        for key, value in base.summary.items():
            if key not in ("scenario", "wall_clock_sec"):
                expected = value if isinstance(value, (bool, str)) else ratio(key, algorithm, s) * value
                assert scaled.summary[key] == expected, (k, key)
        assert verify_run(out_dir) == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {"trivial"}))
def test_scaling_losses_and_g_lip_by_a_power_of_two_scales_the_run_exactly(
        tmp_path, name, algorithm):
    # g_lip 8, so that 2^-3 of it is still a bound >= 1, which Scenario takes
    spec = ScenarioSpec(name, 300, seed=1, params={"g_lip": 8.0})
    base = run(RunConfig(spec, algorithm))
    for k in (-3, 3):
        assert_scaled_run_scales_exactly(spec, algorithm, base, k, str(tmp_path / f"2^{k}"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(set(SCENARIOS) - {"trivial"})),
       algorithm=st.sampled_from(ALGORITHMS), seed=st.integers(0, 5),
       horizon=st.integers(1, 300))
def test_scaling_by_any_power_of_two_clear_of_overflow_scales_the_run_exactly(
        data, name, algorithm, seed, horizon):
    """The relation for every k in [-3, 244], and in [-3, 22] on
    tracking-ball, at T <= 300 with g_lip G = 8.

    Below: a scaled run's G is 2^k * 8, and a scenario takes a bound >= 1,
    so k >= -3. That end scales no value below 2^-12 times its own, far
    from the subnormals.

    Above: the largest value a run makes is coco2's sum of squared
    surrogate gradients, which scales as s^4. Its gradient V f' + 2 Q g'
    has norm at most G (V + 2 Q). Here V = gamma sqrt(T) < 2^14 (9614 at
    most), and Q, the violation so far, is at most T G D <= 300 * 8 * 6
    (D <= 6 is the largest decision set's diameter), so the norm is below
    8 * (2^14 + 28,800) < 2^19 and the sum below 300 * 2^38 < 2^46.3. The
    scaled sum stays finite, below 2^1024, while 4k + 46.3 < 1024: k <= 244.
    Every other value scales as s or s^2 and starts smaller.

    tracking-ball stops sooner, at a check that does not scale: a run
    refuses a comparator point u with g(u) > 1e-9 (``FEASIBILITY_TOL``),
    an absolute tolerance. Its minimizer path lies on its balls'
    boundaries, where g(u) reads up to 2^-52 (seed 2, T = 4, among all
    seeds 0..5 and T <= 300). 2^k of that stays below 1e-9, about 2^-29.9,
    while k <= 22; from k = 23 on the scaled run is refused (the xfail
    test below).
    """
    k = data.draw(st.integers(-3, 22 if name == "tracking-ball" else 244), label="k")
    spec = ScenarioSpec(name, horizon, seed=seed, params={"g_lip": 8.0})
    with tempfile.TemporaryDirectory() as out:
        assert_scaled_run_scales_exactly(spec, algorithm, run(RunConfig(spec, algorithm)), k, out)


@pytest.mark.xfail(strict=True, raises=HarnessError, reason=(
    "FEASIBILITY_TOL is absolute: 2^23 times tracking-ball's 2^-52 boundary "
    "rounding passes 1e-9, so comparator 'minimizer-path' marked feasible "
    "violates round 5"))
def test_scaling_tracking_ball_by_2_to_the_23_scales_the_run_exactly(tmp_path):
    spec = ScenarioSpec("tracking-ball", 9, seed=0, params={"g_lip": 8.0})
    assert_scaled_run_scales_exactly(spec, "coco1", run(RunConfig(spec, "coco1")), 23,
                                     str(tmp_path))


def mirror(fields):
    """The reflection through the origin of the 1-d box of ``fields``."""
    kind, lo, hi = fields
    assert kind is Box and lo.shape == (1,)
    return Box(-hi, -lo)


def reflected_scenario(name: str):
    """A ``Scenario`` class that plays the 1-d built-in ``name`` reflected
    through the origin: each oracle reads -x and its subgradient is negated,
    the decision box and each round's region (a 1-d closed form, whose
    target is a box) are mirrored, and so are the comparators."""

    class Reflected(Scenario):
        def __init__(self, spec):
            inner = build_scenario(replace(spec, name=name))
            decision = DecisionSet(mirror(inner.decision_set.geometry.fields),
                                   inner.decision_set.diameter)
            super().__init__(spec, decision, inner.g_lip,
                             {n: -c.points for n, c in inner.comparators().items()},
                             minimizer_path=inner._minimizer_path,
                             feasible_path=inner._feasible_path)
            self._inner = inner

        def generate(self, t):
            cost, constraint = self._inner.generate(t)
            return (CostOracle(lambda x: cost.value(-x), lambda x: -cost.subgradient(-x)),
                    ConstraintOracle(lambda x: constraint.value(-x),
                                     lambda x: -constraint.subgradient(-x),
                                     mirror(constraint.feasible_region.target)))

    return Reflected


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", ["alternating", "disjoint-alternating", "static"])
def test_reflecting_a_1d_instance_negates_the_plays_exactly(
        monkeypatch, tmp_path, name, algorithm):
    spec = ScenarioSpec(name, 300, seed=1)
    base = run(RunConfig(spec, algorithm))
    monkeypatch.setitem(SCENARIOS, f"-{name}", reflected_scenario(name))
    out = tmp_path / f"-{name}"
    reflected = run(RunConfig(replace(spec, name=f"-{name}"), algorithm, out_dir=str(out)))
    # a zero may come out as -0.0 either way; every other play's bits negate
    nonzero = base.x != 0.0
    assert np.array_equal(reflected.x[nonzero].view(np.uint64),
                          (-base.x[nonzero]).view(np.uint64))
    assert np.array_equal(reflected.x, -base.x)
    assert set(reflected.summary) == set(base.summary)
    for key, value in base.summary.items():
        if key not in ("scenario", "wall_clock_sec"):
            assert reflected.summary[key] == value, key
    assert verify_run(str(out)) == []


@pytest.mark.parametrize("seed", [0, 3])
def test_coco2_with_a_power_of_two_v_on_an_inert_constraint_is_ahag(seed):
    spec = ScenarioSpec("oco-mix", 300, seed=seed)
    ahag = run(RunConfig(spec, "ahag"))
    for v in (0.25, 1.0, 8.0, 1024.0):
        coco2 = run(RunConfig(spec, "coco2", v=v))
        assert coco2.summary["final_ccv"] == 0.0
        for column in ("x", "f"):
            assert np.array_equal(getattr(coco2, column).view(np.uint64),
                                  getattr(ahag, column).view(np.uint64)), column
        assert np.array_equal(coco2.grad_norm.view(np.uint64),
                              (v * ahag.grad_norm).view(np.uint64))
        regret = coco2.summary["regret__slow-circle"]
        assert np.float64(regret).view(np.uint64) == np.float64(
            ahag.summary["regret__slow-circle"]).view(np.uint64)
    assert not np.array_equal(run(RunConfig(spec, "coco2", v=3.0)).x, ahag.x)
