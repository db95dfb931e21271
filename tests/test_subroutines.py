import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from coco_lab import harness
from coco_lab.budgets import (
    adagrad_known_path_rhs,
    adagrad_path_free_rhs,
    ahag_constant,
    ensemble_rhs,
)
from coco_lab.core import DecisionSet
from coco_lab.geometry import (Ball, Box, Halfspace, Intersection, _sum, dist_subgradient,
                               membership)
from coco_lab.harness import ALGORITHMS, RunConfig, run
from coco_lab.scenarios import SCENARIOS, ScenarioSpec, affine_cost, build_scenario, make_scenario
from coco_lab.subroutines import (
    KNOWN_PATH,
    AdaGradState,
    AhagState,
    HedgeState,
    adagrad_step,
    adahedge_step,
    ahag_round,
    num_experts,
)
from coco_lab.subroutines import _log_sum_exp


def unit_interval_set():
    return DecisionSet(Box([-0.5], [0.5]), 1.0)


# ---------------------------------------------------------------------------
# adaptive gradient descent

def array_adagrad_step(state, gradient):
    """``adagrad_step`` as every point took it before a short point stepped
    in Python floats: the step formed and projected on arrays."""
    g = np.asarray(gradient, dtype=float)
    s = state.grad_sq_sum + float(g @ g)
    state.grad_sq_sum = s
    if s > 0.0:
        step = state.numerator / math.sqrt(2.0 * s)
        state.point = state.decision_set.project(state.point - step * g)
    return state.point


SIGNED = hst.sampled_from([-0.0, 0.0, -1.0, 1.0]) | hst.floats(-3.0, 3.0)


@hst.composite
def short_decision_sets(draw):
    """A decision set of 1 to 7 dimensions that holds the origin: a box
    (either end may be a zero of either sign), a ball, or the intersection
    of a box with a 1-d halfspace or with another box (closed forms onto a
    box), of two nested balls (onto a ball) or of two overlapping balls (a
    lens, which has no float path)."""
    d = draw(hst.integers(1, 7))
    ends = hnp.arrays(float, d, elements=SIGNED)
    zeros = hnp.arrays(float, d, elements=hst.sampled_from([-0.0, 0.0]))
    lo, hi = -np.abs(draw(ends)), np.abs(draw(ends))
    lo, hi = np.where(lo == 0.0, draw(zeros), lo), np.where(hi == 0.0, draw(zeros), hi)
    center = draw(hnp.arrays(float, d, elements=hst.floats(-0.5, 0.5)))
    radius = float(np.linalg.norm(center)) + draw(hst.floats(0.1, 3.0))
    box, ball = Box(lo, hi), Ball(center, radius)
    kind = draw(hst.sampled_from(["box", "ball", "box-box", "ball-ball", "box-halfspace"]))
    if kind == "box-halfspace":
        box, d = Box(lo[:1], hi[:1]), 1
        sign = draw(hst.sampled_from([-1.0, 1.0]))
        geometry = Intersection((box, (Halfspace, np.array([sign]), draw(hst.floats(0.0, 2.0)))))
    elif kind == "box-box":
        geometry = Intersection((box, (Box, lo / 2.0 - 0.1, hi + 1.0)))
    elif kind == "ball-ball":
        # nested when the second is larger than the first's reach, else a lens
        geometry = Intersection((ball, (Ball, np.zeros(d), draw(hst.floats(0.1, 6.0)))))
    else:
        geometry = box if kind == "box" else ball
    return DecisionSet(geometry, 10.0)


@settings(max_examples=300, deadline=None)
@given(short_decision_sets(), hst.none() | hst.floats(0.0, 50.0), hst.data())
def test_short_point_adagrad_step_is_the_array_step_bitwise(ds, path_estimate, data):
    # a point of fewer than 8 coordinates steps and projects in Python
    # floats, path-free or with a known path; each iterate has the bits of
    # the array step's, signed zeros included
    gradients = data.draw(hst.lists(hnp.arrays(float, ds.dim, elements=SIGNED | hst.floats(
        -1e3, 1e3)), min_size=1, max_size=6))
    state = AdaGradState(ds, path_estimate=path_estimate)
    reference = AdaGradState(ds, path_estimate=path_estimate)
    for g in gradients:
        _, x = adagrad_step(state, g)
        expected = array_adagrad_step(reference, g)
        assert x.shape == expected.shape
        assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))
        assert state.grad_sq_sum == reference.grad_sq_sum


def test_a_short_step_onto_a_negative_zero_end_lands_on_it_bitwise():
    # the first coordinate steps to +0.0, which ties with the upper end -0.0:
    # np.minimum, and so the step, returns the end, where Python's min
    # returns the step's +0.0
    for geometry in (Box([-1.0, -1.0], [-0.0, 1.0]),
                     Intersection((Box([-1.0, -1.0], [-0.0, 1.0]), (Box, [-2.0, -2.0], [2.0, 2.0])))):
        ds = DecisionSet(geometry, 3.0)
        state, reference = AdaGradState(ds), AdaGradState(ds)
        g = np.array([-0.0, 1.0])
        _, x = adagrad_step(state, g)
        expected = array_adagrad_step(reference, g)
        assert np.signbit(x[0]) and np.signbit(expected[0])
        assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))


def test_adagrad_zero_gradient_guard():
    st = AdaGradState(decision_set=unit_interval_set(), path_estimate=0.0)
    _, p = adagrad_step(st, np.array([0.0]))
    assert np.array_equal(p, np.zeros(1))
    assert st.grad_sq_sum == 0.0


def test_adagrad_first_step_formula_and_clamp():
    # D=1, path estimate 0: eta_1 = 2*sqrt(1)/sqrt(2) = sqrt(2); raw step
    # -sqrt(2) clamps to the set boundary -0.5
    st = AdaGradState(decision_set=unit_interval_set(), path_estimate=0.0)
    _, p = adagrad_step(st, np.array([1.0]))
    assert st.step_size() == pytest.approx(math.sqrt(2.0))
    assert p == pytest.approx(np.array([-0.5]))


def test_adagrad_accumulator_arithmetic():
    st = AdaGradState(decision_set=unit_interval_set(), path_estimate=0.0)
    adagrad_step(st, np.array([1.0]))
    adagrad_step(st, np.array([-1.0]))
    # two unit gradients: eta_2 = 2/sqrt(4) = 1
    assert st.step_size() == pytest.approx(1.0)


def test_adagrad_mode_follows_path_estimate():
    ds = unit_interval_set()
    assert AdaGradState(ds).mode == "path_free"
    assert AdaGradState(ds, path_estimate=0.0).mode == "known_path"
    with pytest.raises(AttributeError):
        AdaGradState(ds).mode = "known_path"
    with pytest.raises(ValueError, match="nonnegative"):
        AdaGradState(ds, path_estimate=-0.5)


@pytest.mark.parametrize("bad,shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (True, "True"),
    (np.array([[0.0], [math.nan]]), "nan")], ids=["nan", "inf", "-inf", "bool", "column"])
def test_adagrad_path_estimate_must_be_a_finite_real(bad, shown):
    # a NaN estimate made a NaN step size, and the iterate left the set
    ds = DecisionSet(Box([-1.0], [1.0]), 2.0)
    with pytest.raises(ValueError, match=f"path estimate must be .*, got {shown}$"):
        AdaGradState(ds, path_estimate=bad)


@pytest.mark.parametrize("radius,horizon,message", [
    (1e300, 50, r"step numerator \(D\+1\) sqrt\(1\+P\) overflows for diameter 2e\+300"),
    (2.5e307, 2, "path estimate must be .*, got inf"),
    (1e307, 10, r"diameter 2e\+307 times horizon 10 overflows"),
], ids=["numerator", "path-estimate", "expert-count"])
def test_ensemble_whose_steps_overflow_is_rejected_without_a_warning(radius, horizon, message):
    ds = DecisionSet(Box([-radius], [radius]), 2.0 * radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            AhagState.create(ds, horizon)


def test_adagrad_dimension_mismatch():
    st = AdaGradState(decision_set=unit_interval_set())
    with pytest.raises(ValueError, match="dimension"):
        adagrad_step(st, np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [[float("nan"), 0.0], [float("inf"), 0.0], [1e200, 0.0]],
                         ids=["nan", "inf", "overflow"])
def test_adagrad_rejects_non_finite_gradient_without_moving(bad):
    # NaN would freeze the iterate, inf move it to [nan, ...] and 1e200
    # overflow g @ g to inf; each must raise and leave the state as it was
    ds = DecisionSet(Box([-1.0, -1.0], [1.0, 1.0]), 2.0 * math.sqrt(2.0))
    st = AdaGradState(decision_set=ds, path_estimate=3.0)
    g = np.array([0.3, -0.4])
    adagrad_step(st, g)
    point, s = st.point.copy(), st.grad_sq_sum
    assert st.last_grad_sq == float(g @ g) == s  # the norm the harness records
    with pytest.raises(ValueError, match="non-finite"):
        adagrad_step(st, np.array(bad))
    assert np.array_equal(st.point, point)
    assert st.grad_sq_sum == st.last_grad_sq == s


def test_adagrad_step_sizes_non_increasing_and_iterates_feasible():
    rng = np.random.default_rng(7)
    ds = DecisionSet(Box([-1.0, -1.0], [1.0, 1.0]), 2.0 * math.sqrt(2.0))
    for rho in (3.0, None):
        st = AdaGradState(decision_set=ds, path_estimate=rho)
        last = math.inf
        for _ in range(200):
            adagrad_step(st, rng.normal(size=2))
            eta = st.step_size()
            assert eta <= last + 1e-15
            assert membership(st.point, ds.geometry, tol=1e-8)
            last = eta


def test_adagrad_bound_rhs_formulas():
    diam = unit_interval_set().diameter
    assert adagrad_known_path_rhs(diam, 0.0, 4.0) == pytest.approx(4.0 * math.sqrt(2.0))
    assert adagrad_path_free_rhs(diam, 3.0, 1.0) == pytest.approx(8.0 * math.sqrt(2.0))
    assert adagrad_known_path_rhs(diam, 5.0, 0.0) == 0.0


def test_adagrad_regret_bounded_on_random_runs():
    rng = np.random.default_rng(8)
    ds = DecisionSet(Box([-1.0, -1.0], [1.0, 1.0]), 2.0 * math.sqrt(2.0))
    T = 300
    for rho in (10.0, None):
        st = AdaGradState(decision_set=ds, path_estimate=rho)
        costs, actions = [], []
        for _ in range(T):
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            costs.append(affine_cost(a))
            actions.append(st.point)
            adagrad_step(st, a)
        actions = np.array(actions)
        # comparators: a fixed corner and a short walk inside the set
        comps = {
            0.0: np.tile([[0.7, -0.7]], (T, 1)),
            None: np.cumsum(rng.normal(scale=0.005, size=(T, 2)), axis=0),
        }
        for path, comp in comps.items():
            regret = sum(float(c.value(x)) - float(c.value(u))
                         for c, x, u in zip(costs, actions, comp))
            from coco_lab.core import path_length
            true_path = path_length(comp)
            if rho is not None:
                assert true_path <= rho
                assert regret <= adagrad_known_path_rhs(ds.diameter, rho, st.grad_sq_sum)
            else:
                assert regret <= adagrad_path_free_rhs(ds.diameter, true_path, st.grad_sq_sum)


# ---------------------------------------------------------------------------
# expert grid

def test_num_experts_examples():
    assert num_experts(1.0, 1) == 2
    assert num_experts(1.0, 1000) == 6
    assert num_experts(3.0, 1) == 2
    with pytest.raises(ValueError):
        num_experts(0.0, 10)


def test_expert_guesses_cover_every_path_length():
    # for any P in [0, D*T] some expert multiplier rho=2^i brackets
    # sqrt(1+P) within a factor of two
    for diameter, horizon in ((1.0, 1), (2.5, 100), (6.0, 10**5)):
        n = num_experts(diameter, horizon)
        rhos = [2.0 ** i for i in range(n)]
        for p in np.linspace(0.0, diameter * horizon, 57):
            target = math.sqrt(1.0 + p)
            assert any(0.5 * r <= target <= r for r in rhos)


# ---------------------------------------------------------------------------
# adaptive hedge

def test_adahedge_identical_losses_keep_weights():
    st = HedgeState.uniform(4)
    adahedge_step(st, np.array([0.3, 0.3, 0.3, 0.3]))
    assert np.allclose(st.weights, 0.25)
    adahedge_step(st, np.array([-2.0, -2.0, -2.0, -2.0]))
    assert np.allclose(st.weights, 0.25)


def test_adahedge_first_asymmetric_loss():
    # fresh state: prediction weights are uniform (infinite learning rate);
    # afterwards the mixability gap is 1/2 so eta = ln(2)/0.5 and the
    # better expert carries weight 1/(1+e^{-eta}) = 0.8
    st = HedgeState.uniform(2)
    assert np.allclose(st.weights, 0.5)
    adahedge_step(st, np.array([0.0, 1.0]))
    assert st.cum_mix_gap == pytest.approx(0.5)
    assert st.weights[0] == pytest.approx(0.8)
    assert st.weights[0] > st.weights[1]


def test_adahedge_gap_nonnegative_and_weights_normalized():
    rng = np.random.default_rng(9)
    st = HedgeState.uniform(5)
    last_gap = 0.0
    for _ in range(400):
        losses = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=5)
        w = st.weights
        expected = float(w @ losses)
        adahedge_step(st, losses)
        assert st.cum_mix_gap >= last_gap  # monotone
        assert abs(float(np.sum(st.weights)) - 1.0) <= 1e-12
        assert np.all(st.weights >= 0.0)
        # the round's mix loss never exceeded the expected loss
        assert st.cum_mix_gap - last_gap <= max(expected - np.min(losses), 0.0) + 1e-9
        last_gap = st.cum_mix_gap


def test_adahedge_rejects_nan():
    st = HedgeState.uniform(2)
    with pytest.raises(ValueError, match="NaN"):
        adahedge_step(st, np.array([0.0, float("nan")]))


@pytest.mark.parametrize("bad", [float("inf"), -float("inf")])
def test_adahedge_rejects_infinite_loss(bad):
    st = HedgeState.uniform(2)
    with pytest.raises(ValueError, match="infinite"):
        adahedge_step(st, np.array([0.0, bad]))
    assert np.array_equal(st.weights, np.full(2, 0.5))


@pytest.mark.parametrize("loss", [[1e308, 1e308], [1e308, 1e308, 0.0]], ids=["two", "three"])
def test_adahedge_rejects_an_overflowing_cumulative_loss_without_moving(loss):
    # two finite losses of 1e308 sum to inf: two experts' weights would
    # become nan one step later, and of three the overflowed two would get
    # weight 0; the step must raise and leave the state as it was
    st = HedgeState.uniform(len(loss))
    adahedge_step(st, np.array(loss))
    cum, gap, weights = st.cum_losses.copy(), st.cum_mix_gap, st.weights.copy()
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        adahedge_step(st, np.array(loss))
    assert np.array_equal(st.cum_losses, cum)
    assert st.cum_mix_gap == gap
    assert np.array_equal(st.weights, weights)


def test_adahedge_overflow_is_its_own_error_not_a_numpy_warning():
    # outside a run no np.errstate holds: under an "error" filter the step
    # must still raise its own ValueError, not numpy's overflow warning
    st = HedgeState.uniform(2)
    adahedge_step(st, [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            adahedge_step(st, [1e308, 1e308])
    assert st.cum_losses.tolist() == [1e308, 1e308]


def test_hedge_needs_an_expert_and_a_loss_for_each():
    with pytest.raises(ValueError, match="need at least one expert"):
        HedgeState.uniform(0)
    st = HedgeState.uniform(3)
    with pytest.raises(ValueError, match="loss vector length does not match"):
        adahedge_step(st, np.array([0.0, 1.0]))
    assert np.array_equal(st.weights, np.full(3, 1.0 / 3.0))


@settings(max_examples=500, deadline=None)
@given(hst.lists(hst.one_of(hst.floats(-1e3, 1e3), hst.sampled_from([-np.inf, 0.0, -2.5])),
                 min_size=1, max_size=16).filter(lambda v: any(np.isfinite(v))))
def test_log_sum_exp_matches_scipy_bitwise(values):
    special = pytest.importorskip("scipy.special")
    a = np.array(values)
    assert float(_log_sum_exp(a)).hex() == float(special.logsumexp(a)).hex()


def test_adahedge_survives_tiny_gap_and_underflowed_weights():
    # a microscopic positive gap makes the learning rate astronomically
    # large; weights underflow to an indicator and the update must stay finite
    st = HedgeState(cum_losses=np.array([0.0, 1e6]), cum_mix_gap=1e-300,
                    weights=np.array([1.0, 0.0]))
    adahedge_step(st, np.array([-5.0, 5.0]))
    assert np.all(np.isfinite(st.weights))
    assert float(np.sum(st.weights)) == pytest.approx(1.0)
    assert np.isfinite(st.cum_mix_gap) and st.cum_mix_gap >= 0.0


# The hedge kernels as they were before each was cut to fewer numpy calls:
# the rewritten ones must give the same bits.

def reference_hedge_weights(cum_losses, cum_mix_gap):
    n = cum_losses.shape[0]
    eta = math.log(n) / cum_mix_gap if cum_mix_gap > 0.0 else math.inf
    if not math.isfinite(eta):
        mask = cum_losses == cum_losses.min()
        return mask / mask.sum()
    u = np.exp(-eta * (cum_losses - cum_losses.min()))
    return u / u.sum()


def reference_log_sum_exp(a):
    a_max = a.max()
    top = a == a_max
    m = top.sum(dtype=float)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    s = s / m if s != 0.0 else s
    return np.log1p(s) + np.log(m) + a_max


@settings(max_examples=500, deadline=None)
@given(hst.lists(hst.one_of(hst.floats(-1e3, 1e3),
                            hst.sampled_from([-np.inf, np.inf, 0.0, -2.5])),
                 min_size=1, max_size=16).filter(lambda v: any(np.isfinite(v))))
@example([0.0])  # a single entry
@example([1.5, -np.inf, -np.inf])  # a unique maximum beside -inf entries
@example([-2.5, 3.0, -2.5])  # a unique maximum beside a tie below it
@example([2.0, -1.0, 2.0])  # a tied maximum
@example([5.0, 5.0, -np.inf])  # a tied maximum and nothing else to sum
@example([np.inf, 1.0])  # an overflowed entry
def test_log_sum_exp_matches_reference_bitwise(values):
    a = np.array(values)
    assert float(_log_sum_exp(a)).hex() == float(reference_log_sum_exp(a)).hex()


def reference_adahedge_step(state, loss_vector):
    """``adahedge_step`` as it was written with ``np.errstate`` around
    ``np.log``, ``np.all(np.isfinite(...))`` and the reference kernels."""
    losses = np.asarray(loss_vector, dtype=float)
    if not np.all(np.isfinite(losses)):
        raise ValueError(f"NaN or infinite loss in {losses}")
    w = state.weights
    expected = float(w @ losses)
    n = state.num_experts
    eta = math.log(n) / state.cum_mix_gap if state.cum_mix_gap > 0.0 else math.inf
    if not math.isfinite(eta) or eta <= 0.0:
        mix = float(losses[w > 0].min())
    else:
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        a = log_w - eta * losses
        a[w <= 0.0] = -np.inf
        mix = float(-reference_log_sum_exp(a) / eta)
    gap = max(0.0, expected - mix)
    state.cum_mix_gap += gap
    state.cum_losses = state.cum_losses + losses
    state.weights = reference_hedge_weights(state.cum_losses, state.cum_mix_gap)
    return state


def same_hedge_state(a, b):
    return (float(a.cum_mix_gap).hex() == float(b.cum_mix_gap).hex()
            and np.array_equal(a.cum_losses.view(np.uint64), b.cum_losses.view(np.uint64))
            and np.array_equal(a.weights.view(np.uint64), b.weights.view(np.uint64)))


def hedge_states(n, spread, gap, seed):
    """Two equal states; a wide spread of cumulative losses at a small gap
    underflows the weights of the worse experts to exactly zero."""
    cum = np.random.default_rng(seed).uniform(0.0, spread, n)
    return [HedgeState(cum_losses=cum.copy(), cum_mix_gap=gap,
                       weights=reference_hedge_weights(cum, gap))
            for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(hst.integers(1, 11), hst.sampled_from([0.0, 1.0, 1e3, 1e6]),
       hst.sampled_from([0.0, 1e-3, 1.0, 1e3]), hst.integers(1, 40),
       hst.sampled_from([1e-3, 1.0, 1e3]), hst.integers(0, 2 ** 32 - 1))
def test_adahedge_step_matches_reference_bitwise(n, spread, gap, rounds, scale, seed):
    new, old = hedge_states(n, spread, gap, seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(rounds):
        losses = rng.uniform(-scale, scale, n) * rng.integers(0, 2, n)
        adahedge_step(new, losses)
        reference_adahedge_step(old, losses)
        assert same_hedge_state(new, old)


def test_adahedge_step_matches_reference_with_underflowed_weights():
    new, old = hedge_states(9, 1e3, 1.0, seed=4)
    rng = np.random.default_rng(5)
    zero_weight_rounds = 0
    for _ in range(50):
        # the learning rate is finite and some weights are exactly zero
        zero_weight_rounds += int(new.cum_mix_gap > 0.0 and np.any(new.weights == 0.0))
        losses = rng.uniform(-1.0, 1.0, 9)
        adahedge_step(new, losses)
        reference_adahedge_step(old, losses)
        assert same_hedge_state(new, old)
    assert zero_weight_rounds == 50


@pytest.mark.parametrize("spread,gap", [(1.0, 1.0), (1e3, 1.0), (1e3, 1e-3)])
def test_adahedge_step_matches_reference_above_128_experts(spread, gap):
    # above 128 terms numpy splits a sum into halves: both of the step's
    # sums take that path here
    new, old = hedge_states(200, spread, gap, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(30):
        losses = rng.uniform(-1.0, 1.0, 200) * rng.integers(0, 2, 200)
        adahedge_step(new, losses)
        reference_adahedge_step(old, losses)
        assert same_hedge_state(new, old)


def test_adahedge_step_matches_reference_where_math_log_differs():
    # on an AVX-512 host, math.log of round 2's weights differs from
    # numpy's in the last bit here, and the step's state with it
    new, old = hedge_states(9, 1.0, 1.0, seed=930)
    rng = np.random.default_rng(931)
    for _ in range(3):
        losses = rng.uniform(-1.0, 1.0, 9) * rng.integers(0, 2, 9)
        adahedge_step(new, losses)
        reference_adahedge_step(old, losses)
        assert same_hedge_state(new, old)


# The premises of the hedge's float path: numpy's exp, log and log1p give an
# array entry the bits of the call on that entry alone, so the step can call
# them on a list; and ``_sum`` is numpy's ``add.reduce`` for every length.

def same_float_bits(a, b):
    return ((math.isnan(a) and math.isnan(b))
            or np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64))


edge_floats = hst.one_of(hst.floats(allow_nan=False),
                         hst.sampled_from([-np.inf, np.inf, 0.0, -0.0, 5e-324, -5e-324,
                                           2.2250738585072014e-308, 710.0, -746.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(hst.sampled_from([np.exp, np.log, np.log1p]), hst.lists(edge_floats, min_size=1, max_size=40))
def test_numpy_exp_log_log1p_give_each_entry_its_own_bits(f, values):
    with np.errstate(all="ignore"):
        whole = f(values).tolist()
        alone = [float(f(x)) for x in values]
        one_entry = [float(f(np.array([x]))[0]) for x in values]
    assert all(same_float_bits(a, b) and same_float_bits(a, c)
               for a, b, c in zip(whole, alone, one_entry))


@settings(max_examples=100, deadline=None)
@given(hst.integers(0, 300).flatmap(lambda n: hst.lists(
    hst.one_of(hst.floats(allow_nan=False), hst.sampled_from([-np.inf, np.inf, 0.0, -0.0]),
               hst.floats(-1.0, 1.0)),
    min_size=n, max_size=n)))
@example([-0.0])  # numpy adds the sum to +0.0
@example([1.0] * 7 + [2.0 ** 53])  # the first length that numpy sums in 8 running sums
@example([2.0 ** 53] + [1.0] * 128)  # the first length that numpy splits into halves
@example([np.inf] * 140 + [-np.inf])  # inf - inf in the second half
def test_sum_is_numpy_add_reduce_bitwise(values):
    with np.errstate(all="ignore"):
        total = np.add.reduce(np.array(values, dtype=float))
    assert same_float_bits(_sum(values), float(total))


def test_adahedge_static_regret_bound_on_streams():
    rng = np.random.default_rng(10)
    for n in (2, 6, 16):
        st = HedgeState.uniform(n)
        hedge_loss, cum, linf_sq = 0.0, np.zeros(n), 0.0
        for _ in range(800):
            losses = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-1.5, 1.5)
            hedge_loss += float(st.weights @ losses)
            cum += losses
            linf_sq += float(np.max(np.abs(losses))) ** 2
            adahedge_step(st, losses)
        regret = hedge_loss - float(cum.min())
        assert regret <= 2.0 * math.sqrt((4.0 + math.log(n)) * linf_sq)


# ---------------------------------------------------------------------------
# ensemble

def test_ahag_single_expert_matches_plain_descent():
    ds = unit_interval_set()  # D*T small enough for one expert: N = 2? use T=1
    # force a single-expert ensemble by hand
    ensemble = AhagState(
        experts=AdaGradState(decision_set=ds, path_estimate=0.0,
                             point=np.zeros((1, 1))),
        hedge=HedgeState.uniform(1),
        combined_point=np.zeros(1),
    )
    solo = AdaGradState(decision_set=ds, path_estimate=0.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=1)
        cost = affine_cost(a)
        _, played = ahag_round(ensemble, cost)
        assert np.array_equal(played, solo.point)
        adagrad_step(solo, a)
    assert np.array_equal(ensemble.combined_point, solo.point)


def test_ahag_degenerate_convex_combination():
    ds = DecisionSet(Box([-1.0], [1.0]), 2.0)
    st = AhagState.create(ds, horizon=8)
    shared = np.array([0.25])
    st.experts.point[:] = shared
    st.hedge.weights = np.array([0.7, 0.2, 0.1][: st.num_experts] +
                                [0.0] * max(0, st.num_experts - 3))
    st.hedge.weights /= st.hedge.weights.sum()
    st.combined_point = st.hedge.weights @ st.experts.point
    assert st.combined_point == pytest.approx(shared)


def test_ahag_trajectory_matches_reference_loop():
    # straight-line reimplementation of the documented round order
    ds = DecisionSet(Box([-1.0], [1.0]), 2.0)
    T = 3
    grads = [0.8, -0.5, 0.3]
    n = num_experts(ds.diameter, T)
    rhos = [2.0 ** i for i in range(n)]

    pts = [0.0] * n
    weights = [1.0 / n] * n
    cum = [0.0] * n
    gap = 0.0
    s_accum = 0.0
    combined = 0.0
    ref_plays = []
    for g in grads:
        ref_plays.append(combined)
        losses = [p * g for p in pts]
        s_accum += g * g
        for i in range(n):
            eta = (ds.diameter + 1.0) * rhos[i] / math.sqrt(2.0 * s_accum)
            pts[i] = min(1.0, max(-1.0, pts[i] - eta * g))
        expected = sum(w * l for w, l in zip(weights, losses))
        if gap == 0.0:
            support_min = min(l for w, l in zip(weights, losses) if w > 0)
            mix = support_min
        else:
            eta_h = math.log(n) / gap
            mix = -math.log(sum(w * math.exp(-eta_h * l)
                                for w, l in zip(weights, losses))) / eta_h
        gap += max(0.0, expected - mix)
        cum = [c + l for c, l in zip(cum, losses)]
        if gap == 0.0:
            m = min(cum)
            mask = [1.0 if c == m else 0.0 for c in cum]
            weights = [v / sum(mask) for v in mask]
        else:
            eta_h = math.log(n) / gap
            m = min(cum)
            u = [math.exp(-eta_h * (c - m)) for c in cum]
            weights = [v / sum(u) for v in u]
        combined = sum(w * p for w, p in zip(weights, pts))

    st = AhagState.create(ds, T)
    for g, ref in zip(grads, ref_plays):
        _, played = ahag_round(st, affine_cost([g]))
        assert played[0] == pytest.approx(ref, abs=1e-12)
    assert st.combined_point[0] == pytest.approx(combined, abs=1e-12)


@pytest.mark.parametrize("name", ["tracking-ball", "static"])
def test_ahag_batched_experts_match_independent_descents_bitwise(name):
    # the batched step must reproduce N separate single-iterate learners fed
    # the ensemble's gradient, to the last bit, on every row and every round
    T = 300
    sc = make_scenario(name, T, seed=3)
    st = AhagState.create(sc.decision_set, T)
    solos = [AdaGradState(decision_set=sc.decision_set, path_estimate=4.0 ** i - 1.0)
             for i in range(st.num_experts)]
    for t in range(1, T + 1):
        cost, _ = sc.generate(t)
        grad = np.asarray(cost.subgradient(st.combined_point), dtype=float)
        ahag_round(st, cost)
        for i, solo in enumerate(solos):
            adagrad_step(solo, grad)
            assert np.array_equal(st.experts.point[i], solo.point)
        assert st.grad_sq_sum == solos[0].grad_sq_sum


def test_ahag_points_feasible_and_loss_range_capped():
    sc = make_scenario("oco-mix", 200, seed=1)
    st = AhagState.create(sc.decision_set, 200)
    diam = sc.decision_set.diameter
    for t in range(1, 201):
        cost, _ = sc.generate(t)
        x = st.combined_point
        grad = np.asarray(cost.subgradient(x), dtype=float)
        linf = float(np.max(np.abs(st.experts.point @ grad)))
        assert linf <= diam * float(np.linalg.norm(grad)) * (1.0 + 1e-9) + 1e-12
        _, played = ahag_round(st, cost)
        assert membership(played, sc.decision_set.geometry, tol=1e-8)
        assert np.all(membership(st.experts.point, sc.decision_set.geometry, tol=1e-8))


def test_ahag_bound_rhs_formula():
    diam = unit_interval_set().diameter
    expect = 2.0 * math.sqrt(2.0) * 2.0 + 2.0 * math.sqrt(4.0 + math.log(2.0))
    assert ensemble_rhs(diam, 2, 0.0, 1.0) == pytest.approx(expect)
    assert expect == pytest.approx(9.98959, abs=1e-4)
    # doubling 1+path from 1 to 4 doubles the budget
    assert ensemble_rhs(diam, 2, 3.0, 1.0) == pytest.approx(2.0 * ensemble_rhs(diam, 2, 0.0, 1.0))
    assert ensemble_rhs(diam, 2, 2.0, 0.0) == 0.0


def test_ahag_regret_within_budget_on_scenario_runs():
    from coco_lab.core import path_length as plen

    for seed in (0, 1):
        sc = make_scenario("oco-mix", 400, seed=seed)
        st = AhagState.create(sc.decision_set, 400)
        costs, plays = [], []
        for t in range(1, 401):
            cost, _ = sc.generate(t)
            _, x = ahag_round(st, cost)
            costs.append(cost)
            plays.append(x)
        for comp in sc.comparators().values():
            regret = sum(float(c.value(x)) - float(c.value(u))
                         for c, x, u in zip(costs, plays, comp.points))
            assert regret <= ensemble_rhs(sc.decision_set.diameter, st.num_experts,
                                          plen(comp.points), st.grad_sq_sum)


def test_ahag_constant_assembly():
    assert ahag_constant(1.0, 2) == pytest.approx(
        2.0 * math.sqrt(2.0) * 2.0 + 2.0 * math.sqrt(4.0 + math.log(2.0)))


# ---------------------------------------------------------------------------
# whole runs against a round loop built on the kernels as they were before
# each was cut to fewer numpy calls

def reference_adagrad_step(state, g):
    """``adagrad_step`` with the whole step size evaluated every round."""
    s = state.grad_sq_sum + float(g @ g)
    state.grad_sq_sum = s
    if s > 0.0:
        scale = np.sqrt(1.0 + state.path_estimate) if state.mode == KNOWN_PATH else 1.0
        step = (state.diameter + 1.0) * scale / math.sqrt(2.0 * s)
        state.point = state.decision_set.project(state.point - step * g)


def reference_ahag_step(state, grad):
    losses = state.experts.point @ grad
    reference_adagrad_step(state.experts, grad)
    reference_adahedge_step(state.hedge, losses)
    state.combined_point = state.hedge.weights @ state.experts.point


def reference_ball_project(ball, x):
    """``Ball.project`` with the scale taken by ``np.where``."""
    delta = np.asarray(x, dtype=float) - ball.center
    n = np.linalg.norm(delta, axis=-1, keepdims=True)
    scale = np.where(n > ball.radius, ball.radius / np.maximum(n, 1e-300), 1.0)
    return ball.center + delta * scale


def reference_surrogate(algorithm, state, cost, constraint, x):
    """The coco1 or coco2 surrogate gradient, each evaluating ``g(x)`` itself."""
    if algorithm == "coco1":
        g_lip = state.g_lip
        grad = np.array(cost.subgradient(x), dtype=float)
        if float(constraint.value(x)) > 0.0:
            grad += np.asarray(constraint.subgradient(x), dtype=float)
        grad += 2.0 * g_lip * dist_subgradient(x, constraint.feasible_region)
        return grad
    grad = state.v_param * np.asarray(cost.subgradient(x), dtype=float)
    if float(constraint.value(x)) > 0.0:
        grad = grad + (2.0 * state.q) * np.asarray(constraint.subgradient(x), dtype=float)
    return grad


def reference_rows(config):
    """``(t, x, f, g, gplus, q, surrogate_grad_norm)`` of every round."""
    algorithm = config.algorithm
    scenario = build_scenario(config.scenario)
    state = harness._init_state(config, scenario)
    # coco1's G is the scenario's, the run's one Lipschitz bound
    assert algorithm != "coco1" or state.g_lip == scenario.g_lip
    meta = algorithm in ("coco1", "coco2")
    learner = state.subroutine if meta else state
    rows, q = [], 0.0
    for t in range(1, scenario.horizon + 1):
        cost, constraint = scenario.generate(t)
        x = learner.point if algorithm == "adagrad" else learner.combined_point
        f_val, g_val = float(cost.value(x)), float(constraint.value(x))
        q += max(0.0, g_val)
        if meta:
            state.q = q
            grad = np.asarray(reference_surrogate(algorithm, state, cost, constraint, x),
                              dtype=float)
        else:
            grad = np.asarray(cost.subgradient(x), dtype=float)
        (reference_adagrad_step if algorithm == "adagrad" else reference_ahag_step)(learner, grad)
        rows.append((t, x, f_val, g_val, max(0.0, g_val), q, math.sqrt(grad @ grad)))
    return rows


@pytest.mark.parametrize("g_lip", [1.0, 2.5])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_reference_round_loop_bitwise(monkeypatch, name, algorithm, g_lip):
    config = RunConfig(ScenarioSpec(name, 300, seed=3), algorithm, g_lip=g_lip)
    record = run(config)
    with monkeypatch.context() as patch:
        patch.setattr(Ball, "project", reference_ball_project)
        expected = reference_rows(config)
    assert record.horizon == len(expected)
    columns = (record.f, record.g, record.gplus, record.Q, record.grad_norm)
    for i, (t, x, *values) in enumerate(expected):
        assert t == i + 1
        assert np.array_equal(record.x[i].view(np.uint64), x.view(np.uint64))
        got = [c[i] for c in columns]
        assert np.array_equal(np.array(got).view(np.uint64), np.array(values).view(np.uint64))
