import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from coco_lab.core import DecisionSet
from coco_lab.geometry import Box, membership
from coco_lab.scenarios import affine_cost, make_scenario
from coco_lab.subroutines import (
    KNOWN_PATH,
    PATH_FREE,
    AdaGradState,
    AhagState,
    HedgeState,
    adagrad_bound_rhs,
    adagrad_step,
    adahedge_step,
    ahag_bound_rhs,
    ahag_constant,
    ahag_round,
    num_experts,
)
from coco_lab.subroutines import _log_sum_exp


def unit_interval_set():
    return DecisionSet(Box([-0.5], [0.5]), 1.0)


# ---------------------------------------------------------------------------
# adaptive gradient descent

def test_adagrad_zero_gradient_guard():
    st = AdaGradState(decision_set=unit_interval_set(), mode=KNOWN_PATH)
    _, p = adagrad_step(st, np.array([0.0]))
    assert np.array_equal(p, np.zeros(1))
    assert st.grad_sq_sum == 0.0


def test_adagrad_first_step_formula_and_clamp():
    # D=1, path estimate 0: eta_1 = 2*sqrt(1)/sqrt(2) = sqrt(2); raw step
    # -sqrt(2) clamps to the set boundary -0.5
    st = AdaGradState(decision_set=unit_interval_set(), mode=KNOWN_PATH, path_estimate=0.0)
    _, p = adagrad_step(st, np.array([1.0]))
    assert st.step_size() == pytest.approx(math.sqrt(2.0))
    assert p == pytest.approx(np.array([-0.5]))


def test_adagrad_accumulator_arithmetic():
    st = AdaGradState(decision_set=unit_interval_set(), mode=KNOWN_PATH, path_estimate=0.0)
    adagrad_step(st, np.array([1.0]))
    adagrad_step(st, np.array([-1.0]))
    # two unit gradients: eta_2 = 2/sqrt(4) = 1
    assert st.step_size() == pytest.approx(1.0)


def test_adagrad_dimension_mismatch():
    st = AdaGradState(decision_set=unit_interval_set())
    with pytest.raises(ValueError, match="dimension"):
        adagrad_step(st, np.array([1.0, 2.0]))


def test_adagrad_step_sizes_non_increasing_and_iterates_feasible():
    rng = np.random.default_rng(7)
    ds = DecisionSet(Box([-1.0, -1.0], [1.0, 1.0]), 2.0 * math.sqrt(2.0))
    for mode, rho in ((KNOWN_PATH, 3.0), (PATH_FREE, 0.0)):
        st = AdaGradState(decision_set=ds, mode=mode, path_estimate=rho)
        last = math.inf
        for _ in range(200):
            adagrad_step(st, rng.normal(size=2))
            eta = st.step_size()
            assert eta <= last + 1e-15
            assert membership(st.point, ds.geometry, tol=1e-8)
            last = eta


def test_adagrad_bound_rhs_formulas():
    ds = unit_interval_set()
    st = AdaGradState(decision_set=ds, mode=KNOWN_PATH, grad_sq_sum=4.0)
    assert adagrad_bound_rhs(st, 0.0) == pytest.approx(4.0 * math.sqrt(2.0))
    st = AdaGradState(decision_set=ds, mode=PATH_FREE, grad_sq_sum=1.0)
    assert adagrad_bound_rhs(st, 3.0) == pytest.approx(8.0 * math.sqrt(2.0))
    st = AdaGradState(decision_set=ds, mode=KNOWN_PATH, grad_sq_sum=0.0)
    assert adagrad_bound_rhs(st, 5.0) == 0.0
    with pytest.raises(ValueError):
        adagrad_bound_rhs(st, -1.0)


def test_adagrad_regret_bounded_on_random_runs():
    rng = np.random.default_rng(8)
    ds = DecisionSet(Box([-1.0, -1.0], [1.0, 1.0]), 2.0 * math.sqrt(2.0))
    T = 300
    for mode, rho in ((KNOWN_PATH, 10.0), (PATH_FREE, 0.0)):
        st = AdaGradState(decision_set=ds, mode=mode, path_estimate=rho)
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
            if mode == KNOWN_PATH:
                assert true_path <= rho
                assert regret <= adagrad_bound_rhs(st, rho)
            else:
                assert regret <= adagrad_bound_rhs(st, true_path)


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
        decision_set=ds,
        experts=[AdaGradState(decision_set=ds, mode=KNOWN_PATH, path_estimate=0.0)],
        hedge=HedgeState.uniform(1),
        combined_point=np.zeros(1),
    )
    solo = AdaGradState(decision_set=ds, mode=KNOWN_PATH, path_estimate=0.0)
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
    for e in st.experts:
        e.point = shared.copy()
    st.hedge.weights = np.array([0.7, 0.2, 0.1][: st.num_experts] +
                                [0.0] * max(0, st.num_experts - 3))
    st.hedge.weights /= st.hedge.weights.sum()
    st.combined_point = st.hedge.weights @ st.expert_points()
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


def test_ahag_points_feasible_and_loss_range_capped():
    sc = make_scenario("oco-mix", 200, seed=1)
    st = AhagState.create(sc.decision_set, 200)
    diam = sc.decision_set.diameter
    for t in range(1, 201):
        cost, _ = sc.generate(t)
        x = st.combined_point
        grad = np.asarray(cost.subgradient(x), dtype=float)
        linf = float(np.max(np.abs(st.expert_points() @ grad)))
        assert linf <= diam * float(np.linalg.norm(grad)) * (1.0 + 1e-9) + 1e-12
        _, played = ahag_round(st, cost)
        assert membership(played, sc.decision_set.geometry, tol=1e-8)
        for e in st.experts:
            assert membership(e.point, sc.decision_set.geometry, tol=1e-8)


def test_ahag_bound_rhs_formula():
    ds = unit_interval_set()
    st = AhagState(
        decision_set=ds,
        experts=[AdaGradState(decision_set=ds, mode=KNOWN_PATH)] * 2,
        hedge=HedgeState.uniform(2),
        combined_point=np.zeros(1),
        grad_sq_sum=1.0,
    )
    expect = 2.0 * math.sqrt(2.0) * 2.0 + 2.0 * math.sqrt(4.0 + math.log(2.0))
    assert ahag_bound_rhs(st, 0.0) == pytest.approx(expect)
    assert expect == pytest.approx(9.98959, abs=1e-4)
    # doubling 1+path from 1 to 4 doubles the budget
    assert ahag_bound_rhs(st, 3.0) == pytest.approx(2.0 * ahag_bound_rhs(st, 0.0))
    st.grad_sq_sum = 0.0
    assert ahag_bound_rhs(st, 2.0) == 0.0


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
            assert regret <= ahag_bound_rhs(st, plen(comp.points))


def test_ahag_constant_assembly():
    assert ahag_constant(1.0, 2) == pytest.approx(
        2.0 * math.sqrt(2.0) * 2.0 + 2.0 * math.sqrt(4.0 + math.log(2.0)))
