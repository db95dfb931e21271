"""Invariants that hold on every round of a whole run, over the shipped
scenarios with random seeds, horizons and Lipschitz bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coco_lab.coco import Coco1State, Coco2State, coco1_round, coco2_round
from coco_lab.core import ccv_update
from coco_lab.geometry import membership
from coco_lab.scenarios import SCENARIOS, make_scenario
from coco_lab.subroutines import AhagState, ahag_round

TOL = 1e-8


def _play(algorithm, scenario):
    """Yield ``(ensemble, x_t, Q(t), surrogate gradient norm or None)`` after
    every round of ``algorithm`` on ``scenario``."""
    ds, T, g = scenario.decision_set, scenario.horizon, scenario.g_lip
    if algorithm == "ahag":
        state, q = AhagState.create(ds, T), 0.0
        for t in range(1, T + 1):
            cost, constraint = scenario.generate(t)
            _, x = ahag_round(state, cost)
            q = ccv_update(q, float(constraint.value(x)))
            yield state, x, q, None
        return
    state = Coco1State.create(ds, T, g) if algorithm == "coco1" else Coco2State.create(ds, T, g)
    step = coco1_round if algorithm == "coco1" else coco2_round
    for t in range(1, T + 1):
        _, x, surrogate_norm = step(state, *scenario.generate(t))
        yield state.subroutine, x, state.q, surrogate_norm


@pytest.mark.parametrize("algorithm", ["coco1", "coco2", "ahag"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), g_lip=st.floats(1.0, 1e3),
       horizon=st.integers(1, 200))
def test_run_invariants_hold_on_every_round(name, algorithm, seed, g_lip, horizon):
    scenario = make_scenario(name, horizon, seed=seed, g_lip=g_lip)
    geometry = scenario.decision_set.geometry
    gap = q = 0.0
    for ensemble, x, q_t, surrogate_norm in _play(algorithm, scenario):
        assert membership(x, geometry, tol=TOL)
        assert membership(ensemble.combined_point, geometry, tol=TOL)
        assert np.all(membership(ensemble.expert_points(), geometry, tol=TOL))
        w = ensemble.hedge.weights
        assert np.all(w >= 0.0) and math.isclose(w.sum(), 1.0, rel_tol=1e-12)
        assert ensemble.hedge.cum_mix_gap >= gap and q_t >= q
        gap, q = ensemble.hedge.cum_mix_gap, q_t
        if algorithm == "coco1":
            assert surrogate_norm <= 4.0 * scenario.g_lip
