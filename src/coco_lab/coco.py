"""Constrained online convex optimization via surrogate-cost reductions.

Both meta-algorithms feed specially built surrogate costs to the
hedge-over-gradient-descent ensemble:

* the full-feedback variant adds the clipped constraint and a
  distance-to-feasible-set penalty to the cost, keeping the surrogate
  4G-Lipschitz but requiring a projection onto the round's feasible set;
* the first-order variant mixes the cost and the clipped constraint with
  weights ``V`` and ``2 Q(t)`` (a quadratic potential of the running
  violation), needing only gradients but leaning on the ensemble's
  tolerance for unbounded Lipschitz constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import coco2_ccv_rhs, coco2_gamma, coco2_regret_rhs, ensemble_rhs, num_experts
from .core import (
    ConstraintOracle,
    CostOracle,
    DecisionSet,
    RoundRow,
    ccv_update,
    g_plus,
)
from .geometry import GeometricSet, dist, dist_subgradient
from .subroutines import AhagState, ahag_round


def auxiliary_value(cost: CostOracle, feasible_set: GeometricSet, g_lip: float, x) -> float:
    """Cost plus twice-Lipschitz distance penalty; its unconstrained minimum
    over the decision set lands inside ``feasible_set``."""
    return float(cost.value(x)) + 2.0 * g_lip * dist(x, feasible_set)


def coco1_surrogate_subgradient(cost: CostOracle, constraint: ConstraintOracle, x) -> np.ndarray:
    """Subgradient of cost + clipped constraint + distance penalty at ``x``.

    The clipped-constraint term contributes zero on the boundary
    ``g(x) = 0`` and the distance term is the unit outward vector, so the
    result is bounded by ``4G`` in norm.
    """
    g_lip = max(cost.lipschitz_bound, constraint.lipschitz_bound)
    grad = np.array(cost.subgradient(x), dtype=float)
    if float(constraint.value(x)) > 0.0:
        grad += np.asarray(constraint.subgradient(x), dtype=float)
    grad += 2.0 * g_lip * dist_subgradient(x, constraint.feasible_region)
    return grad


class _GradOnly:
    """Adapter exposing a precomputed-at-play-point subgradient callable."""

    __slots__ = ("subgradient",)

    def __init__(self, fn):
        self.subgradient = fn


@dataclass
class Coco1State:
    """Full-feedback meta-algorithm state around an ensemble subroutine."""

    subroutine: AhagState
    lipschitz_bound: float
    q: float = 0.0
    t: int = 0

    @classmethod
    def create(cls, decision_set: DecisionSet, horizon: int, g_lip: float) -> "Coco1State":
        if g_lip <= 0:
            raise ValueError("Lipschitz bound must be positive")
        return cls(subroutine=AhagState.create(decision_set, horizon), lipschitz_bound=g_lip)


def _round(state: Coco1State | Coco2State, cost: CostOracle, constraint: ConstraintOracle,
           surrogate_subgradient):
    """Play the subroutine's point, record the revealed values, fold the
    fresh violation into ``Q(t)``, then advance the subroutine on
    ``surrogate_subgradient``, which is evaluated at the subroutine's play."""
    x = state.subroutine.combined_point
    f_val = float(cost.value(x))
    g_val = float(constraint.value(x))
    state.q = ccv_update(state.q, g_val)
    state.t += 1
    before = state.subroutine.grad_sq_sum
    _, played = ahag_round(state.subroutine, _GradOnly(surrogate_subgradient))
    norm_sq = state.subroutine.grad_sq_sum - before
    row = RoundRow(
        t=state.t, x=played, f=f_val, g=g_val, gplus=g_plus(g_val),
        q=state.q, surrogate_grad_norm=math.sqrt(max(norm_sq, 0.0)),
    )
    return state, played, row


def coco1_round(state: Coco1State, cost: CostOracle, constraint: ConstraintOracle):
    """One full-feedback round: the ensemble steps on the penalized surrogate."""
    return _round(state, cost, constraint,
                  lambda pt: coco1_surrogate_subgradient(cost, constraint, pt))


@dataclass
class Coco2State:
    """First-order meta-algorithm state; ``Q(t)`` feeds back into the surrogate."""

    subroutine: AhagState
    v_param: float
    lipschitz_bound: float
    q: float = 0.0
    t: int = 0

    @classmethod
    def create(cls, decision_set: DecisionSet, horizon: int, g_lip: float,
               v: float | None = None) -> "Coco2State":
        if g_lip <= 0:
            raise ValueError("Lipschitz bound must be positive")
        if v is None:
            v = coco2_default_v(g_lip, decision_set.diameter, horizon)
        if v <= 0:
            raise ValueError("V must be positive")
        return cls(subroutine=AhagState.create(decision_set, horizon),
                   v_param=float(v), lipschitz_bound=g_lip)


def coco2_surrogate_subgradient(state: Coco2State, cost: CostOracle,
                                constraint: ConstraintOracle, x) -> np.ndarray:
    """Subgradient of ``V f + 2 Q(t) g^+`` at ``x``; the state's violation
    total must already include the current round."""
    grad = state.v_param * np.asarray(cost.subgradient(x), dtype=float)
    if float(constraint.value(x)) > 0.0:
        grad = grad + (2.0 * state.q) * np.asarray(constraint.subgradient(x), dtype=float)
    return grad


def coco2_round(state: Coco2State, cost: CostOracle, constraint: ConstraintOracle):
    """One first-order round: the ensemble steps on the violation-weighted
    surrogate, whose ``Q(t)`` already includes this round."""
    return _round(state, cost, constraint,
                  lambda pt: coco2_surrogate_subgradient(state, cost, constraint, pt))


def coco2_default_v(g_lip: float, diameter: float, horizon: int) -> float:
    """Default cost weight ``gamma * sqrt(T)`` balancing regret against violation."""
    if g_lip <= 0 or diameter <= 0 or horizon < 1:
        raise ValueError("need positive Lipschitz bound, diameter, and horizon")
    n = num_experts(diameter, horizon)
    return coco2_gamma(g_lip, diameter, n) * math.sqrt(horizon)


def coco1_bound_rhs(run, path_length: float, g_lip: float, diameter: float) -> float:
    """Single budget that dominates both the violation total (at the
    minimizer-path length) and the regret (at the comparator's path length),
    evaluated from the run's recorded surrogate gradient accumulator."""
    horizon = run.horizon
    if horizon == 0:
        raise ValueError("empty run")
    if path_length < 0:
        raise ValueError("path length must be nonnegative")
    n = num_experts(diameter, horizon)
    return ensemble_rhs(diameter, n, path_length, run.surrogate_grad_sq_sum())


def coco2_bound_rhs(run, path_length: float, v: float, g_lip: float,
                    diameter: float) -> tuple[float, float]:
    """Closed-form regret and violation budgets for the first-order variant.

    Returns ``(regret_rhs, ccv_rhs)`` where the regret budget is valid for
    any feasible comparator of the given path length and the violation
    budget is tightest at the minimum feasible path length.
    """
    horizon = run.horizon
    if horizon == 0:
        raise ValueError("empty run")
    if path_length < 0:
        raise ValueError("path length must be nonnegative")
    if v <= 0:
        raise ValueError("V must be positive")
    n = num_experts(diameter, horizon)
    gamma = coco2_gamma(g_lip, diameter, n)
    return (coco2_regret_rhs(gamma, v, path_length, horizon),
            coco2_ccv_rhs(gamma, v, g_lip, diameter, path_length, horizon))
