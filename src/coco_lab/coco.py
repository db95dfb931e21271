"""Constrained online convex optimization via surrogate-cost reductions.

Both meta-algorithms feed specially built surrogate costs to the
hedge-over-gradient-descent ensemble:

* the full-feedback variant adds the clipped constraint and a
  distance-to-feasible-set penalty to the cost, keeping the surrogate
  4G-Lipschitz but requiring a projection onto the round's feasible set
  on each round whose play violates the constraint (both terms are zero
  at a play that satisfies it);
* the first-order variant mixes the cost and the clipped constraint with
  weights ``V`` and ``2 Q(t)`` (a quadratic potential of the running
  violation), needing only gradients but leaning on the ensemble's
  tolerance for unbounded Lipschitz constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import coco2_gamma, num_experts
from .core import ConstraintOracle, CostOracle, DecisionSet, ccv_update, is_finite_real
from .geometry import dist_subgradient
from .subroutines import AhagState, ahag_round, ahag_step  # noqa: F401  ahag_round re-exported


def coco1_surrogate_subgradient(state: Coco1State, cost: CostOracle,
                                constraint: ConstraintOracle, x,
                                g_val: float | None = None) -> np.ndarray:
    """Subgradient of cost + clipped constraint + ``2G`` times the distance
    to the feasible region at ``x``, with G the state's ``g_lip``; ``g_val``
    is ``g(x)`` when the caller has it already.

    The clipped-constraint term contributes zero on the boundary
    ``g(x) = 0`` and the distance term is the unit outward vector, so the
    result is bounded by ``4G`` in norm.

    With ``x`` in the decision set, ``g(x) <= 0`` puts ``x`` in the feasible
    region (the ``ConstraintOracle`` contract), where both terms are zero:
    the region is read, and projected onto, only when ``g(x) > 0`` or
    ``g(x)`` is NaN. The zero is still added, with the sign the projecting
    path gives it, so a ``-0.0`` cost component comes out ``+0.0`` either way.
    A built-in family's feasible region is its closed form, derived from its
    own numbers, where one applies.
    """
    if g_val is None:
        g_val = float(constraint.value(x))
    if g_val <= 0.0:  # x is in the feasible region
        grad = np.array(cost.subgradient(x), dtype=float)
        grad += 2.0 * state.g_lip * 0.0
        return grad
    # the terms summed in Python floats as (cost + constraint) + 2G * distance,
    # numpy's elementwise bits
    grad = np.asarray(cost.subgradient(x), dtype=float).tolist()
    if g_val > 0.0:  # not NaN
        grad = [p + q for p, q in zip(
            grad, np.asarray(constraint.subgradient(x), dtype=float).tolist())]
    w = 2.0 * state.g_lip
    dist = dist_subgradient(x, constraint.feasible_region).tolist()
    return np.array([p + w * q for p, q in zip(grad, dist)])


@dataclass
class Coco1State:
    """Full-feedback meta-algorithm state around an ensemble subroutine."""

    subroutine: AhagState
    g_lip: float
    q: float = 0.0

    @classmethod
    def create(cls, decision_set: DecisionSet, horizon: int, g_lip: float) -> "Coco1State":
        _check_positive("Lipschitz bound", g_lip)
        return cls(subroutine=AhagState.create(decision_set, horizon), g_lip=float(g_lip))


def _check_positive(name: str, value: float):
    if not (is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _round(state: Coco1State | Coco2State, cost: CostOracle, constraint: ConstraintOracle,
           surrogate_subgradient):
    """Play the subroutine's point ``x``, fold the fresh violation ``g(x)``
    into ``Q(t)``, then advance the subroutine on
    ``surrogate_subgradient(state, cost, constraint, x, g(x))``. Returns the
    state, ``x`` and that gradient's norm."""
    x = state.subroutine.combined_point
    g_val = float(constraint.value(x))
    state.q = ccv_update(state.q, g_val)
    grad = surrogate_subgradient(state, cost, constraint, x, g_val)
    _, played = ahag_step(state.subroutine, grad)
    return state, played, math.sqrt(state.subroutine.experts.last_grad_sq)


def coco1_round(state: Coco1State, cost: CostOracle, constraint: ConstraintOracle):
    """One full-feedback round: the ensemble steps on the penalized surrogate."""
    return _round(state, cost, constraint, coco1_surrogate_subgradient)


@dataclass
class Coco2State:
    """First-order meta-algorithm state; ``Q(t)`` feeds back into the surrogate."""

    subroutine: AhagState
    v_param: float
    q: float = 0.0

    @classmethod
    def create(cls, decision_set: DecisionSet, horizon: int, g_lip: float,
               v: float | None = None) -> "Coco2State":
        _check_positive("Lipschitz bound", g_lip)
        if v is None:
            v = coco2_default_v(g_lip, decision_set.diameter, horizon)
        _check_positive("V", v)
        return cls(subroutine=AhagState.create(decision_set, horizon), v_param=float(v))


def coco2_surrogate_subgradient(state: Coco2State, cost: CostOracle,
                                constraint: ConstraintOracle, x,
                                g_val: float | None = None) -> np.ndarray:
    """Subgradient of ``V f + 2 Q(t) g^+`` at ``x``; the state's violation
    total must already include the current round. ``g_val`` is ``g(x)``
    when the caller has it already."""
    if g_val is None:
        g_val = float(constraint.value(x))
    grad = state.v_param * np.asarray(cost.subgradient(x), dtype=float)
    if g_val > 0.0:
        grad = grad + (2.0 * state.q) * np.asarray(constraint.subgradient(x), dtype=float)
    return grad


def coco2_round(state: Coco2State, cost: CostOracle, constraint: ConstraintOracle):
    """One first-order round: the ensemble steps on the violation-weighted
    surrogate, whose ``Q(t)`` already includes this round."""
    return _round(state, cost, constraint, coco2_surrogate_subgradient)


def coco2_default_v(g_lip: float, diameter: float, horizon: int) -> float:
    """Default cost weight ``gamma * sqrt(T)`` balancing regret against violation."""
    _check_positive("Lipschitz bound", g_lip)
    n = num_experts(diameter, horizon)
    return coco2_gamma(g_lip, diameter, n) * math.sqrt(horizon)
