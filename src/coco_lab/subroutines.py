"""Unconstrained online convex optimization engines.

Three layers:

* projected online gradient descent with adaptive step sizes, in a
  path-aware mode (the caller supplies a path-length budget) and a
  path-free mode;
* an experts algorithm whose learning rate adapts through cumulative
  mixability gaps, so no a-priori bound on the loss range is needed;
* an ensemble that hedges over logarithmically many gradient-descent
  experts, each tuned to a doubling guess of the comparator path length,
  achieving a universal dynamic regret bound that scales with the square
  root of the true path length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import (
    adagrad_known_path_rhs,
    adagrad_path_free_rhs,
    ahag_constant,  # noqa: F401  re-exported
    ensemble_rhs,
    num_experts,
)
from .core import DecisionSet

KNOWN_PATH = "known_path"
PATH_FREE = "path_free"


@dataclass
class AdaGradState:
    """Projected gradient descent with step sizes driven by accumulated gradient norms.

    In ``known_path`` mode the step size is
    ``(D+1) * sqrt(1 + path_estimate) / sqrt(2 * S_t)`` where ``S_t`` is the
    running sum of squared gradient norms; ``path_free`` mode drops the
    path factor. Until the first nonzero gradient arrives the iterate stays
    put (the step size is undefined at ``S_t = 0`` and no movement is
    needed).
    """

    decision_set: DecisionSet
    mode: str = PATH_FREE
    path_estimate: float = 0.0
    point: np.ndarray = None
    grad_sq_sum: float = 0.0

    def __post_init__(self):
        if self.mode not in (KNOWN_PATH, PATH_FREE):
            raise ValueError(f"unknown step-size mode {self.mode!r}")
        if self.path_estimate < 0:
            raise ValueError("path estimate must be nonnegative")
        if self.point is None:
            self.point = np.zeros(self.decision_set.dim)
        else:
            self.point = np.asarray(self.point, dtype=float)

    @property
    def diameter(self) -> float:
        return self.decision_set.diameter

    def step_size(self) -> float:
        """Current step size; requires a positive gradient accumulator."""
        scale = math.sqrt(1.0 + self.path_estimate) if self.mode == KNOWN_PATH else 1.0
        return (self.diameter + 1.0) * scale / math.sqrt(2.0 * self.grad_sq_sum)


def adagrad_step(state: AdaGradState, gradient) -> tuple[AdaGradState, np.ndarray]:
    """Advance one round: accumulate the squared gradient norm, take the
    projected step, and return the state together with the next iterate."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.point.shape:
        raise ValueError(f"gradient dimension {g.shape} != point dimension {state.point.shape}")
    state.grad_sq_sum += float(g @ g)
    if state.grad_sq_sum > 0.0:
        eta = state.step_size()
        state.point = state.decision_set.project(state.point - eta * g)
    return state, state.point


def adagrad_bound_rhs(state: AdaGradState, path_length: float) -> float:
    """Regret budget implied by the run's own gradient accumulator.

    ``known_path`` mode: ``(D+1) sqrt(2 (1+P)) sqrt(S_T)``, valid against
    comparators whose true path length does not exceed the estimate the
    state was run with. ``path_free`` mode:
    ``sqrt(2) (D+1) (1+P) sqrt(S_T)`` for any comparator of path length P.
    """
    if path_length < 0:
        raise ValueError("path length must be nonnegative")
    rhs = adagrad_known_path_rhs if state.mode == KNOWN_PATH else adagrad_path_free_rhs
    return rhs(state.diameter, path_length, state.grad_sq_sum)


@dataclass
class HedgeState:
    """Experts state for the mixability-gap-adaptive exponential weights update.

    ``weights`` always holds the distribution implied by the current
    cumulative losses and gap, i.e. the one to predict with on the next
    round.
    """

    cum_losses: np.ndarray
    cum_mix_gap: float
    weights: np.ndarray

    @classmethod
    def uniform(cls, n: int) -> "HedgeState":
        if n < 1:
            raise ValueError("need at least one expert")
        return cls(cum_losses=np.zeros(n), cum_mix_gap=0.0, weights=np.full(n, 1.0 / n))

    @property
    def num_experts(self) -> int:
        return self.cum_losses.shape[0]


def _hedge_weights(cum_losses: np.ndarray, cum_mix_gap: float) -> np.ndarray:
    n = cum_losses.shape[0]
    eta = math.log(n) / cum_mix_gap if cum_mix_gap > 0.0 else math.inf
    if not math.isfinite(eta):
        mask = cum_losses == cum_losses.min()
        return mask / mask.sum()
    u = np.exp(-eta * (cum_losses - cum_losses.min()))
    return u / u.sum()


def _log_sum_exp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` with the largest entries split out of the sum,
    for ``a`` with at least one finite entry. Reproduces
    ``scipy.special.logsumexp`` bit for bit (the numpy ``log1p``, not
    ``math.log1p``, is needed for that)."""
    a_max = a.max()
    top = a == a_max
    m = top.sum(dtype=float)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    s = s / m if s != 0.0 else s
    return np.log1p(s) + np.log(m) + a_max


def adahedge_step(state: HedgeState, loss_vector) -> HedgeState:
    """Consume one loss vector: accrue the mixability gap, then reweight.

    The learning rate is ``ln(N) / gap`` (infinite while the gap is zero,
    in which case the weights are uniform over the argmin of the cumulative
    losses and the mix loss is the minimum loss on the support).
    """
    losses = np.asarray(loss_vector, dtype=float)
    if losses.shape != state.cum_losses.shape:
        raise ValueError("loss vector length does not match the number of experts")
    if np.any(np.isnan(losses)):
        raise ValueError("NaN loss")
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
        a[w <= 0.0] = -np.inf  # zero-weight experts contribute nothing
        mix = float(-_log_sum_exp(a) / eta)
    # Jensen guarantees expected >= mix; clamp float dust so the gap stays monotone.
    gap = max(0.0, expected - mix)
    state.cum_mix_gap += gap
    state.cum_losses = state.cum_losses + losses
    state.weights = _hedge_weights(state.cum_losses, state.cum_mix_gap)
    return state


@dataclass
class AhagState:
    """Hedge-over-gradient-descent ensemble.

    Expert ``i`` guesses that ``sqrt(1 + P_T)`` is about ``2**(i-1)`` and
    runs path-aware gradient descent accordingly; the experts algorithm
    tracks them through the linearized per-round losses
    ``l_t[i] = <grad_t, x_t^i>`` evaluated at the experts' pre-update
    points, with the single gradient taken at the combined play. All
    experts therefore share one gradient-norm accumulator trajectory.
    """

    decision_set: DecisionSet
    experts: list
    hedge: HedgeState
    combined_point: np.ndarray
    grad_sq_sum: float = 0.0

    @classmethod
    def create(cls, decision_set: DecisionSet, horizon: int) -> "AhagState":
        n = num_experts(decision_set.diameter, horizon)
        experts = [
            AdaGradState(
                decision_set=decision_set,
                mode=KNOWN_PATH,
                # guess rho = 2**i for sqrt(1+P), i.e. a path estimate of rho**2 - 1
                path_estimate=float(4.0 ** i - 1.0),
            )
            for i in range(n)
        ]
        return cls(
            decision_set=decision_set,
            experts=experts,
            hedge=HedgeState.uniform(n),
            combined_point=np.zeros(decision_set.dim),
        )

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    def expert_points(self) -> np.ndarray:
        return np.array([e.point for e in self.experts])


def ahag_round(state: AhagState, cost) -> tuple[AhagState, np.ndarray]:
    """Play the weighted expert combination, then update every layer.

    ``cost`` only needs a ``subgradient`` callable. The expert losses are
    formed from the pre-update expert points, matching the regret
    decomposition the ensemble is built on.
    """
    x = state.combined_point
    grad = np.asarray(cost.subgradient(x), dtype=float)
    losses = state.expert_points() @ grad
    state.grad_sq_sum += float(grad @ grad)
    for expert in state.experts:
        adagrad_step(expert, grad)
    adahedge_step(state.hedge, losses)
    state.combined_point = state.hedge.weights @ state.expert_points()
    return state, x


def ahag_bound_rhs(state: AhagState, path_length: float) -> float:
    """Universal regret budget against any comparator of the given path length."""
    if path_length < 0:
        raise ValueError("path length must be nonnegative")
    return ensemble_rhs(state.decision_set.diameter, state.num_experts, path_length,
                        state.grad_sq_sum)
