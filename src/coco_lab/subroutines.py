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
from dataclasses import dataclass, field

import numpy as np

from .budgets import num_experts
from .core import DecisionSet, is_finite_real

KNOWN_PATH = "known_path"
PATH_FREE = "path_free"


@dataclass
class AdaGradState:
    """Projected gradient descent with step sizes driven by accumulated gradient norms.

    With a ``path_estimate`` P (``known_path`` mode) the step size is
    ``(D+1) * sqrt(1 + P) / sqrt(2 * S_t)`` where ``S_t`` is the running
    sum of squared gradient norms; ``path_estimate=None`` (``path_free``
    mode) drops the path factor. Until the first nonzero gradient arrives
    the iterate stays put (the step size is undefined at ``S_t = 0`` and no
    movement is needed). ``point`` may be a batch ``(N, d)`` of iterates
    stepping on one gradient, with a ``path_estimate`` column ``(N, 1)``.
    The numerator ``(D+1) * sqrt(1 + P)`` is fixed when the state is made.
    """

    decision_set: DecisionSet
    path_estimate: float | np.ndarray | None = None
    point: np.ndarray = None
    grad_sq_sum: float = 0.0
    numerator: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for p in np.ravel([] if self.path_estimate is None else self.path_estimate).tolist():
            if not (is_finite_real(p) and p >= 0):
                raise ValueError(f"path estimate must be a finite nonnegative number, got {p!r}")
        if self.point is None:
            self.point = np.zeros(self.decision_set.dim)
        else:
            self.point = np.asarray(self.point, dtype=float)
        scale = 1.0 if self.path_estimate is None else np.sqrt(1.0 + self.path_estimate)
        self.numerator = (self.diameter + 1.0) * scale

    @property
    def mode(self) -> str:
        return PATH_FREE if self.path_estimate is None else KNOWN_PATH

    @property
    def diameter(self) -> float:
        return self.decision_set.diameter

    def step_size(self):
        """Current step size (a column for a batch); requires a positive gradient accumulator."""
        return self.numerator / math.sqrt(2.0 * self.grad_sq_sum)


def adagrad_step(state: AdaGradState, gradient) -> tuple[AdaGradState, np.ndarray]:
    """Advance one round: accumulate the squared gradient norm, take the
    projected step, and return the state together with the next iterate.
    A NaN, infinite or overflowing gradient raises before the state changes."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.point.shape[-1:]:
        raise ValueError(f"gradient dimension {g.shape} != point dimension {state.point.shape}")
    s = state.grad_sq_sum + float(g @ g)
    if not math.isfinite(s):
        raise ValueError(f"non-finite gradient {g}: squared-norm sum {s}")
    state.grad_sq_sum = s
    if s > 0.0:
        step = state.numerator / math.sqrt(2.0 * s)
        state.point = state.decision_set.project(state.point - step * g)
    return state, state.point


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
        mask = cum_losses == np.minimum.reduce(cum_losses)
        return mask / np.add.reduce(mask)
    u = np.exp(-eta * (cum_losses - np.minimum.reduce(cum_losses)))
    return u / np.add.reduce(u)


def _log_sum_exp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` with the largest entries split out of the sum,
    for ``a`` with at least one finite entry. Reproduces
    ``scipy.special.logsumexp`` bit for bit (the numpy ``log1p``, not
    ``math.log1p``, is needed for that)."""
    a_max = np.maximum.reduce(a)
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.add.reduce(np.exp(np.where(top, -np.inf, a) - a_max))
    if m == 1:
        # dividing by 1 and adding log(1) = 0 to log1p(s) >= +0.0 change no bit
        return np.log1p(s) + a_max
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
    if not np.isfinite(losses).all():
        raise ValueError(f"NaN or infinite loss in {losses}")
    w = state.weights
    expected = float(w @ losses)
    n = state.num_experts
    eta = math.log(n) / state.cum_mix_gap if state.cum_mix_gap > 0.0 else math.inf
    if not math.isfinite(eta) or eta <= 0.0:
        mix = float(losses[w > 0].min())
    else:
        if np.minimum.reduce(w) > 0.0:  # every log finite, nothing to mask
            a = np.log(w) - eta * losses
        else:
            a = np.log(w, out=np.full(n, -np.inf), where=w > 0.0) - eta * losses
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

    Expert ``i`` guesses that ``sqrt(1 + P_T)`` is about ``2**i`` and runs
    path-aware gradient descent accordingly; the experts algorithm tracks
    them through the linearized per-round losses ``l_t[i] = <grad_t, x_t^i>``
    evaluated at the experts' pre-update points, with the single gradient
    taken at the combined play, so the experts are the rows of one batched
    ``AdaGradState`` sharing one gradient-norm accumulator.
    """

    experts: AdaGradState
    hedge: HedgeState
    combined_point: np.ndarray

    @classmethod
    def create(cls, decision_set: DecisionSet, horizon: int) -> "AhagState":
        n = num_experts(decision_set.diameter, horizon)
        # guess rho = 2**i for sqrt(1+P), i.e. a path estimate of rho**2 - 1
        experts = AdaGradState(decision_set,
                               path_estimate=4.0 ** np.arange(n, dtype=float)[:, None] - 1.0,
                               point=np.zeros((n, decision_set.dim)))
        return cls(
            experts=experts,
            hedge=HedgeState.uniform(n),
            combined_point=np.zeros(decision_set.dim),
        )

    @property
    def num_experts(self) -> int:
        return self.experts.point.shape[0]

    @property
    def grad_sq_sum(self) -> float:
        return self.experts.grad_sq_sum


def ahag_step(state: AhagState, grad: np.ndarray) -> tuple[AhagState, np.ndarray]:
    """Play the weighted expert combination, then update every layer on
    ``grad``, the gradient taken at that play.

    The expert losses are formed from the pre-update expert points,
    matching the regret decomposition the ensemble is built on.
    """
    x = state.combined_point
    losses = state.experts.point @ grad
    adagrad_step(state.experts, grad)
    adahedge_step(state.hedge, losses)
    state.combined_point = state.hedge.weights @ state.experts.point
    return state, x


def ahag_round(state: AhagState, cost) -> tuple[AhagState, np.ndarray]:
    """``ahag_step`` on ``cost``'s subgradient at the combined play; ``cost``
    only needs a ``subgradient`` callable."""
    return ahag_step(state, np.asarray(cost.subgradient(state.combined_point), dtype=float))
