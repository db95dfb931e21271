"""Closed-form regret and violation budgets as plain-number functions.

Every budget a coco-lab run checks is written here exactly once, and
``harness._budget`` is the one place that picks an algorithm's budget. The
run summary, the plot trajectories and the verification pass all evaluate
these formulas through it; they differ only in where the inputs (path
length, horizon, accumulated squared gradient norms) come from.

The five budgets also take those inputs as arrays, one entry per prefix of
a run, and give each entry the bits of the call on that entry alone: the
same IEEE operations in the same order, with a correctly rounded square
root either way. On plain numbers they give a plain float.
"""

from __future__ import annotations

import math

import numpy as np


def _sqrt(x):
    """``math.sqrt`` of a number, ``np.sqrt`` of an array: the same bits."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def num_experts(diameter: float, horizon: int) -> int:
    """Number of doubling path-length guesses needed to cover [0, D*T]."""
    if diameter <= 0 or horizon < 1:
        raise ValueError("need positive diameter and horizon >= 1")
    guesses = 0.5 * math.log2(1.0 + diameter * horizon)
    if not math.isfinite(guesses):
        raise ValueError(f"diameter {diameter!r} times horizon {horizon} overflows")
    return int(math.ceil(guesses)) + 1


def ahag_constant(diameter: float, n_experts: int) -> float:
    """Leading constant of the ensemble regret bound: expert term plus hedge term."""
    return 2.0 * math.sqrt(2.0) * (diameter + 1.0) + 2.0 * diameter * math.sqrt(
        4.0 + math.log(n_experts)
    )


def coco2_gamma(g_lip: float, diameter: float, n_experts: int) -> float:
    """Ensemble constant folded with the Lipschitz bound, as used by the
    first-order variant's closed-form budgets."""
    return math.sqrt(2.0) * g_lip * ahag_constant(diameter, n_experts)


def adagrad_known_path_rhs(diameter: float, path_length: float, grad_sq_sum: float) -> float:
    """``(D+1) sqrt(2 (1+P)) sqrt(S)``: path-aware descent run with estimate ``P``."""
    return (diameter + 1.0) * _sqrt(2.0 * (1.0 + path_length)) * _sqrt(grad_sq_sum)


def adagrad_path_free_rhs(diameter: float, path_length: float, grad_sq_sum: float) -> float:
    """``sqrt(2) (D+1) (1+P) sqrt(S)``: path-free descent against a path of length ``P``."""
    return _sqrt(2.0) * (diameter + 1.0) * (1.0 + path_length) * _sqrt(grad_sq_sum)


def ensemble_rhs(diameter: float, n_experts: int, path_length: float,
                 grad_sq_sum: float) -> float:
    """``c sqrt(1+P) sqrt(S)``: the ensemble's universal regret budget. The
    full-feedback meta-algorithm uses it for both its regret and its CCV."""
    return ahag_constant(diameter, n_experts) * _sqrt(1.0 + path_length) \
        * _sqrt(grad_sq_sum)


def coco2_regret_rhs(gamma: float, v: float, path_length: float, t: int) -> float:
    """First-order variant's regret budget after ``t`` rounds, for any
    feasible comparator of path length ``P``."""
    one_p = 1.0 + path_length
    return (gamma ** 2 * one_p * t + gamma * _sqrt(one_p) * v * _sqrt(t)) / v


def coco2_ccv_rhs(gamma: float, v: float, g_lip: float, diameter: float,
                  path_length: float, t: int) -> float:
    """First-order variant's violation budget after ``t`` rounds; tightest at
    the minimum feasible path length."""
    root_tp = _sqrt(t * (1.0 + path_length))
    return (
        2.0 * gamma * root_tp
        + 0.5 * _sqrt(4.0 * gamma * v * root_tp)
        + 0.5 * _sqrt(4.0 * v * g_lip * diameter * t)
    )
