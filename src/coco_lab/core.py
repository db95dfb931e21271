"""Domain types and performance metrics for constrained online convex optimization.

The protocol: on each round the learner plays a point from a fixed convex
decision set, then a convex cost and a convex constraint (``g(x) <= 0``)
are revealed. Performance is tracked by cumulative cost regret against
comparator sequences and by the cumulative constraint violation (CCV).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import GeometricSet, _rows_dot, membership

FEASIBILITY_TOL = 1e-9


def is_integer(value) -> bool:
    """An integer that is not a bool: a horizon, a seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number that is not a bool: a bound, a weight, a radius."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class DecisionSet:
    """The fixed convex action set, with its declared Euclidean diameter.

    Must contain the origin: the ensemble subroutines initialize there and
    their loss-range control relies on it.
    """

    geometry: GeometricSet
    diameter: float

    def __post_init__(self):
        if not (is_finite_real(self.diameter) and self.diameter > 0):
            raise ValueError(f"decision set diameter must be finite and positive, "
                             f"got {self.diameter!r}")
        if not membership(np.zeros(self.geometry.dim), self.geometry, tol=1e-9):
            raise ValueError("decision set must contain the origin")

    @property
    def dim(self) -> int:
        return self.geometry.dim

    def project(self, x):
        return self.geometry.project(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CostOracle:
    """Per-round convex cost: value and subgradient callables. Its Lipschitz
    bound is the run's one G, the scenario's ``g_lip``, which bounds every
    cost and constraint of the run.

    Callables must accept a point of shape ``(d,)``; batch support of shape
    ``(n, d)`` is expected by the grid oracles.
    """

    value: Callable
    subgradient: Callable


@dataclass(frozen=True)
class ConstraintOracle:
    """Per-round convex constraint ``g(x) <= 0`` with its feasible region.

    ``feasible_region`` is the sublevel set within the decision set,
    ``{x in decision set : value(x) <= 0}``, kept as an explicit geometric
    object so distances and projections onto it stay closed form (a
    built-in constraint family gives a ``geometry.ClosedForm`` where one
    applies). coco1 reads it, and projects onto it, only on rounds whose
    play has ``value(x_t) > 0``: a play in the decision set that reads
    ``<= 0`` is taken to lie in it.
    """

    value: Callable
    subgradient: Callable
    feasible_region: GeometricSet


@dataclass(frozen=True)
class ComparatorSequence:
    """A benchmark action sequence, feasible on every round by contract (a
    run checks it on each), with its path ``path_prefix(points)`` computed
    once: entry ``t - 1`` is the path length after round ``t``, and
    ``path_length`` its last entry. Its name is its key in the table that
    holds it."""

    points: np.ndarray  # (T, d)
    path: np.ndarray  # (T,)

    @classmethod
    def from_points(cls, points) -> "ComparatorSequence":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(points=pts, path=path_prefix(pts))

    @property
    def path_length(self) -> float:
        return float(self.path[-1])


class RunRecord:
    """A run's trajectory and running sums as preallocated columns, plus
    the summary filled in by the harness.

    ``x`` has shape ``(capacity, dimension)``, every other column
    ``(capacity,)``. The first ``horizon`` rows are recorded: each round
    writes its row of ``x`` and ``grad_norm``, the harness each scored
    comparator's cost (``comparators`` and ``comparator_costs``, by name),
    and ``fill`` completes a block of rounds: ``f``, ``g``, ``gplus``, and
    the running sums, whose entry ``t - 1`` covers rounds 1..t: ``Q`` of
    gplus, ``cost_sum`` of f, ``S`` of the squared gradient norms and
    ``comparator_cost_sum`` (by name) of each comparator's costs.
    """

    def __init__(self, dimension: int, capacity: int = 0, comparators: dict | None = None):
        self.dimension = dimension
        self.x = np.zeros((capacity, dimension))
        self.f, self.g, self.gplus, self.Q, self.cost_sum, self.S, self.grad_norm = \
            np.zeros((7, capacity))
        self.horizon = 0
        self.summary = {}
        self.comparators = {} if comparators is None else comparators
        self.comparator_costs = {name: np.zeros(capacity) for name in self.comparators}
        self.comparator_cost_sum = {name: np.zeros(capacity) for name in self.comparators}

    def fill(self, f, g, q: float | None = None):
        """Record the next ``len(f)`` rounds, whose ``x``, ``grad_norm`` and
        comparator cost rows are written, with their values ``f`` and ``g``.
        ``gplus`` has the bits of ``g_plus``; each running sum carries on
        from its entry before these rounds in round order (``Q`` with the
        bits of ``ccv_update``; ``S`` of each norm squared with ``**``).
        ``q``, if given, is the learner's own CCV after these rounds, which
        must be the last ``Q`` bit for bit."""
        start = self.horizon
        stop = start + len(f)
        rows = slice(start, stop)
        g = np.asarray(g, dtype=float)
        gplus = np.where(g > 0.0, g, 0.0)
        self.f[rows], self.g[rows], self.gplus[rows] = f, g, gplus
        q_before = self.Q[start - 1] if start else 0.0
        try:
            squares = [n ** 2 for n in self.grad_norm[rows].tolist()]
        except OverflowError:
            raise ValueError(f"a squared gradient norm overflows in rounds "
                             f"{start + 1}..{stop}") from None
        sums = [(self.Q, gplus), (self.cost_sum, self.f[rows]), (self.S, squares)]
        sums += [(self.comparator_cost_sum[name], costs[rows])
                 for name, costs in self.comparator_costs.items()]
        for column, values in sums:
            column[rows] = running_sum(values, column[start - 1] if start else 0.0)[1:]
        if q is not None and q != self.Q[stop - 1]:
            if q < q_before:
                raise ValueError(f"CCV decreased at round {stop}")
            raise ValueError(f"learner's CCV {q!r} is not the Q column's "
                             f"{float(self.Q[stop - 1])!r} at round {stop}")
        self.horizon = stop

    def regret(self, name: str) -> np.ndarray:
        """The running regret against comparator ``name``: entry ``t - 1``
        is the cost sum less the comparator's after round ``t``."""
        return self.cost_sum[:self.horizon] - self.comparator_cost_sum[name][:self.horizon]

    def surrogate_grad_sq_sum(self) -> float:
        """S_T: the last entry of the ``S`` column, 0.0 before any round."""
        return float(self.S[self.horizon - 1]) if self.horizon else 0.0


def g_plus(g_value: float) -> float:
    """Clipped constraint value max(0, g)."""
    if not math.isfinite(g_value):
        raise ValueError("constraint value must be finite")
    return max(0.0, float(g_value))


def running_sum(values, start: float = 0.0) -> np.ndarray:
    """Every prefix sum of ``values`` carried on from ``start``: entry ``i`` is
    ``start`` plus the first ``i`` values, added in order as a running ``+=``
    adds them (``np.cumsum`` is sequential; ``np.sum`` and, from Python 3.12,
    the builtin ``sum`` are not). So a sum carried on from an earlier
    prefix's last entry has the bits of the sum taken at once."""
    return np.cumsum(np.concatenate(([start], values)))


def path_prefix(points) -> np.ndarray:
    """Euclidean path length of a sequence up to each of its points: entry
    ``i`` adds the first ``i`` step lengths in order, so a singleton or a
    constant sequence has zero path.

    Each step's length is the bits of ``np.linalg.norm(step)``: the square
    root of ``_rows_dot``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty comparator")
    steps = np.diff(pts, axis=0)
    return running_sum(np.sqrt(_rows_dot(steps, steps)))


def path_length(points) -> float:
    """Total Euclidean movement of a sequence: the last entry of ``path_prefix``."""
    return float(path_prefix(points)[-1])


def ccv_update(q_prev: float, g_value: float) -> float:
    """Advance the cumulative constraint violation by one round."""
    if q_prev < 0:
        raise ValueError("negative CCV state")
    return q_prev + g_plus(g_value)
