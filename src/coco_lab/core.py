"""Domain types and performance metrics for constrained online convex optimization.

The protocol: on each round the learner plays a point from a fixed convex
decision set, then a convex cost and a convex constraint (``g(x) <= 0``)
are revealed. Performance is tracked by cumulative cost regret against
comparator sequences and by the cumulative constraint violation (CCV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import GeometricSet, membership

FEASIBILITY_TOL = 1e-9


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float vector, optionally checking the dimension."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be a vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point dimension {p.shape[0]} != expected {dim}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


@dataclass(frozen=True)
class DecisionSet:
    """The fixed convex action set, with its declared Euclidean diameter.

    Must contain the origin: the ensemble subroutines initialize there and
    their loss-range control relies on it.
    """

    geometry: GeometricSet
    diameter: float

    def __post_init__(self):
        if not self.diameter > 0:
            raise ValueError("decision set diameter must be positive")
        if not membership(np.zeros(self.geometry.dim), self.geometry, tol=1e-9):
            raise ValueError("decision set must contain the origin")

    @property
    def dim(self) -> int:
        return self.geometry.dim

    def project(self, x):
        return self.geometry.project(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CostOracle:
    """Per-round convex cost: value and subgradient callables plus a Lipschitz bound.

    Callables must accept a point of shape ``(d,)``; batch support of shape
    ``(n, d)`` is expected by the grid oracles.
    """

    value: Callable
    subgradient: Callable
    lipschitz_bound: float


@dataclass(frozen=True)
class ConstraintOracle:
    """Per-round convex constraint ``g(x) <= 0`` with its feasible region.

    ``feasible_region`` is the sublevel set within the decision set, kept as
    an explicit geometric object so distances and projections onto it stay
    closed form.
    """

    value: Callable
    subgradient: Callable
    lipschitz_bound: float
    feasible_region: GeometricSet


@dataclass(frozen=True)
class ComparatorSequence:
    """A benchmark action sequence with its path length and feasibility flag."""

    points: np.ndarray  # (T, d)
    path_length: float
    feasible: bool
    name: str = ""

    @classmethod
    def from_points(cls, points, feasible: bool, name: str = "") -> "ComparatorSequence":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(points=pts, path_length=path_length(pts), feasible=feasible, name=name)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class RoundRow:
    """One trajectory row: the played point plus the revealed values for the round."""

    t: int
    x: np.ndarray
    f: float
    g: float
    gplus: float
    q: float
    surrogate_grad_norm: float


@dataclass
class RunRecord:
    """Full trajectory of a run plus the summary filled in by the harness.

    The harness also keeps the comparators it scored (name ->
    ``ComparatorSequence``) and each one's per-round cost (name -> list).
    """

    dimension: int
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    comparators: dict = field(default_factory=dict)
    comparator_costs: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.rows)

    def append(self, row: RoundRow):
        if self.rows and row.q < self.rows[-1].q - 1e-12:
            raise ValueError(f"CCV decreased at round {row.t}")
        self.rows.append(row)

    def final_ccv(self) -> float:
        return self.rows[-1].q if self.rows else 0.0

    def surrogate_grad_sq_sum(self) -> float:
        return float(sum(r.surrogate_grad_norm ** 2 for r in self.rows))


def g_plus(g_value: float) -> float:
    """Clipped constraint value max(0, g)."""
    if not np.isfinite(g_value):
        raise ValueError("constraint value must be finite")
    return max(0.0, float(g_value))


def path_length(points) -> float:
    """Total Euclidean movement of a sequence; a singleton has zero path.

    The sequence is implicitly prepended with its own first element, so a
    constant sequence has path length zero.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty comparator")
    if pts.shape[0] == 1:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=-1)))


def ud_regret(costs, actions, comparators) -> float:
    """Cumulative cost gap sum_t f_t(x_t) - f_t(u_t) against a comparator sequence."""
    comp_pts = comparators.points if isinstance(comparators, ComparatorSequence) else \
        np.atleast_2d(np.asarray(comparators, dtype=float))
    acts = np.atleast_2d(np.asarray(actions, dtype=float))
    if not (len(costs) == acts.shape[0] == comp_pts.shape[0]):
        raise ValueError(
            f"length mismatch: {len(costs)} costs, {acts.shape[0]} actions, "
            f"{comp_pts.shape[0]} comparators"
        )
    total = 0.0
    for cost, x, u in zip(costs, acts, comp_pts):
        total += float(cost.value(x)) - float(cost.value(u))
    return total


def ccv_update(q_prev: float, g_value: float) -> float:
    """Advance the cumulative constraint violation by one round."""
    if q_prev < 0:
        raise ValueError("negative CCV state")
    return q_prev + g_plus(g_value)
