"""Reference computations the tests compare runs against; no run calls them.

Grid search supplies argmins of arbitrary convex functions over low
dimensional regions, per-round constrained minimizers (and their path
length), and a dynamic program for the minimum-movement sequence that is
feasible on every round. These are deliberately exhaustive: they exist to
check the closed-form values and budget inequalities, not to scale.

``auxiliary_value`` is coco1's distance-penalized cost as a value, and
``sweep_slope`` fits a sweep's sublinearity slope in one call, as
``coco-lab sweep`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coco_lab.core import CostOracle, path_length
from coco_lab.geometry import GeometricSet, dist
from coco_lab.harness import RunConfig, _sweep_values, loglog_slope

MAX_GRID_POINTS = 10_000_000
MAX_DP_HORIZON = 200
MAX_DP_POINTS_PER_ROUND = 500


@dataclass(frozen=True)
class GridSpec:
    """Regular mesh over a box, restricted to dimension <= 2."""

    lower: np.ndarray
    upper: np.ndarray
    h: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("grid bounds must be vectors of equal length")
        if lo.shape[0] > 2:
            raise ValueError("grid oracles support dimension <= 2 only")
        if np.any(lo > hi):
            raise ValueError("grid lower bound exceeds upper bound")
        if not self.h > 0:
            raise ValueError("mesh size must be positive")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "h", float(self.h))
        if np.prod(self._counts()) > MAX_GRID_POINTS:
            raise ValueError("grid exceeds the 1e7 point cap")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def _counts(self):
        return np.floor((self.upper - self.lower) / self.h + 1e-12).astype(int) + 1

    def points(self) -> np.ndarray:
        """All mesh points in lexicographic coordinate order, shape (M, d)."""
        axes = [self.lower[i] + self.h * np.arange(n) for i, n in enumerate(self._counts())]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _eval_on(fn, pts: np.ndarray) -> np.ndarray:
    """``fn`` on every point: one batched call, or one call per point when
    the batched result has the wrong shape. An error from the batched call
    is the oracle's own and propagates."""
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape == (pts.shape[0],):
        return vals
    return np.array([float(fn(p)) for p in pts])


def grid_argmin(fn, region: GeometricSet, grid: GridSpec) -> np.ndarray:
    """Minimizing grid point of ``fn`` over ``region``; ties break toward
    the lexicographically smallest coordinates."""
    pts = grid.points()
    mask = np.asarray(region.contains(pts), dtype=bool)
    if not mask.any():
        raise ValueError("empty grid-region intersection")
    cand = pts[mask]
    vals = _eval_on(fn, cand)
    return cand[int(np.argmin(vals))]


def constrained_minimizer_path(costs, constraints, grid: GridSpec):
    """Per-round grid minimizers of the costs over the feasible regions,
    with the path length of the resulting sequence."""
    if len(costs) != len(constraints):
        raise ValueError("costs and constraints must pair up round by round")
    points = np.array([
        grid_argmin(cost.value, constraint.feasible_region, grid)
        for cost, constraint in zip(costs, constraints)
    ])
    return points, path_length(points)


def min_feasible_path(constraints, grid: GridSpec):
    """Minimum-total-movement sequence hitting every round's feasible region.

    Dynamic program over the feasible grid points of each round; rounds
    with more than 500 feasible points are subsampled evenly (in
    lexicographic order) to keep the transition matrices small.
    """
    horizon = len(constraints)
    if horizon == 0:
        raise ValueError("empty run")
    if horizon > MAX_DP_HORIZON:
        raise ValueError(f"dynamic program capped at horizon {MAX_DP_HORIZON}")
    pts = grid.points()
    stages = []
    for constraint in constraints:
        mask = np.asarray(constraint.feasible_region.contains(pts), dtype=bool)
        if not mask.any():
            raise ValueError("empty grid-region intersection")
        feas = pts[mask]
        if feas.shape[0] > MAX_DP_POINTS_PER_ROUND:
            idx = np.unique(np.round(
                np.linspace(0, feas.shape[0] - 1, MAX_DP_POINTS_PER_ROUND)
            ).astype(int))
            feas = feas[idx]
        stages.append(feas)

    cost_to = np.zeros(stages[0].shape[0])
    back = []
    for t in range(1, horizon):
        prev, cur = stages[t - 1], stages[t]
        moves = np.linalg.norm(cur[:, None, :] - prev[None, :, :], axis=-1)
        totals = moves + cost_to[None, :]
        choice = np.argmin(totals, axis=1)
        back.append(choice)
        cost_to = totals[np.arange(cur.shape[0]), choice]

    end = int(np.argmin(cost_to))
    p_min = float(cost_to[end])
    idx = end
    rev = [stages[-1][idx]]
    for t in range(horizon - 2, -1, -1):
        idx = int(back[t][idx])
        rev.append(stages[t][idx])
    points = np.array(rev[::-1])
    return points, p_min


def auxiliary_value(cost: CostOracle, feasible_set: GeometricSet, g_lip: float, x) -> float:
    """Cost plus twice-Lipschitz distance penalty; its unconstrained minimum
    over the decision set lands inside ``feasible_set``."""
    return float(cost.value(x)) + 2.0 * g_lip * dist(x, feasible_set)


def sweep_slope(config: RunConfig, metric: str, comparator: str | None = None) -> float:
    """Run every configured horizon and fit the sublinearity slope of the metric."""
    _, values = _sweep_values(config, metric, comparator)
    return loglog_slope(config.horizons, values)
