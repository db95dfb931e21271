"""Convex set primitives with exact Euclidean projections.

Supported sets are axis-aligned boxes, Euclidean balls, halfspaces, and
finite intersections of those. Projections onto the primitives are closed
form, and so are projections onto two of them by one of two rules: two
boxes, where a 1-d ball or halfspace counts as the box it is, meet in a
box; two balls meet in the inner ball or a lens. The rules read each set's
kind and two fields, so their region, a ``ClosedForm``, needs no set
object. Every other intersection uses Dykstra's alternating projection
scheme, which converges to the exact Euclidean projection for closed
convex sets.

Every operation accepts a single point of shape ``(d,)`` or a batch of
shape ``(n, d)`` and returns a result of matching shape; a region's
projection refuses any other shape. A ball's operations and the distance
subgradient work a single point of fewer than 8 coordinates in Python
floats, with the bits of the array path (``_floats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MEMBERSHIP_TOL = 1e-9
ZERO_DIST_TOL = 1e-8
DYKSTRA_MOVE_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10_000
_RESIDUAL_TOL = 1e-8
_EMPTY_PROBE_TOL = 1e-6


class ProjectionError(RuntimeError):
    """Iterative projection failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _norm(v, keepdims=False):
    """``np.linalg.norm(v, axis=-1, keepdims=keepdims)`` for a float array,
    bit for bit: numpy's own code for that case, without its wrapper."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=keepdims))


# numpy's ``add.reduce`` adds fewer terms than this to +0.0 from left to
# right, as the loop in ``_norm_floats`` does; from 8 terms on it sums in
# pairwise blocks (``_sum``)
_SHORT = 8
# the longest vector numpy sums in one block of 8 running sums
_BLOCK = 128


def _sum(v) -> float:
    """``np.add.reduce`` of the list of floats ``v``, bit for bit: +0.0 plus
    numpy's pairwise sum of ``v``."""
    return 0.0 + _pairwise_sum(v)


def _pairwise_sum(v) -> float:
    """numpy's pairwise sum: fewer than ``_SHORT`` terms from left to right,
    up to ``_BLOCK`` terms in 8 running sums (entry ``i`` goes to sum
    ``i % 8``, and the terms past the last multiple of 8 are added after
    the sums are joined), and a longer list as the sum of two halves split
    at a multiple of 8."""
    n = len(v)
    if n < _SHORT:
        s = -0.0
        for x in v:
            s += x
        return s
    if n <= _BLOCK:
        body = n - n % 8
        r = v[:8]
        for i in range(8, body, 8):
            r = [p + q for p, q in zip(r, v[i:i + 8])]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in v[body:]:
            s += x
        return s
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])


def _floats(a, minus=None):
    """The coordinates of ``a``, less those of the array ``minus`` if given,
    as Python floats when ``a`` is one point of fewer than ``_SHORT``
    coordinates (of ``minus``'s shape); None otherwise.

    A point's geometry then skips numpy's per-call cost and keeps its bits:
    add, subtract, multiply, divide and sqrt are correctly rounded in numpy
    and in Python alike, and ``_norm`` of such a point is the square root
    of its squares summed in order (``_norm_floats``).
    """
    if a.ndim != 1 or a.shape[0] >= _SHORT:
        return None
    if minus is None:
        return a.tolist()
    if minus.shape != a.shape:
        return None
    return [p - q for p, q in zip(a.tolist(), minus.tolist())]


def _rows_dot(a, b):
    """``a[i] @ b[i]`` for every row ``i`` of ``a``, bit for bit, where ``b``
    has a row for each row of ``a`` or is one vector for them all: a stacked
    matmul takes one BLAS dot product per row, as the 1-d product does; a row
    sum or a matrix-vector product adds in another order. A single point
    ``a`` gives a 0-d array."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm_floats(v) -> float:
    """``_norm`` of a point that ``_floats`` gives."""
    s = 0.0
    for c in v:
        s += c * c
    return math.sqrt(s)


def _distance(a, b):
    """``_norm(a - b)``, a Python float for a point that ``_floats`` takes."""
    delta = _floats(a, b)
    return _norm(a - b) if delta is None else _norm_floats(delta)


def _unit_offset(a, b, tol: float) -> np.ndarray:
    """``(a - b) / _norm(a - b)``, or zeros where that norm is at most
    ``tol`` or NaN."""
    delta = _floats(a, b)
    if delta is not None:
        return _unit_floats(delta, tol)
    delta = a - b
    n = _norm(delta, keepdims=True)
    return np.divide(delta, n, out=np.zeros_like(delta), where=n > tol)


def _unit_floats(delta, tol: float) -> np.ndarray:
    """``_unit_offset`` of a point whose offset ``delta`` ``_floats`` gives."""
    n = _norm_floats(delta)
    return np.array([c / n for c in delta] if n > tol else [0.0] * len(delta))


class GeometricSet:
    """Closed convex set exposing projection, membership and distance oracles."""

    __slots__ = ()
    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """A point guaranteed to lie in the set (projection of the origin)."""
        return self.project(np.zeros(self.dim))


@dataclass(frozen=True)
class Box(GeometricSet):
    """Axis-aligned box { x : lower <= x <= upper } (coordinatewise). An end
    may be infinite (a 1-d halfspace is such a box), but not NaN."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be vectors of equal length")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, x):
        return _box_project(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return _in_box(np.asarray(x, dtype=float), self.lower, self.upper, tol)


@dataclass(frozen=True)
class Ball(GeometricSet):
    """Euclidean ball { x : ||x - center|| <= radius }."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1:
            raise ValueError("ball center must be a vector")
        if not np.isfinite(c).all():
            raise ValueError("ball center must be finite")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        r = float(self.radius)
        if not math.isfinite(r):
            raise ValueError("ball radius must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project(self, x):
        return _ball_project(np.asarray(x, dtype=float), self.center, self.radius)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return _in_ball(np.asarray(x, dtype=float), self.center, self.radius, tol)


@dataclass(frozen=True)
class Halfspace(GeometricSet):
    """Halfspace { x : <normal, x> <= offset }; the offset may be infinite,
    but not NaN."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.normal, dtype=float))
        if a.ndim != 1:
            raise ValueError("halfspace normal must be a vector")
        if not np.isfinite(a).all():
            raise ValueError("halfspace normal must be finite")
        if not np.linalg.norm(a) > 0:
            raise ValueError("halfspace normal must be nonzero")
        b = float(self.offset)
        if math.isnan(b):
            raise ValueError("halfspace offset must not be NaN")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project(self, x):
        return _halfspace_project(np.asarray(x, dtype=float), self.normal, self.offset)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return _in_halfspace(np.asarray(x, dtype=float), self.normal, self.offset, tol)


# The primitives' projections and membership tests, on a point or batch
# ``a`` (a float array) and the set's two fields: ``Box``'s, ``Ball``'s and
# ``Halfspace``'s methods, and through ``_KERNELS`` a ``ClosedForm``'s.

def _box_project(a, lower, upper):
    # np.clip's values, without its wrapper; a signed zero tied with a
    # bound comes out as np.clip gives it for one point, also in a batch
    return np.minimum(np.maximum(a, lower), upper)


def _in_box(a, lower, upper, tol):
    return np.all((a >= lower - tol) & (a <= upper + tol), axis=-1)


def _ball_project(a, center, radius):
    delta = _floats(a, center)
    if delta is not None:
        return np.array(_ball_floats(center.tolist(), delta, radius))
    delta = a - center
    n = _norm(delta, keepdims=True)
    # 1.0 when n <= r or n is NaN, else r / n: the bits of
    # ``np.where(n > r, r / max(n, 1e-300), 1.0)`` for any r >= 1e-300
    return center + delta * (radius / np.fmax(n, radius))


def _ball_floats(center, delta, radius):
    """``_ball_project`` of a point whose offset from the center ``_floats``
    gives, as Python floats; ``center`` is the center's coordinates."""
    n = _norm_floats(delta)
    scale = radius / (n if n > radius else radius)  # np.fmax's radius for a NaN n
    return [c + d * scale for c, d in zip(center, delta)]


def _in_ball(a, center, radius, tol):
    return _distance(a, center) <= radius + tol


def _halfspace_project(a, normal, offset):
    viol = (_rows_dot(a, normal) - offset) / float(normal @ normal)
    return a - np.maximum(viol, 0.0)[..., None] * normal


def _in_halfspace(a, normal, offset, tol):
    # tolerance applied to the signed distance so membership is invariant
    # under rescaling of the normal
    return (_rows_dot(a, normal) - offset) / math.sqrt(normal @ normal) <= tol


# kind -> (projection, membership test)
_KERNELS = {Box: (_box_project, _in_box), Ball: (_ball_project, _in_ball),
            Halfspace: (_halfspace_project, _in_halfspace)}

_DIM_MISMATCH = "intersection components must share a dimension"


def _point_or_batch(x):
    """``x`` as a float array, a point ``(d,)`` or a batch ``(n, d)``."""
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError(f"expected point of shape (d,) or batch (n, d), got {a.shape}")
    return a


@dataclass(frozen=True)
class Intersection(GeometricSet):
    """Finite intersection of convex sets.

    Two Box, Ball or Halfspace components whose intersection has a closed
    form (``closed_form``) keep it as ``_exact`` and are projected by it.
    Every other intersection is projected by Dykstra's scheme, and
    construction probes it for non-emptiness: if no component anchor lies
    in all components, Dykstra is run from a few deterministic starts and
    the intersection is rejected when the residual distance to the
    components stays above 1e-6.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("intersection needs at least one component")
        if any(c.dim != comps[0].dim for c in comps):
            raise ValueError(_DIM_MISMATCH)
        object.__setattr__(self, "components", comps)
        # the region's closed form; None means Dykstra
        object.__setattr__(self, "_exact", closed_form(*map(_fields, comps))
                           if len(comps) == 2 else None)
        if self._exact is None:
            self._probe_nonempty()

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def _probe_nonempty(self):
        anchors = [c.anchor() for c in self.components]
        for a in anchors:
            if all(bool(c.contains(a, tol=_EMPTY_PROBE_TOL)) for c in self.components):
                return
        rng = np.random.default_rng(7)
        mean = np.mean(anchors, axis=0)
        spread = max(1.0, float(np.max([np.linalg.norm(a - mean) for a in anchors])))
        starts = [mean] + [mean + rng.normal(scale=spread, size=self.dim) for _ in range(2)]
        best = np.inf
        for s in starts:
            x, _, _ = _dykstra(s[None, :], self.components)
            best = min(best, _residual(x, self.components))
            if best <= _EMPTY_PROBE_TOL:
                return
        raise ValueError(f"empty intersection (Dykstra residual {best:.3e})")

    def project(self, x):
        if self._exact is not None:
            return self._exact.project(x)
        a = _point_or_batch(x)
        # Dykstra works on a batch
        out, converged, moved = _dykstra(np.atleast_2d(a), self.components)
        residual = _residual(out, self.components)
        if not converged or residual > _RESIDUAL_TOL:
            raise ProjectionError("projection did not converge", max(residual, moved))
        return out[0] if a.ndim == 1 else out

    def contains(self, x, tol=MEMBERSHIP_TOL):
        a = np.asarray(x, dtype=float)
        result = self.components[0].contains(a, tol)
        for c in self.components[1:]:
            result = result & c.contains(a, tol)
        return result


# A primitive set's fields are ``(kind, p, q)`` with ``kind(p, q)`` the set:
# a Box's lower and upper ends, a Ball's center and radius, a Halfspace's
# normal and offset.

def _fields(s):
    """The fields of a ``Box``, ``Ball`` or ``Halfspace``; None for any other set."""
    if isinstance(s, Box):
        return Box, s.lower, s.upper
    if isinstance(s, Ball):
        return Ball, s.center, s.radius
    if isinstance(s, Halfspace):
        return Halfspace, s.normal, s.offset
    return None


def _closed_form(first, second):
    """The closed form of the intersection of two sets given by their fields,
    by one of two rules: two boxes, a 1-d ball or halfspace counted as the
    box it is (``_bounds``), give their common box's fields
    ``(Box, lower, upper)``; two balls give the inner one's own fields when
    nested, else ``(_Lens, lens, None)``. None for any other pair. Raises
    ``ValueError`` when such an intersection is empty."""
    e1, e2 = _bounds(first), _bounds(second)
    if e1 is not None and e2 is not None:
        lo, hi = np.maximum(e1[0], e2[0]), np.minimum(e1[1], e2[1])
        if np.any(lo > hi + _EMPTY_PROBE_TOL):
            raise ValueError(f"empty intersection (lower end {np.max(lo - hi):.3e} "
                             "above upper end)")
        return Box, lo, np.maximum(lo, hi)
    if not (first[0] is Ball and second[0] is Ball):
        return None
    (_, c1, r1), (_, c2, r2) = first, second
    v = c2 - c1
    gap = math.sqrt(v @ v)
    if gap > r1 + r2 + _EMPTY_PROBE_TOL:
        raise ValueError(f"empty intersection (balls {gap - r1 - r2:.3e} apart)")
    if gap + r1 <= r2:
        return first
    if gap + r2 <= r1:
        return second
    return _Lens, _Lens(c1, r1, c2, r2, gap), None


def _bounds(fields):
    """``(lower, upper)`` arrays of a box given by its fields, or of the box
    that a 1-d ball or halfspace is; None for any other set."""
    kind, p, q = fields
    if kind is Box:
        return p, q
    if p.shape[0] != 1:
        return None
    if kind is Ball:
        return p - q, p + q
    end = q / p  # a halfspace
    return (np.full(1, -np.inf), end) if p[0] > 0 else (end, np.full(1, np.inf))


def _project_onto(fields, a):
    """The projection of the point or batch ``a`` onto the set of ``fields``
    (a lens's included)."""
    kind, p, q = fields
    return p.project(a) if kind is _Lens else _KERNELS[kind][0](a, p, q)


def _checked(out, parts):
    """``out``, a closed form's projection, when it lies in the set of each
    of ``parts``'s fields at 1e-8 (for a box in d >= 2, each coordinate
    within 1e-8); else ``ProjectionError`` with its largest distance to
    one. A ball's single point answers a Python bool, with no numpy call."""
    for kind, p, q in parts:
        ok = _KERNELS[kind][1](out, p, q, _RESIDUAL_TOL)
        if not (ok if out.ndim == 1 else ok.all()):
            residual = max(float(np.max(_norm(out - _project_onto(f, out)))) for f in parts)
            raise ProjectionError("closed-form projection left the set", residual)
    return out


class ClosedForm(GeometricSet):
    """The intersection of two primitive sets given by their fields
    (``parts``), built from those arrays alone. ``project`` puts a point or
    batch on ``target``, the common box, inner ball or lens that
    ``_closed_form`` gives, and checks it (``_checked``); a short point onto
    a ball target is worked in Python floats (``_point``)."""

    __slots__ = ("target", "parts")

    def __init__(self, target, parts):
        self.target, self.parts = target, parts

    @property
    def dim(self) -> int:
        return self.parts[0][1].shape[0]

    def project(self, x):
        a = _point_or_batch(x)
        out = self._point(a)
        if out is None:
            return _checked(_project_onto(self.target, a), self.parts)
        return np.array(out)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        a = np.asarray(x, dtype=float)
        (k1, p1, q1), (k2, p2, q2) = self.parts
        return _KERNELS[k1][1](a, p1, q1, tol) & _KERNELS[k2][1](a, p2, q2, tol)

    def _point(self, a):
        """The checked projection of ``a`` as Python floats, when ``a`` is a
        point that ``_floats`` takes and the target is a ball (the ball
        rule's inner ball: both parts are balls); None otherwise. The bits
        are ``_ball_project``'s, and the check is ``_checked``'s, which
        raises for a projection that fails it."""
        kind, center, radius = self.target
        delta = _floats(a, center) if kind is Ball else None
        if delta is None:
            return None
        out = _ball_floats(center.tolist(), delta, radius)
        for _, c, r in self.parts:
            # ``_in_ball``'s test, on the floats ``_distance`` takes
            if not _norm_floats([p - q for p, q in zip(out, c.tolist())]) <= r + _RESIDUAL_TOL:
                _checked(np.array(out), self.parts)
        return out


def closed_form(first, second):
    """The ``ClosedForm`` of the intersection of two sets given by their
    fields; None where either is None (a set that is no primitive) or
    neither rule applies. Raises ``ValueError`` when the two differ in
    dimension or such an intersection is empty."""
    if first is None or second is None:
        return None
    if first[1].shape != second[1].shape:
        raise ValueError(_DIM_MISMATCH)
    target = _closed_form(first, second)
    return None if target is None else ClosedForm(target, (first, second))


class _Lens:
    """The intersection of the balls ``(c1, r1)`` and ``(c2, r2)``, whose
    centres lie ``gap`` apart, neither inside the other.

    A point, or each row of a batch, goes to its projection onto one ball
    when that lies in the other ball; otherwise both constraints are active and it goes to the
    nearest point of the rim, the sphere of radius ``h`` around ``mid`` in
    the hyperplane orthogonal to the axis ``u``.
    """

    def __init__(self, c1, r1, c2, r2, gap: float):
        a = (gap * gap + r1 * r1 - r2 * r2) / (2.0 * gap)
        self.c1, self.r1, self.c2, self.r2 = c1, r1, c2, r2
        self.u = (c2 - c1) / gap
        self.h = math.sqrt(max(r1 * r1 - a * a, 0.0))
        self.mid = c1 + a * self.u

    def project(self, x):
        out = _ball_project(x, self.c1, self.r1)
        done = np.asarray(_in_ball(out, self.c2, self.r2, 0.0))
        if done.all():
            return out
        other = _ball_project(x, self.c2, self.r2)
        out = np.where(done[..., None], out, other)
        done |= _in_ball(other, self.c1, self.r1, 0.0)
        if done.all():
            return out
        w = x - self.c1
        # a row sum, not ``@``: BLAS orders the sum differently for a batch
        w -= np.sum(w * self.u, axis=-1, keepdims=True) * self.u
        n = _norm(w, keepdims=True)
        # a point on the axis gets here only when the rim is the single
        # point ``mid`` (tangent balls) or by rounding, and goes to ``mid``
        direction = np.divide(w, n, out=np.zeros_like(w), where=n > 0)
        return np.where(done[..., None], out, self.mid + self.h * direction)


def _dykstra(pts, components):
    """Cyclic Dykstra iteration over a batch of points.

    Returns ``(points, converged, last_move)``. Convergence requires a
    full sweep that moves every point less than ``DYKSTRA_MOVE_TOL`` and the
    iterate lying within the residual tolerance of every component. The
    iterate can stand still at a member of the set that is not the
    projection while the correction terms keep changing, so the sweep must
    also change each point's corrections by less than that tolerance, or
    leave the point that close to its start's projection onto one
    component (a member of the set nearest to the start within a larger set
    is the projection, whatever the corrections still do).
    """
    start = np.array(pts, dtype=float)
    x = start
    corrections = [np.zeros_like(x) for _ in components]
    moved = np.inf
    for _ in range(DYKSTRA_MAX_SWEEPS):
        prev, before = x, list(corrections)
        for i, comp in enumerate(components):
            z = x + corrections[i]
            y = comp.project(z)
            corrections[i] = z - y
            x = y
        moved = float(np.max(_norm(x - prev)))
        if moved < DYKSTRA_MOVE_TOL:
            if _residual(x, components) <= _RESIDUAL_TOL and _settled(
                    start, x, components, before, corrections, DYKSTRA_MOVE_TOL):
                return x, True, moved
    return x, False, moved


def _residual(x, components) -> float:
    """The largest distance from a point, or from any row of a batch, to a
    component."""
    return max(float(np.max(_norm(x - c.project(x)))) for c in components)


def _settled(start, x, components, before, after, tol) -> bool:
    """Whether each point's corrections changed by less than ``tol`` in the
    sweep, or the point lies within ``tol`` of its start projected onto
    some single component."""
    ok = np.max([_norm(b - a) for a, b in zip(before, after)], axis=0) < tol
    for c in components:
        ok |= _norm(c.project(start) - x) < tol
    return bool(ok.all())


def _finite(pts):
    """``_floats(pts)``, once every coordinate of ``pts`` is checked finite."""
    v = _floats(pts)
    if not (np.isfinite(pts).all() if v is None else all(map(math.isfinite, v))):
        raise ValueError("cannot project a non-finite point")
    return v


def project(x, s: GeometricSet):
    """Euclidean projection of ``x`` onto ``s``."""
    pts = np.asarray(x, dtype=float)
    _finite(pts)
    return s.project(pts)


def membership(x, s: GeometricSet, tol: float = MEMBERSHIP_TOL):
    """Whether ``x`` satisfies all defining inequalities of ``s`` within ``tol``."""
    result = s.contains(np.asarray(x, dtype=float), tol)
    return bool(result) if np.ndim(result) == 0 else result


def dist(x, s: GeometricSet):
    """Minimum Euclidean distance from ``x`` to ``s``; zero for members."""
    a = np.asarray(x, dtype=float)
    p = project(a, s)
    d = _norm(a - p)
    return float(d) if a.ndim == 1 else d


def dist_subgradient(x, s: GeometricSet):
    """Subgradient of the distance-to-set function at ``x``.

    Outside the set this is the unit vector pointing from the projection of
    ``x`` back to ``x``; within ``ZERO_DIST_TOL`` of the set the zero vector
    is returned, which is a valid subgradient on and inside the set. A
    point that ``_floats`` takes stays in Python floats from the finiteness
    check to the unit vector when ``s`` is a closed form onto a ball
    (``ClosedForm._point``): no array is made between them.
    """
    a = np.asarray(x, dtype=float)
    v = _finite(a)
    out = s._point(a) if isinstance(s, ClosedForm) else None
    if out is None:
        return _unit_offset(a, s.project(a), ZERO_DIST_TOL)
    return _unit_floats([p - q for p, q in zip(v, out)], ZERO_DIST_TOL)
