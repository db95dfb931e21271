"""Convex set primitives with exact Euclidean projections.

Supported sets are axis-aligned boxes, Euclidean balls, halfspaces, and
finite intersections of those. Each primitive kind is one row of
``_KERNELS``: the check of its two fields beside its projection and
membership kernels. Every route to a kind's numbers runs that check: the
set's constructor, the kind's constraint factory and an ``Intersection``
given the kind's fields ``(kind, p, q)``, as a constraint's region is.
Two primitives intersect in closed form by one of two rules: two boxes,
where a 1-d ball or halfspace counts as the box it is, meet in a box; two
balls meet in the inner ball or a lens. The rules read each primitive's
kind and two fields, so an ``Intersection`` of fields builds no set. Every
other intersection uses Dykstra's alternating projection scheme, which
converges to the exact Euclidean projection for closed convex sets.

Every operation accepts a single point of shape ``(d,)`` or a batch of
shape ``(n, d)`` and returns a result of matching shape; a region's
projection refuses any other shape. A single point of fewer than 8
coordinates is worked in Python floats, with the bits of the array path
(``_floats``): its projection onto a box or a ball, by the kind's float
kernel (the ``floats`` entry of its ``_KERNELS`` row), also as the target
of an ``Intersection`` (``_point``), a ball's membership test and the
distance subgradient. A batch, a longer point, a halfspace, a lens and
Dykstra's scheme stay on arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    fields = None  # a primitive's ``(kind, p, q)``; None for any other set

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        raise NotImplementedError

    def anchor(self) -> np.ndarray:
        """A point guaranteed to lie in the set (projection of the origin)."""
        return self.project(np.zeros(self.dim))

    def _point(self, v):
        """The projection, as Python floats, of the point whose coordinates
        are the floats ``v`` (as ``_floats`` gives them), where the set has
        such a path: a box's or a ball's (``_point_onto``) or a closed form's
        onto one (``Intersection._point``). None here."""
        return None

    def _arrays(self, a):
        """The projection of the float array ``a`` with no float path tried
        first (``Intersection._arrays``); ``project`` here."""
        return self.project(a)


class _Primitive(GeometricSet):
    """A ``Box``, ``Ball`` or ``Halfspace``: a frozen dataclass of two fields,
    converted by its kind's check (``_KERNELS``) and kept as ``fields``,
    ``(kind, p, q)`` with ``kind(p, q)`` the set."""

    __slots__ = ()

    def __post_init__(self):
        kind, (first, second) = type(self), self.__dataclass_fields__
        p, q = _KERNELS[kind].check(getattr(self, first), getattr(self, second))
        vars(self).update({first: p, second: q, "fields": (kind, p, q)})  # frozen: no setattr

    @property
    def dim(self) -> int:
        return self.fields[1].shape[0]

    def contains(self, x, tol=MEMBERSHIP_TOL):
        kind, p, q = self.fields
        return _KERNELS[kind].contains(np.asarray(x, dtype=float), p, q, tol)

    def _point(self, v):
        return _point_onto(self.fields, v)


@dataclass(frozen=True)
class Box(_Primitive):
    """Axis-aligned box { x : lower <= x <= upper } (coordinatewise). An end
    may be infinite (a 1-d halfspace is such a box), but not NaN."""

    lower: np.ndarray
    upper: np.ndarray

    def project(self, x):
        """The projection of ``x`` by numpy's two ufuncs, a single point's
        too: converting it to Python floats and back for ``_box_floats``
        would cost more than they do. A caller that holds a point's floats
        projects them with ``_point``."""
        return _box_project(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class Ball(_Primitive):
    """Euclidean ball { x : ||x - center|| <= radius }."""

    center: np.ndarray
    radius: float

    def project(self, x):
        return _ball_project(np.asarray(x, dtype=float), self.center, self.radius)


@dataclass(frozen=True)
class Halfspace(_Primitive):
    """Halfspace { x : <normal, x> <= offset }; the offset may be infinite,
    but not NaN."""

    normal: np.ndarray
    offset: float

    def project(self, x):
        return _halfspace_project(np.asarray(x, dtype=float), self.normal, self.offset)


# Each primitive kind's row of ``_KERNELS``: the check that converts its two
# fields and refuses, naming the field, one that is malformed or would
# project a point to NaN; its projection and membership test on a point or
# batch ``a`` (a float array) and the checked fields; and its float kernel,
# the projection of a point given as the list of its Python floats, with
# the bits of the array projection (None for a kind that has none).

def _box_fields(lower, upper):
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("box bounds must be vectors of equal length")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN")
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")
    return lo, hi


def _box_project(a, lower, upper):
    # np.clip's values, without its wrapper; a signed zero tied with a
    # bound comes out as np.clip gives it for one point, also in a batch
    return np.minimum(np.maximum(a, lower), upper)


def _box_floats(v, lower, upper):
    """``np.minimum(np.maximum(v, lower), upper)`` of the floats ``v`` (one
    per end), as Python floats. On a tie, such as -0.0 against +0.0, both
    ufuncs return their second operand, the end, where Python's ``max`` and
    ``min`` return their first; a NaN coordinate stays NaN."""
    out = []
    for c, lo, hi in zip(v, lower.tolist(), upper.tolist()):
        c = lo if c <= lo else c
        out.append(hi if c >= hi else c)
    return out


def _in_box(a, lower, upper, tol):
    return np.all((a >= lower - tol) & (a <= upper + tol), axis=-1)


def _ball_fields(center, radius):
    # a short center in Python floats: tracking-ball checks one per round
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.ndim != 1:
        raise ValueError("ball center must be a vector")
    _finite(c, "ball center must be finite")
    if not radius > 0:
        raise ValueError("ball radius must be positive")
    r = float(radius)
    if not math.isfinite(r):
        raise ValueError("ball radius must be finite")
    return c, r


def _ball_project(a, center, radius):
    v = _floats(a) if a.shape == center.shape else None
    if v is not None:
        return np.array(_ball_floats(v, center, radius))
    delta = a - center
    n = _norm(delta, keepdims=True)
    # 1.0 when n <= r or n is NaN, else r / n: the bits of
    # ``np.where(n > r, r / max(n, 1e-300), 1.0)`` for any r >= 1e-300
    return center + delta * (radius / np.fmax(n, radius))


def _ball_floats(v, center, radius):
    """``_ball_project`` of the floats ``v`` (one per coordinate of the
    center), as Python floats."""
    c = center.tolist()
    delta, squares = [], 0.0
    for p, q in zip(v, c):
        d = p - q
        delta.append(d)
        squares += d * d  # ``_norm_floats(delta)``'s sum, as the offset is formed
    n = math.sqrt(squares)
    scale = radius / (n if n > radius else radius)  # np.fmax's radius for a NaN n
    return [p + d * scale for p, d in zip(c, delta)]


def _in_ball(a, center, radius, tol):
    return _distance(a, center) <= radius + tol


def _halfspace_fields(normal, offset):
    a = np.atleast_1d(np.asarray(normal, dtype=float))
    if a.ndim != 1:
        raise ValueError("halfspace normal must be a vector")
    _finite(a, "halfspace normal must be finite")
    # the projection divides by ``a @ a``, which is 0 for [1e-170, 0] too
    if not np.linalg.norm(a) > 0:
        raise ValueError("halfspace normal must be nonzero")
    b = float(offset)
    if math.isnan(b):
        raise ValueError("halfspace offset must not be NaN")
    return a, b


def _halfspace_project(a, normal, offset):
    viol = (_rows_dot(a, normal) - offset) / float(normal @ normal)
    return a - np.maximum(viol, 0.0)[..., None] * normal


def _in_halfspace(a, normal, offset, tol):
    # tolerance applied to the signed distance so membership is invariant
    # under rescaling of the normal
    return (_rows_dot(a, normal) - offset) / math.sqrt(normal @ normal) <= tol


_Kind = namedtuple("_Kind", "check project contains floats")
_KERNELS = {Box: _Kind(_box_fields, _box_project, _in_box, _box_floats),
            Ball: _Kind(_ball_fields, _ball_project, _in_ball, _ball_floats),
            Halfspace: _Kind(_halfspace_fields, _halfspace_project, _in_halfspace, None)}


def _point_onto(fields, v):
    """The projection of the floats ``v`` onto the set of ``fields`` by its
    kind's float kernel, as Python floats; None for a kind with no such
    kernel (a halfspace, a lens) or a ``v`` not of the set's dimension."""
    kind, p, q = fields
    row = _KERNELS.get(kind)
    if row is None or row.floats is None or len(v) != len(p):
        return None
    return row.floats(v, p, q)


def _in_floats(v, kind, p, q) -> bool:
    """``_checked``'s test of the floats ``v`` against one part's fields, on
    the same bits: a box's or a ball's test, or a 1-d halfspace's (the
    parts of a target with a float kernel); False for any other part, which
    ``_checked`` then tests on arrays."""
    tol = _RESIDUAL_TOL
    if kind is Box:
        for c, lo, hi in zip(v, p.tolist(), q.tolist()):
            if not lo - tol <= c <= hi + tol:
                return False
        return True
    if kind is Ball:
        return _norm_floats([c - o for c, o in zip(v, p.tolist())]) <= q + tol
    if kind is Halfspace and len(v) == 1:
        # ``_in_halfspace``: the 1-d dot product is one correctly rounded product
        n = p.item()
        return (v[0] * n - q) / math.sqrt(n * n) <= tol
    return False


_DIM_MISMATCH = "intersection components must share a dimension"


def _point_or_batch(x):
    """``x`` as a float array, a point ``(d,)`` or a batch ``(n, d)``."""
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError(f"expected point of shape (d,) or batch (n, d), got {a.shape}")
    return a


class Intersection(GeometricSet):
    """Finite intersection of convex sets.

    A component is a set or, for a primitive, its fields ``(kind, p, q)``,
    checked here. Two primitives whose intersection has a closed form
    (``_closed_form``) keep it as ``target`` beside their fields,
    ``parts``, and build no set: ``project`` puts a point or batch on the
    target and checks it (``_checked``), a short point onto a box or a ball
    in Python floats (``_point``). Every other intersection makes its fields
    sets (its ``components``) and is projected by Dykstra's scheme, and
    construction probes it for non-emptiness: if no component anchor lies
    in all components, Dykstra is run from a few deterministic starts and
    the intersection is rejected when the residual distance to the
    components stays above 1e-6.
    """

    __slots__ = ("components", "target", "parts")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("intersection needs at least one component")
        # each component's fields; None for a set that is no primitive
        self.parts = [(c[0], *_KERNELS[c[0]].check(c[1], c[2])) if type(c) is tuple else c.fields
                      for c in comps]
        self.components, self.target = comps, None
        if len(comps) == 2 and None not in self.parts:
            (_, p1, _), (_, p2, _) = self.parts
            if p1.shape != p2.shape:
                raise ValueError(_DIM_MISMATCH)
            self.target = _closed_form(*self.parts)
        if self.target is None:
            self.components = tuple(f[0](f[1], f[2]) if type(c) is tuple else c
                                    for c, f in zip(comps, self.parts))
            if any(c.dim != self.components[0].dim for c in self.components):
                raise ValueError(_DIM_MISMATCH)
            self._probe_nonempty()

    @property
    def dim(self) -> int:
        return self.components[0].dim if self.target is None else self.parts[0][1].shape[0]

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
        a = _point_or_batch(x)
        v = _floats(a)
        out = None if v is None else self._point(v)
        return self._arrays(a) if out is None else np.array(out)

    def _arrays(self, a):
        """``project`` of the point or batch ``a`` on arrays: the target's
        projection, checked, or Dykstra's."""
        if self.target is not None:
            return _checked(_project_onto(self.target, a), self.parts)
        # Dykstra works on a batch
        out, converged, moved = _dykstra(np.atleast_2d(a), self.components)
        residual = _residual(out, self.components)
        if not converged or residual > _RESIDUAL_TOL:
            raise ProjectionError("projection did not converge", max(residual, moved))
        return out[0] if a.ndim == 1 else out

    def contains(self, x, tol=MEMBERSHIP_TOL):
        a = np.asarray(x, dtype=float)
        if self.target is not None:
            (k1, p1, q1), (k2, p2, q2) = self.parts
            return _KERNELS[k1].contains(a, p1, q1, tol) & _KERNELS[k2].contains(a, p2, q2, tol)
        result = self.components[0].contains(a, tol)
        for c in self.components[1:]:
            result = result & c.contains(a, tol)
        return result

    def _point(self, v):
        """The checked projection of the floats ``v`` as Python floats, when
        the target is a box (two boxes, a 1-d ball or halfspace counted as
        one) or a ball (the inner one of two nested balls); None for a lens,
        Dykstra or a ``v`` of another dimension. The bits are the target's
        array projection's. Each part is tested in floats (``_in_floats``);
        a part that fails it is left to ``_checked``, which raises the
        array path's ``ProjectionError`` for a projection outside it."""
        out = None if self.target is None else _point_onto(self.target, v)
        if out is not None:
            for kind, p, q in self.parts:
                if not _in_floats(out, kind, p, q):
                    _checked(np.array(out), self.parts)
                    break
        return out


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
    return p.project(a) if kind is _Lens else _KERNELS[kind].project(a, p, q)


def _checked(out, parts):
    """``out``, a closed form's projection, when it lies in the set of each
    of ``parts``'s fields at 1e-8 (for a box in d >= 2, each coordinate
    within 1e-8); else ``ProjectionError`` with its largest distance to
    one. A ball's single point answers a Python bool, with no numpy call."""
    for kind, p, q in parts:
        ok = _KERNELS[kind].contains(out, p, q, _RESIDUAL_TOL)
        if not (ok if out.ndim == 1 else ok.all()):
            residual = max(float(np.max(_norm(out - _project_onto(f, out)))) for f in parts)
            raise ProjectionError("closed-form projection left the set", residual)
    return out


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


def _finite(pts, message="cannot project a non-finite point"):
    """``_floats(pts)``, once every coordinate of ``pts`` is checked finite;
    else ``ValueError(message)``."""
    v = _floats(pts)
    if not (np.isfinite(pts).all() if v is None else all(map(math.isfinite, v))):
        raise ValueError(message)
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
    check to the unit vector when ``s`` has a float path (``_point``): a box
    or a ball, or an intersection whose closed form is one. ``_point`` is
    called once at most; where it gives None the projection is the array
    path's (``_arrays``), with no second float attempt.
    """
    a = np.asarray(x, dtype=float)
    v = _finite(a)
    out = None if v is None else s._point(v)
    if out is None:
        return _unit_offset(a, s._arrays(a), ZERO_DIST_TOL)
    return _unit_floats([p - q for p, q in zip(v, out)], ZERO_DIST_TOL)
