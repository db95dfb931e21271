"""Convex set primitives with exact Euclidean projections.

Supported sets are axis-aligned boxes, Euclidean balls, halfspaces, and
finite intersections of those. Each primitive kind is one row of
``_KERNELS``: the check of its two fields beside its projection and
membership kernels. Every route to a kind's numbers runs that check: the
set's constructor, the kind's constraint factory and an ``Intersection``
given the kind's fields ``(kind, p, q)``, as a constraint's region is.
An intersection reads each part's kind and two fields and builds no set.
Two closed forms cover the regions a run builds: box-like parts (a 1-d
ball or halfspace counts as the box it is) meet in their common box, and
two nested balls in the inner one. Every other region is projected by one
exact rule: each ball or halfspace is peeled off the region before it by
a search over its one KKT multiplier (``_peel``).

Every operation accepts a single point of shape ``(d,)`` or a batch of
shape ``(n, d)`` and returns a result of matching shape; a region's
projection refuses any other shape. ``project`` is every set's array
path. A caller that holds a single point of fewer than 8 coordinates as
Python floats (``_floats``) projects them with the set's ``_point``, with
the bits of the array path: onto a box or a ball by the kind's float
kernel (the ``floats`` entry of its ``_KERNELS`` row), also as the target
of an ``Intersection``. AdaGrad's single-point step and
``dist_subgradient`` are those callers. A ball's membership test and the
distance and unit offset of such a point are worked in floats too; a
halfspace and a peeled region have no float path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

MEMBERSHIP_TOL = 1e-9
ZERO_DIST_TOL = 1e-8
_RESIDUAL_TOL = 1e-8
_EMPTY_TOL = 1e-6
_FAR = 2.0 ** 30  # the reach of a halfspace's search (``_far``)
_BISECT_EVERY = 24
_NOISE = 2.0 ** -50  # rounding decides an excess this small (``_search``)


class ProjectionError(RuntimeError):
    """A projection lies more than 1e-8 outside a part of its region, as
    where the region is empty by less than 1e-6; carries the largest
    distance to a part."""

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
    coordinates (of ``minus``'s shape); None otherwise. Its geometry then
    skips numpy's per-call cost and keeps its bits: add, subtract, multiply,
    divide and sqrt round correctly in both, and ``_norm`` of such a point
    is the root of its squares summed in order (``_norm_floats``)."""
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
    matmul takes one BLAS dot product per row, as the 1-d product does (a row
    sum or a matrix-vector product adds in another order); 0-d for a point."""
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
        """The projection, as Python floats, of the point of floats ``v``
        (from ``_floats``), with the bits of ``project``, where the set has
        such a path: a box's or a ball's (``_point_onto``) or a closed
        form's onto one. None here; ``project`` takes arrays."""
        return None


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
        too; a caller that holds a point's floats projects them with
        ``_point``."""
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
# batch (a float array); and its float kernel, the projection of a point's
# list of floats with the array projection's bits (None for a halfspace).

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
    kernel (a halfspace) or a ``v`` not of the set's dimension."""
    kind, p, q = fields
    row = _KERNELS.get(kind)
    if row is None or row.floats is None or len(v) != len(p):
        return None
    return row.floats(v, p, q)


def _in_floats(v, kind, p, q) -> bool:
    """``_checked``'s test of the floats ``v`` against one part's fields, on
    the same bits: a box's, a ball's or a 1-d halfspace's; False for any
    other part, which ``_checked`` then tests on arrays."""
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


class Intersection(GeometricSet):
    """Finite intersection of boxes, balls and halfspaces.

    A component is a primitive, its fields ``(kind, p, q)`` (checked here)
    or an ``Intersection``, which adds its parts; anything else is refused.
    The fields are kept in order as ``parts``, beside the region's closed
    form as ``target`` (``_closed_form``) or else its ``peel`` plan
    (``_peel_plan``). A projection is checked (``_checked``); a short
    point's floats go onto a box or ball target by ``_point``.
    """

    __slots__ = ("parts", "target", "peel")

    def __init__(self, components):
        parts = []
        for c in components:
            if type(c) is tuple:
                parts += [(c[0], *_KERNELS[c[0]].check(c[1], c[2]))]
            elif type(c) is Intersection:
                parts += c.parts
            elif type(c) in _KERNELS:
                parts += [c.fields]
            else:
                raise TypeError("an intersection component must be a Box, Ball or Halfspace, "
                                "the fields (kind, p, q) of one, or an Intersection of them")
        if not parts:
            raise ValueError("intersection needs at least one component")
        shape = parts[0][1].shape
        for _, p, _ in parts:
            if p.shape != shape:
                raise ValueError("intersection components must share a dimension")
        self.parts, self.target, self.peel = parts, _closed_form(parts), None
        if self.target is None:
            self.peel = _peel_plan(parts)

    @property
    def dim(self) -> int:
        return self.parts[0][1].shape[0]

    def project(self, x):
        """The target's projection of the point or batch ``x``, or the
        peel's, checked."""
        a = np.asarray(x, dtype=float)
        if a.ndim not in (1, 2):
            raise ValueError(f"expected point of shape (d,) or batch (n, d), got {a.shape}")
        if self.target is not None:
            return _checked(_project_onto(self.target, a), self.parts)
        out = _peel(np.atleast_2d(a), *self.peel)
        return _checked(out[0] if a.ndim == 1 else out, self.parts)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        a, result = np.asarray(x, dtype=float), True
        for kind, p, q in self.parts:
            result = result & _KERNELS[kind].contains(a, p, q, tol)
        return result

    def _point(self, v):
        """The checked projection of the floats ``v`` as Python floats, with
        the bits of the array path, where the target is a box or a ball; else
        None. Each part is tested in floats (``_in_floats``); a part that
        fails it is left to ``_checked``, which raises the array path's
        ``ProjectionError`` for a projection outside it."""
        out = None if self.target is None else _point_onto(self.target, v)
        if out is not None:
            for kind, p, q in self.parts:
                if not _in_floats(out, kind, p, q):
                    _checked(np.array(out), self.parts)
                    break
        return out


def _closed_form(parts):
    """The closed form of the region of ``parts`` (fields): box-like parts
    (``_bounds``) give their common box ``(Box, lower, upper)``, two nested
    balls the inner one's own fields; else None. Raises ``ValueError`` when
    the common box is empty."""
    ends = list(map(_bounds, parts))
    if None not in ends:
        (lo, hi), *others = ends
        for lower, upper in others:
            lo, hi = np.maximum(lo, lower), np.minimum(hi, upper)
        if np.any(lo > hi + _EMPTY_TOL):
            raise ValueError(f"empty intersection (lower end {np.max(lo - hi):.3e} "
                             "above upper end)")
        return Box, lo, np.maximum(lo, hi)
    if len(parts) == 2 and parts[0][0] is parts[1][0] is Ball:
        (_, c1, r1), (_, c2, r2) = parts
        v = c2 - c1
        gap = math.sqrt(v @ v)
        if gap + r1 <= r2:
            return parts[0]
        if gap + r2 <= r1:
            return parts[1]
    return None


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


def _peel_plan(parts):
    """``(base, rest, scale)``: the common box of the box-like parts, or else
    the first part; the balls and halfspaces to peel off it in order; the
    ``_extent``. Refuses a part 1e-6 outside the region before it at its
    search's far end, where the two come closest."""
    boxes = [f for f in parts if _bounds(f) is not None]
    rest = [f for f in parts if _bounds(f) is None]
    base = _closed_form(boxes) if boxes else rest.pop(0)
    scale = _extent(parts)
    origin = np.zeros((1, base[1].shape[0]))
    for k, part in enumerate(rest):
        far = _peel(_path(part, _far(part, origin, scale), origin), base, rest[:k], scale)
        gap = _excess(part, far)[0]
        if not gap <= _EMPTY_TOL:
            raise ValueError(f"empty intersection (a part {gap:.3e} outside those before it)")
    return base, tuple(rest), scale


def _extent(parts) -> float:
    """The largest finite magnitude among the parts' box ends, ball centres
    and radii, and halfspaces' distances from the origin."""
    v = np.abs(np.concatenate([[q / math.sqrt(p @ p)] if kind is Halfspace else np.r_[p, q]
                               for kind, p, q in parts]))
    return float(np.max(v[np.isfinite(v)], initial=0.0))


def _project_onto(fields, a):
    """The projection of the point or batch ``a`` onto the set of ``fields``
    by its kind's kernel."""
    kind, p, q = fields
    return _KERNELS[kind].project(a, p, q)


def _checked(out, parts):
    """``out``, a projection onto the region of ``parts``, when it lies in
    each part at 1e-8 (a box in d >= 2: each coordinate within 1e-8); else
    ``ProjectionError`` with its largest distance to one. A ball's single
    point answers a Python bool, with no numpy call."""
    for kind, p, q in parts:
        ok = _KERNELS[kind].contains(out, p, q, _RESIDUAL_TOL)
        if not (ok if out.ndim == 1 else ok.all()):
            residual = max(float(np.max(_norm(out - _project_onto(f, out)))) for f in parts)
            raise ProjectionError("projection left the set", residual)
    return out


def _peel(a, base, rest, scale):
    """The projection of the batch ``a`` onto the region of the fields
    ``base`` and ``rest``: onto the base, then off each part in turn. A row
    keeps a projection that the part holds, to rounding (``_NOISE``)."""
    if not rest:
        return _project_onto(base, a)
    *before, part = rest
    out = _peel(a, base, before, scale)
    g = _excess(part, out)
    rows = np.flatnonzero(g > _NOISE * (1.0 + scale))
    if rows.size:
        out[rows] = _search(a[rows], g[rows], part, lambda z: _peel(z, base, before, scale), scale)
    return out


def _excess(part, y):
    """How far each row of ``y`` lies outside the ball or halfspace
    ``part``, as its membership test measures it: negative inside."""
    kind, p, q = part
    return _norm(y - p) - q if kind is Ball else (_rows_dot(y, p) - q) / math.sqrt(p @ p)


def _path(part, t, x):
    """The rows ``x`` moved to multipliers ``t`` of ``part``: ``x - t a`` or
    ``c + (x - c) / (1 + t)`` (c at t = inf). By the KKT conditions, ``x``
    projects onto a region cut by the part as its point at the least ``t``
    that puts it in the part does."""
    kind, p, _ = part
    t = t[:, None]
    return x - t * p if kind is Halfspace else p + (x - p) / (1.0 + t)


def _far(part, x, scale):
    """The far end of each row's ``_path``: inf for a ball; for a halfspace,
    where it has moved ``_FAR`` times 1 + ``scale`` + the row's extent."""
    if part[0] is Ball:
        return np.full(len(x), np.inf)
    return _FAR * (1.0 + scale + np.max(np.abs(x), axis=1)) / math.sqrt(part[1] @ part[1])


def _search(x, g0, part, onto, scale):
    """The projections of the rows ``x``, each ``g0 > 0`` outside ``part``
    once projected onto a region by ``onto``, onto that region cut by the
    part: ``onto`` of the ``_path`` point at the least multiplier that puts
    it in the part, along which the excess (``_excess``) falls.

    A row keeps its point at a lower bound on the multiplier if it lies in
    the part. Else the multiplier grows by 2, 4, 16, 256, ... until the
    point lies in the part by more than rounding decides (``_NOISE``), or
    to the far end (``_far``), whose point is then taken: a part that only
    touches the region meets it there. Secant steps with the Illinois fix,
    or halvings on the bits, then narrow the bracket to adjacent floats or
    a point on the boundary. A row's steps read that row alone."""
    kind, p, _ = part
    out = np.empty_like(x)
    end, slack = _far(part, x, scale), -_NOISE * (1.0 + scale)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the path moves a point at most |a| t, or |x - c| t / (1 + t), and the
        # excess is 1-Lipschitz: it stays positive below the multiplier where
        # that reaches g0 (the least float stands in for 0, which cannot grow)
        first = g0 / (np.maximum(_norm(x - p) - g0, 0.0) if kind is Ball else math.sqrt(p @ p))
        rows, t = np.arange(len(x)), np.minimum(np.maximum(first, 5e-324), end)
        lo, glo, grow, found = np.zeros(len(x)), g0, 1.0, []
        while rows.size:
            y = onto(_path(part, t, x[rows]))
            g = _excess(part, y)
            inside = g < slack if grow > 1.0 else g <= 0
            done = inside | ~(t < end[rows])
            out[rows[done]] = y[done]
            if grow > 1.0:
                found.append((rows[inside], lo[inside], glo[inside], t[inside], g[inside]))
            # the bracket's outer end: the last point outside the part
            lo, glo = np.where(g > 0, t, lo)[~done], np.where(g > 0, g, glo)[~done]
            rows, t = rows[~done], t[~done]
            grow = 2.0 if grow == 1.0 else grow * grow
            t = np.minimum(grow * t, end[rows])
        if not found:
            return out
        rows, lo, glo, hi, ghi = map(np.concatenate, zip(*found))
        xs, side, step = x[rows], np.zeros(len(rows)), 0
        while True:
            keep = hi.view(np.int64) - lo.view(np.int64) > 1
            if not keep.all():
                rows, xs, lo, glo, hi, ghi, side = (
                    a[keep] for a in (rows, xs, lo, glo, hi, ghi, side))
            if not rows.size:
                return out
            step += 1
            # the secant's point, or one ulp inside the end it falls on or past;
            # or halving on the bits, ``lo + ((hi - lo) >> 1)`` (``lo + hi``
            # overflows int64)
            t = hi - ghi * (hi - lo) / (ghi - glo)
            t = np.where(t < hi, np.where(t > lo, t, np.nextafter(lo, hi)), np.nextafter(hi, lo))
            bits = (hi > 2.0 * lo) | (step % _BISECT_EVERY == 0)
            lb, hb = lo.view(np.int64), hi.view(np.int64)
            t = np.where(bits, (lb + ((hb - lb) >> 1)).view(float), t)
            y = onto(_path(part, t, xs))
            g = _excess(part, y)
            inside = g <= 0
            out[rows[inside]] = y[inside]
            # Illinois: the end kept for a second step in a row has its value
            # halved; a point on the boundary closes the bracket
            glo = np.where(inside, np.where(side < 0, 0.5 * glo, glo), g)
            ghi = np.where(inside, g, np.where(side > 0, 0.5 * ghi, ghi))
            lo = np.where(inside, np.where(g == 0, t, lo), t)
            hi, side = np.where(inside, t, hi), np.where(inside, -1.0, 1.0)


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
    check to the unit vector where ``s`` has a float path (``_point``, tried
    once); elsewhere the projection is ``project``'s, on arrays.
    """
    a = np.asarray(x, dtype=float)
    v = _finite(a)
    out = None if v is None else s._point(v)
    if out is None:
        return _unit_offset(a, s.project(a), ZERO_DIST_TOL)
    return _unit_floats([p - q for p, q in zip(v, out)], ZERO_DIST_TOL)
