"""Seeded adversarial instance generators with declared ground truth.

Each scenario fixes a decision set, a Lipschitz bound, and deterministic
per-round cost/constraint oracle pairs. Randomness only enters through the
seed-derived parameters (phases, directions, anchor points); a round's
oracles are a pure function of ``(seed, t)``. Scenarios also declare their
comparators and, where the geometry permits, name the two whose exact path
lengths the CCV budgets take, which so need no grid search at large horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ComparatorSequence, DecisionSet, is_finite_real, is_integer
from .geometry import (_KERNELS, Ball, Box, GeometricSet, Halfspace, Intersection, _distance,
                       _finite, _norm, _rows_dot, _unit_offset)


# ---------------------------------------------------------------------------
# oracle families (cost: affine and norm-of-offset; constraints limited to
# families whose sublevel sets project in closed form)
#
# Each family is a small class holding its parameters, so a round's oracles
# pickle. Besides ``value`` and ``subgradient`` each family has a cross-round
# kernel in two steps: ``stack(oracles)`` gathers the oracles' parameters
# into arrays, and ``evaluate(params, points)`` gives oracle ``i`` at row
# ``i``, with the bits of ``float(oracles[i].value(points[i]))``; one stack
# serves any number of point sets. Two shapes carry four families:
# ``x @ a - b`` is computed as ``x @ a + (-b)`` and ``||x - c||`` as
# ``||x - c|| - 0.0``, which in IEEE arithmetic give the same bits.

class _Linear:
    """``x @ a + shift``."""

    __slots__ = ("a", "shift")

    def value(self, x):
        return np.asarray(x, dtype=float) @ self.a + self.shift

    def subgradient(self, x):
        g = np.empty(np.asarray(x).shape)
        g[...] = self.a
        return g

    @staticmethod
    def stack(oracles):
        return np.array([o.a for o in oracles]), np.array([o.shift for o in oracles])

    @staticmethod
    def evaluate(params, points):
        a, shift = params
        return _rows_dot(points, a) + shift


class _Radial:
    """``||x - center|| - radius``."""

    __slots__ = ("center", "radius")

    def value(self, x):
        return _distance(np.asarray(x, dtype=float), self.center) - self.radius

    def subgradient(self, x):
        return _unit_offset(np.asarray(x, dtype=float), self.center, 1e-12)

    @staticmethod
    def stack(oracles):
        return np.array([o.center for o in oracles]), np.array([o.radius for o in oracles])

    @staticmethod
    def evaluate(params, points):
        center, radius = params
        return _norm(points - center) - radius


class _Constraint:
    """Mixin: ``feasible_region``, the ``Intersection`` of
    ``decision_geometry`` and the sublevel set given as the fields that the
    family takes from its own numbers (``_fields``), built when first read.
    The intersection runs the fields' kind check, so a constraint built with
    its class is refused there, with its factory's message."""

    __slots__ = ()

    @property
    def feasible_region(self) -> GeometricSet:
        if self._region is None:
            self._region = Intersection((self.decision_geometry, self._fields()))
        return self._region


class AffineCost(_Linear):
    """Cost ``a @ x + b``."""

    __slots__ = ()

    def __init__(self, a, b):
        self.a, self.shift = a, b

    b = property(lambda self: self.shift)


class NormCost(_Radial):
    """Cost ``||x - center||``."""

    __slots__ = ()

    def __init__(self, center):
        self.center, self.radius = center, 0.0


class HalfspaceConstraint(_Linear, _Constraint):
    """Constraint ``a @ x - b <= 0``."""

    __slots__ = ("decision_geometry", "_region")

    def __init__(self, a, b, decision_geometry):
        self.a, self.shift = a, -b
        self.decision_geometry, self._region = decision_geometry, None

    b = property(lambda self: -self.shift)

    def _fields(self):
        return Halfspace, self.a, self.b


class BallConstraint(_Radial, _Constraint):
    """Constraint ``||x - center|| - radius <= 0``."""

    __slots__ = ("decision_geometry", "_region")

    def __init__(self, center, radius, decision_geometry):
        self.center, self.radius = center, radius
        self.decision_geometry, self._region = decision_geometry, None

    def _fields(self):
        return Ball, self.center, self.radius


class BoxConstraint(_Constraint):
    """Constraint ``max_i max(lower_i - x_i, x_i - upper_i) <= 0``."""

    __slots__ = ("lower", "upper", "decision_geometry", "_region")

    def __init__(self, lower, upper, decision_geometry):
        self.lower, self.upper = lower, upper
        self.decision_geometry, self._region = decision_geometry, None

    def _fields(self):
        return Box, self.lower, self.upper

    def value(self, x):
        return self.evaluate((self.lower, self.upper), np.asarray(x, dtype=float))

    def subgradient(self, x):
        a = np.asarray(x, dtype=float)
        lo, hi = self.lower, self.upper
        margins = np.maximum(lo - a, a - hi)
        i = int(np.argmax(margins))
        g = np.zeros_like(a)
        g[i] = -1.0 if (lo[i] - a[i]) >= (a[i] - hi[i]) else 1.0
        return g

    @staticmethod
    def stack(oracles):
        return np.array([o.lower for o in oracles]), np.array([o.upper for o in oracles])

    @staticmethod
    def evaluate(params, points):
        lo, hi = params
        return np.max(np.maximum(lo - points, points - hi), axis=-1)


class ConstantConstraint(_Constraint):
    """Constraint identically equal to ``level <= 0``: its feasible region
    is the whole decision set."""

    __slots__ = ("level", "decision_geometry", "_region")

    def __init__(self, level, decision_geometry):
        self.level = level
        self.decision_geometry = self._region = decision_geometry

    def value(self, x):
        a = np.asarray(x, dtype=float)
        return self.level if a.ndim == 1 else np.full(a.shape[0], self.level)

    def subgradient(self, x):
        return np.zeros(np.shape(x))

    @staticmethod
    def stack(oracles):
        return np.array([o.level for o in oracles], dtype=float)

    @staticmethod
    def evaluate(params, points):
        return params


class OracleStack:
    """One block of rounds' oracles, grouped by family and stacked once:
    ``values(points)`` gives ``float(oracles[i].value(points[i]))`` for
    every row ``i``, bit for bit, with one kernel call per family, at as
    many point sets as needed. Any other oracle (a plain ``CostOracle`` or
    ``ConstraintOracle``) is called one row at a time. Whatever a kernel or
    an oracle raises, ``values`` raises: the stack does not say which row
    failed (``run`` finds it by replaying the block round by round)."""

    def __init__(self, oracles):
        groups = {}
        for i, o in enumerate(oracles):
            groups.setdefault(type(o), []).append(i)
        self._n = len(oracles)
        self._groups = []  # (row index, evaluate, stacked parameters)
        for cls, rows in groups.items():
            group = [oracles[i] for i in rows]
            # one family in the block takes the points as they are
            index = slice(None) if len(rows) == len(oracles) else np.array(rows)
            self._groups.append((index, cls.evaluate, cls.stack(group)) if hasattr(cls, "evaluate")
                                else (index, _each_value, group))

    @classmethod
    def from_groups(cls, n: int, groups) -> OracleStack:
        """The stack of ``n`` rows given as ``(rows, family, params)``
        groups: ``rows`` is ``slice(None)`` or an index array, and
        ``params`` holds what ``family.stack`` gives for those rows' oracles."""
        stack = cls.__new__(cls)
        stack._n = n
        stack._groups = [(rows, family.evaluate, params) for rows, family, params in groups]
        return stack

    def __len__(self) -> int:
        return self._n

    def values(self, points) -> np.ndarray:
        values = np.empty(self._n)
        for index, evaluate, params in self._groups:
            values[index] = evaluate(params, points[index])
        return values


def _each_value(oracles, points) -> list:
    """Each oracle's value at its row of ``points``, called in turn."""
    return [float(o.value(p)) for o, p in zip(oracles, points)]


# The factories convert their numbers and refuse a malformed one, naming its
# field: a cost's that is not finite, a constraint's by its kind's check and
# its empty region (``_nonempty``). A class checks nothing when it is built.

def affine_cost(a, b: float = 0.0) -> AffineCost:
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float)
    _finite(a, "affine cost a must be finite")
    _finite(b, "affine cost b must be finite")
    return AffineCost(a, float(b))


def norm_cost(center) -> NormCost:
    center = np.atleast_1d(np.asarray(center, dtype=float))
    _finite(center, "norm cost center must be finite")
    return NormCost(center)


def _nonempty(oracle):
    oracle.feasible_region  # an empty region is refused here, not on first use
    return oracle


def halfspace_constraint(a, b: float, decision_geometry: GeometricSet) -> HalfspaceConstraint:
    return _nonempty(HalfspaceConstraint(*_KERNELS[Halfspace].check(a, b), decision_geometry))


def ball_constraint(center, radius: float, decision_geometry: GeometricSet) -> BallConstraint:
    return _nonempty(BallConstraint(*_KERNELS[Ball].check(center, radius), decision_geometry))


def box_constraint(lower, upper, decision_geometry: GeometricSet) -> BoxConstraint:
    return _nonempty(BoxConstraint(*_KERNELS[Box].check(lower, upper), decision_geometry))


def constant_constraint(level: float, decision_geometry: GeometricSet) -> ConstantConstraint:
    """Constraint identically equal to ``level``; for ``level <= 0`` the
    feasible region is the whole decision set."""
    level = float(level)
    if not math.isfinite(level):
        raise ValueError("constant constraint level must be finite")
    if level > 0:
        raise ValueError("a constant positive constraint has an empty feasible region")
    return ConstantConstraint(level, decision_geometry)


# ---------------------------------------------------------------------------
# scenarios

@dataclass(frozen=True)
class ScenarioSpec:
    """Serializable handle: scenario name, horizon, seed, and parameter overrides."""

    name: str
    horizon: int = 1000
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("horizon", self.horizon), ("seed", self.seed)):
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a JSON object, got {self.params!r}")


class Scenario:
    """Deterministic instance: oracle pairs per round plus declared ground
    truth. ``comparators`` maps names to the ``(T, d)`` points of
    comparators feasible on every round, each made a ``ComparatorSequence``
    once; a run checks each against every round's constraint.
    ``minimizer_path`` names the one of per-round constrained minimizers and
    ``feasible_path`` a round-feasible one, whose exact path lengths the CCV
    budgets take (None where unknown; a name not declared is a ValueError)."""

    def __init__(self, spec: ScenarioSpec, decision_set: DecisionSet, g_lip: float,
                 comparators: dict | None = None, minimizer_path: str | None = None,
                 feasible_path: str | None = None):
        # every oracle is 1-Lipschitz
        if not (is_finite_real(g_lip) and g_lip >= 1.0):
            raise ValueError(f"g_lip must be a finite Lipschitz bound >= 1, got {g_lip!r}")
        self.spec = spec
        self.decision_set = decision_set
        self.g_lip = float(g_lip)
        self._comparators = {name: ComparatorSequence.from_points(points)
                             for name, points in (comparators or {}).items()}
        for path in (minimizer_path, feasible_path):
            if path is not None and path not in self._comparators:
                raise ValueError(f"path {path!r} is not a declared comparator; "
                                 f"{spec.name!r} declares {sorted(self._comparators)}")
        self._minimizer_path = minimizer_path
        self._feasible_path = feasible_path

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def horizon(self) -> int:
        return self.spec.horizon

    @property
    def dimension(self) -> int:
        return self.decision_set.dim

    def _check_round(self, t: int):
        if not 1 <= t <= self.horizon:
            raise ValueError(f"round {t} outside horizon 1..{self.horizon}")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class that changes what ``generate`` gives, and says nothing of
        # its blocks, gets its blocks from its own ``generate``
        if "generate" in vars(cls) and "oracle_block" not in vars(cls):
            cls.oracle_block = Scenario.oracle_block

    def generate(self, t: int):
        raise NotImplementedError

    def oracle_block(self, start: int, stop: int):
        """``(costs, constraints)``: the ``OracleStack`` of each for rounds
        ``start <= t < stop``, whose row ``i`` has the values of
        ``generate(start + i)``'s oracle. Here, those oracles stacked; a
        scenario whose oracles are rows of its own arrays reads the stacks'
        parameters off those arrays (``_block``)."""
        pairs = [self.generate(t) for t in self._rounds(start, stop).tolist()]
        return OracleStack([c for c, _ in pairs]), OracleStack([k for _, k in pairs])

    def _rounds(self, start: int, stop: int) -> np.ndarray:
        """The rounds ``start <= t < stop`` of a block, within the horizon."""
        if not 1 <= start <= stop <= self.horizon + 1:
            raise ValueError(f"rounds {start}..{stop - 1} outside horizon 1..{self.horizon}")
        return np.arange(start, stop)

    def comparators(self) -> dict:
        """The declared comparators by name, in a new dict."""
        return dict(self._comparators)

    def _path_length(self, name: str | None):
        return None if name is None else self._comparators[name].path_length

    def minimizer_path_length(self):
        """Exact path length of the per-round constrained cost minimizers, if known."""
        return self._path_length(self._minimizer_path)

    def feasible_path_length(self):
        """Exact path length of a declared round-feasible comparator (an upper
        bound on the minimum feasible path), if known."""
        return self._path_length(self._feasible_path)


def _params(spec: ScenarioSpec, **defaults) -> dict:
    """``defaults`` and a ``g_lip`` of 1 under ``spec.params``, which must not
    add a name. Each value but ``g_lip`` (which ``Scenario`` checks) must be
    a finite real number, and a radius a positive one."""
    defaults = {"g_lip": 1.0, **defaults}
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown params {unknown}; {spec.name!r} reads {sorted(defaults)}")
    p = {**defaults, **spec.params}
    for name, value in p.items():
        if name == "g_lip":
            continue
        if not is_finite_real(value):
            raise ValueError(f"param {name} must be a finite number, got {value!r}")
        if name.endswith("radius") and not value > 0:
            raise ValueError(f"param {name} must be positive, got {value!r}")
    return p


def _block(n: int, costs: list, constraints: list):
    """``oracle_block``'s stacks of ``n`` rows from ``(rows, family, params)``
    groups of each kind."""
    return tuple(OracleStack.from_groups(n, groups) for groups in (costs, constraints))


def _fixed(oracles, which) -> list:
    """The one group of a block whose row ``i`` holds ``oracles[which[i]]``,
    all of one family: their parameters, stacked once and taken by row."""
    family = type(oracles[0])
    params = family.stack(oracles)
    rows = params[which] if isinstance(params, np.ndarray) else tuple(p[which] for p in params)
    return [(slice(None), family, rows)]


class AlternatingScenario(Scenario):
    """1-d instance whose constraint flips between two overlapping halfspaces.

    The origin is feasible on every round, so both declared path lengths
    are zero.
    """

    def __init__(self, spec: ScenarioSpec):
        p = _params(spec, radius=3.0)
        geom = Box([-p["radius"]], [p["radius"]])
        T = spec.horizon
        super().__init__(spec, DecisionSet(geom, 2.0 * p["radius"]), p["g_lip"],
                         {"minimizer-path": np.zeros((T, 1)),
                          "static-boundary": np.ones((T, 1))},
                         minimizer_path="minimizer-path", feasible_path="minimizer-path")
        self._cost = norm_cost([0.0])
        self._odd = halfspace_constraint([1.0], 1.0, geom)
        self._even = halfspace_constraint([-1.0], 1.0, geom)

    def generate(self, t):
        self._check_round(t)
        return self._cost, (self._odd if t % 2 == 1 else self._even)

    def oracle_block(self, start, stop):
        t = self._rounds(start, stop)
        return _block(len(t), _fixed([self._cost], np.zeros_like(t)),
                      _fixed([self._even, self._odd], t % 2))


class DisjointAlternatingScenario(Scenario):
    """1-d instance alternating between the disjoint intervals [0,1] and [2,3].

    No common feasible point exists: every feasible comparator must hop, so
    the minimum feasible path is exactly ``T - 1`` while the cost
    minimizers (of ``|x|``) hop twice as far.
    """

    def __init__(self, spec: ScenarioSpec):
        p = _params(spec)
        geom = Box([0.0], [3.0])
        odd = np.arange(1, spec.horizon + 1)[:, None] % 2 == 1
        super().__init__(spec, DecisionSet(geom, 3.0), p["g_lip"],
                         {"min-feasible-path": np.where(odd, 1.0, 2.0),
                          "minimizer-path": np.where(odd, 0.0, 2.0)},
                         minimizer_path="minimizer-path", feasible_path="min-feasible-path")
        self._cost = norm_cost([0.0])
        self._odd = ball_constraint([0.5], 0.5, geom)
        self._even = ball_constraint([2.5], 0.5, geom)

    def generate(self, t):
        self._check_round(t)
        return self._cost, (self._odd if t % 2 == 1 else self._even)

    oracle_block = AlternatingScenario.oracle_block


class StaticScenario(Scenario):
    """Time-invariant cost pulling toward the feasible boundary.

    The constrained minimizer sits at the boundary point 1 on every round,
    so both declared path lengths are zero while the cost keeps pressing
    the learner against the constraint.
    """

    def __init__(self, spec: ScenarioSpec):
        p = _params(spec, radius=3.0)
        geom = Box([-p["radius"]], [p["radius"]])
        T = spec.horizon
        super().__init__(spec, DecisionSet(geom, 2.0 * p["radius"]), p["g_lip"],
                         {"minimizer-path": np.ones((T, 1)),
                          "interior-static": np.zeros((T, 1))},
                         minimizer_path="minimizer-path", feasible_path="minimizer-path")
        self._cost = affine_cost([-1.0], 0.0)
        self._constraint = halfspace_constraint([1.0], 1.0, geom)

    def generate(self, t):
        self._check_round(t)
        return self._cost, self._constraint

    def oracle_block(self, start, stop):
        first = np.zeros_like(self._rounds(start, stop))
        return _block(len(first), _fixed([self._cost], first),
                      _fixed([self._constraint], first))


class TrackingBallScenario(Scenario):
    """2-d instance: a unit-ball feasible region riding a slow circular track,
    with rotating linear costs.

    The ball's center sequence is feasible by construction, so its exact
    path length is a declared upper bound on the minimum feasible path;
    the constrained minimizers ``c_t - a_t`` are available in closed form.
    """

    def __init__(self, spec: ScenarioSpec):
        p = _params(spec, set_radius=3.0, ring_radius=1.5, ball_radius=1.0,
                    ring_loops=1.0, cost_loops=3.0)
        if p["ring_radius"] + p["ball_radius"] > p["set_radius"]:
            raise ValueError("feasible balls must stay inside the decision set")
        # a path's steps and a play's norm square coordinates up to the
        # decision set's diameter, 2 set_radius; the other radii are smaller
        if not math.isfinite(2.0 * p["set_radius"] * (2.0 * p["set_radius"])):
            raise ValueError(f"param set_radius makes a decision set whose squared diameter "
                             f"overflows, got {p['set_radius']!r}")
        for name in ("ring_loops", "cost_loops"):  # an angle that overflows has no cos
            if not math.isfinite(2.0 * math.pi * p[name]):
                raise ValueError(f"param {name} makes angles that overflow, got {p[name]!r}")
        T = spec.horizon
        rng = np.random.default_rng(spec.seed)
        phase_c, phase_a = rng.uniform(0.0, 2.0 * math.pi, size=2)
        steps = np.arange(T) / T
        theta = phase_c + 2.0 * math.pi * p["ring_loops"] * steps
        phi = phase_a + 2.0 * math.pi * p["cost_loops"] * steps
        self._ball_radius = p["ball_radius"]
        self._centers = p["ring_radius"] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        self._directions = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        geom = Ball(np.zeros(2), p["set_radius"])
        super().__init__(spec, DecisionSet(geom, 2.0 * p["set_radius"]), p["g_lip"],
                         {"center-path": self._centers,
                          "minimizer-path": self._centers - self._ball_radius * self._directions},
                         minimizer_path="minimizer-path", feasible_path="center-path")

    def generate(self, t):
        self._check_round(t)
        return (AffineCost(self._directions[t - 1], 0.0),
                BallConstraint(self._centers[t - 1], self._ball_radius,
                               self.decision_set.geometry))

    def oracle_block(self, start, stop):
        n, rows = len(self._rounds(start, stop)), slice(start - 1, stop - 1)
        return _block(
            n, [(slice(None), AffineCost, (self._directions[rows], np.zeros(n)))],
            [(slice(None), BallConstraint, (self._centers[rows], np.full(n, self._ball_radius)))])


class OcoMixScenario(Scenario):
    """2-d unconstrained-style stream: rotating linear and norm costs with an
    inert (always satisfied) constraint, plus comparators whose path lengths
    span zero, order sqrt(T), and order T."""

    def __init__(self, spec: ScenarioSpec):
        p = _params(spec, set_radius=2.0)
        geom = Ball(np.zeros(2), p["set_radius"])
        T = spec.horizon
        rng = np.random.default_rng(spec.seed)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=T)
        self._directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        radii = rng.uniform(0.0, 0.75 * p["set_radius"], size=T)
        anchor_angles = rng.uniform(0.0, 2.0 * math.pi, size=T)
        self._anchors = radii[:, None] * np.stack(
            [np.cos(anchor_angles), np.sin(anchor_angles)], axis=1)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        slow, fast = (np.stack([np.cos(a), np.sin(a)], axis=1)
                      for a in (phase + step * np.arange(T) for step in (1.0 / math.sqrt(T), 1.0)))
        super().__init__(spec, DecisionSet(geom, 2.0 * p["set_radius"]), p["g_lip"],
                         {"static-center": np.zeros((T, 2)), "slow-circle": slow,
                          "fast-circle": fast}, feasible_path="static-center")
        self._constraint = constant_constraint(-1.0, geom)

    def generate(self, t):
        self._check_round(t)
        if t % 2 == 1:
            return AffineCost(self._directions[t - 1], 0.0), self._constraint
        return NormCost(self._anchors[t - 1]), self._constraint

    def oracle_block(self, start, stop):
        t = self._rounds(start, stop)
        odd, even = np.flatnonzero(t % 2), np.flatnonzero(t % 2 == 0)
        costs = [(odd, AffineCost, (self._directions[start - 1 + odd], np.zeros(len(odd)))),
                 (even, NormCost, (self._anchors[start - 1 + even], np.zeros(len(even))))]
        return _block(len(t), costs, _fixed([self._constraint], np.zeros_like(t)))


class TrivialScenario(Scenario):
    """Inert instance (zero cost, strictly satisfied constraint): every metric
    should vanish and every budget flag should hold."""

    def __init__(self, spec: ScenarioSpec):
        p = _params(spec)
        geom = Box([-1.0], [1.0])
        # the zero cost makes every point a minimizer
        super().__init__(spec, DecisionSet(geom, 2.0), p["g_lip"],
                         {"static-center": np.zeros((spec.horizon, 1))},
                         minimizer_path="static-center", feasible_path="static-center")
        self._cost = affine_cost([0.0], 0.0)
        self._constraint = constant_constraint(-1.0, geom)

    def generate(self, t):
        self._check_round(t)
        return self._cost, self._constraint

    oracle_block = StaticScenario.oracle_block


SCENARIOS = {
    "alternating": AlternatingScenario,
    "disjoint-alternating": DisjointAlternatingScenario,
    "static": StaticScenario,
    "tracking-ball": TrackingBallScenario,
    "oco-mix": OcoMixScenario,
    "trivial": TrivialScenario,
}


def build_scenario(spec: ScenarioSpec) -> Scenario:
    try:
        cls = SCENARIOS[spec.name]
    except KeyError:
        raise ValueError(f"unknown scenario {spec.name!r}; "
                         f"available: {sorted(SCENARIOS)}") from None
    return cls(spec)


def make_scenario(name: str, horizon: int, seed: int = 0, **params) -> Scenario:
    return build_scenario(ScenarioSpec(name=name, horizon=horizon, seed=seed, params=params))
