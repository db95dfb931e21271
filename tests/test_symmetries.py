"""Exact symmetries of a run, checked through ``harness.run`` with no
reference implementation.

Scaling every cost, every constraint and the Lipschitz bound G by 2^k
leaves the plays bit-identical. The learner is scale-free: AdaGrad's step
divides by the root of its summed squared gradients, and AdaHedge's rate by
its loss gap. Both surrogates are positively homogeneous once G scales with
the losses, and so is coco2's default V = gamma sqrt(T). A power of two
multiplies exactly barring overflow and underflow, so each summary value
scales by an exact power of two, and a constraint's feasible region, a
sublevel set, does not move.
"""

from dataclasses import replace

import numpy as np
import pytest

from coco_lab.core import ConstraintOracle, CostOracle
from coco_lab.harness import ALGORITHMS, RunConfig, run, verify_run
from coco_lab.scenarios import SCENARIOS, Scenario, ScenarioSpec, build_scenario

# the values that carry one unit of cost or constraint; a path length, a
# diameter or a flag carries none
SCALES_ONCE = ("final_ccv", "sum_cost", "ccv_bound_rhs", "v", "g_lip")


def scaled_scenario(name: str, s: float):
    """A ``Scenario`` class that plays the built-in ``name`` with every cost,
    every constraint and ``g_lip`` multiplied by ``s``."""

    class Scaled(Scenario):
        def __init__(self, spec):
            inner = build_scenario(replace(spec, name=name))
            super().__init__(spec, inner.decision_set, s * inner.g_lip,
                             {n: c.points for n, c in inner.comparators().items()},
                             minimizer_path=inner._minimizer_path,
                             feasible_path=inner._feasible_path)
            self._inner = inner

        def generate(self, t):
            cost, constraint = self._inner.generate(t)
            return (CostOracle(lambda x: s * cost.value(x), lambda x: s * cost.subgradient(x)),
                    ConstraintOracle(lambda x: s * constraint.value(x),
                                     lambda x: s * constraint.subgradient(x),
                                     constraint.feasible_region))

    return Scaled


def ratio(key: str, algorithm: str, s: float):
    """The factor a summary value takes when the losses scale by ``s``; 1
    for one that carries no unit."""
    if key == "surrogate_grad_sq_sum":
        # coco2's surrogate gradient V f' + 2 Q g' scales as s^2: V and Q
        # scale too
        return s ** 4 if algorithm == "coco2" else s ** 2
    if key in SCALES_ONCE or key.startswith(("regret__", "bound_rhs__")):
        return s
    return 1.0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {"trivial"}))
def test_scaling_losses_and_g_lip_by_a_power_of_two_scales_the_run_exactly(
        monkeypatch, tmp_path, name, algorithm):
    # g_lip 8, so that 2^-3 of it is still a bound >= 1, which Scenario takes
    spec = ScenarioSpec(name, 300, seed=1, params={"g_lip": 8.0})
    base = run(RunConfig(spec, algorithm))
    for k in (-3, 3):
        s = 2.0 ** k
        scaled_name = f"{name}*2^{k}"
        monkeypatch.setitem(SCENARIOS, scaled_name, scaled_scenario(name, s))
        out = tmp_path / scaled_name
        scaled = run(RunConfig(replace(spec, name=scaled_name), algorithm, out_dir=str(out)))
        assert np.array_equal(scaled.x.view(np.uint64), base.x.view(np.uint64))
        assert set(scaled.summary) == set(base.summary)
        for key, value in base.summary.items():
            if key not in ("scenario", "wall_clock_sec"):
                expected = value if isinstance(value, (bool, str)) else ratio(key, algorithm, s) * value
                assert scaled.summary[key] == expected, (k, key)
        assert verify_run(str(out)) == []
