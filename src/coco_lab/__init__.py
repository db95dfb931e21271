"""Constrained online convex optimization lab.

A library and CLI harness for online convex optimization under adversarial
time-varying constraints: adaptive gradient-descent and experts
subroutines, two violation-aware meta-algorithms built on surrogate costs,
seeded scenario generators, and a reproducible benchmark harness that
checks every closed-form regret and violation budget on real runs.
"""

from .core import (
    ComparatorSequence,
    ConstraintOracle,
    CostOracle,
    DecisionSet,
    RunRecord,
    ccv_update,
    g_plus,
    path_length,
)
from .geometry import (
    Ball,
    Box,
    GeometricSet,
    Halfspace,
    Intersection,
    ProjectionError,
    dist,
    dist_subgradient,
    membership,
    project,
)
from .subroutines import (
    AdaGradState,
    AhagState,
    HedgeState,
    adagrad_step,
    adahedge_step,
    ahag_round,
    ahag_step,
    num_experts,
)
from .coco import (
    Coco1State,
    Coco2State,
    coco1_round,
    coco1_surrogate_subgradient,
    coco2_default_v,
    coco2_round,
    coco2_surrogate_subgradient,
)
from .scenarios import ScenarioSpec, build_scenario, make_scenario
from .harness import RunConfig, run, sweep, verify_run

__version__ = "0.1.0"
