"""Constrained online convex optimization lab.

A library and CLI harness for online convex optimization under adversarial
time-varying constraints: adaptive gradient-descent and experts
subroutines, two violation-aware meta-algorithms built on surrogate costs,
brute-force oracles for ground truth at desk scale, seeded scenario
generators, and a reproducible benchmark harness that checks every
closed-form regret and violation budget on real runs.
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
    ud_regret,
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
    adagrad_bound_rhs,
    adagrad_step,
    adahedge_step,
    ahag_bound_rhs,
    ahag_round,
    ahag_step,
    num_experts,
)
from .coco import (
    Coco1State,
    Coco2State,
    auxiliary_value,
    coco1_bound_rhs,
    coco1_round,
    coco1_surrogate_subgradient,
    coco2_bound_rhs,
    coco2_default_v,
    coco2_round,
    coco2_surrogate_subgradient,
)
from .oracles import GridSpec, constrained_minimizer_path, grid_argmin, min_feasible_path
from .scenarios import ScenarioSpec, build_scenario, make_scenario
from .harness import RunConfig, run, sweep, sweep_slope, verify_run

__version__ = "0.1.0"
