"""Isolated layer pass: each public call ROADMAP item 1 lists, timed alone.

Every entry calls one public function ``SAMPLES`` times on inputs drawn from
the run's seed and reports the median and 99th percentile in microseconds
with the sample count (2000 samples leave 20 beyond the p99).
"""

from __future__ import annotations

import statistics
import time

SAMPLES = 2000


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil(n q / 100)
    return sorted_values[int(rank) - 1]


def summarize_us(durations_s) -> dict:
    values = sorted(d * 1e6 for d in durations_s)
    return {"us_p50": statistics.median(values) if values else 0.0,
            "us_p99": percentile(values, 99), "n": len(values)}


def _time_each(fn, args_list) -> list:
    clock = time.perf_counter
    out = []
    for args in args_list:
        t0 = clock()
        fn(*args)
        out.append(clock() - t0)
    return out


def _points(rng, n, dim, scale):
    return [(p,) for p in rng.uniform(-scale, scale, size=(n, dim))]


def layer_pass(seed: int, samples: int = SAMPLES) -> dict:
    """name -> {us_p50, us_p99, n} for every isolated call."""
    import numpy as np

    from coco_lab import (Ball, Box, Coco1State, Coco2State, Halfspace, HedgeState,
                          Intersection, AdaGradState, AhagState, adagrad_step,
                          adahedge_step, ahag_round, coco1_round, coco2_round,
                          make_scenario)
    from coco_lab.scenarios import SCENARIOS

    rng = np.random.default_rng(seed)
    out = {}
    # Primitives and intersections as the scenarios build them: tracking-ball
    # (2-d ball-ball), static (1-d box-halfspace), disjoint-alternating
    # (1-d box-ball). Points are drawn around the sets, mostly outside.
    ball2 = Ball(np.zeros(2), 3.0)
    sets = {
        "box_project": (Box([-3.0, -3.0], [3.0, 3.0]), 2, 5.0),
        "ball_project": (ball2, 2, 5.0),
        "halfspace_project": (Halfspace([1.0, 1.0], 1.0), 2, 5.0),
        "intersection_project_ball_ball": (
            Intersection((ball2, Ball([1.5, 0.0], 1.0))), 2, 4.0),
        "intersection_project_box_halfspace": (
            Intersection((Box([-3.0], [3.0]), Halfspace([1.0], 1.0))), 1, 4.0),
        "intersection_project_box_ball_1d": (
            Intersection((Box([0.0], [3.0]), Ball([0.5], 0.5))), 1, 4.0),
    }
    for name, (s, dim, scale) in sets.items():
        out[name] = summarize_us(_time_each(s.project, _points(rng, samples, dim, scale)))

    tb = make_scenario("tracking-ball", 5000, seed=seed)
    oracles = [tb.generate(t) for t in range(1, samples + 1)]
    ds = tb.decision_set
    grads = _points(rng, samples, 2, 1.0)
    ada = AdaGradState(decision_set=ds)
    out["adagrad_step"] = summarize_us(
        _time_each(lambda g: adagrad_step(ada, g), grads))
    hedge = HedgeState.uniform(9)
    losses = [(v,) for v in rng.uniform(-1.0, 1.0, size=(samples, 9))]
    out["adahedge_step_9"] = summarize_us(
        _time_each(lambda v: adahedge_step(hedge, v), losses))
    ahag = AhagState.create(ds, tb.horizon)
    out["ahag_round"] = summarize_us(
        _time_each(lambda c: ahag_round(ahag, c), [(c,) for c, _ in oracles]))
    c1 = Coco1State.create(ds, tb.horizon, tb.g_lip)
    out["coco1_round"] = summarize_us(
        _time_each(lambda c, g: coco1_round(c1, c, g), oracles))
    st = make_scenario("static", 5000, seed=seed)
    c2 = Coco2State.create(st.decision_set, st.horizon, st.g_lip)
    st_oracles = [st.generate(t) for t in range(1, samples + 1)]
    out["coco2_round"] = summarize_us(
        _time_each(lambda c, g: coco2_round(c2, c, g), st_oracles))

    for name in sorted(SCENARIOS):
        sc = make_scenario(name, samples, seed=seed)
        out[f"generate.{name}"] = summarize_us(
            _time_each(sc.generate, [(t,) for t in range(1, samples + 1)]))
    return out
