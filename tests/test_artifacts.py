"""The column-wise artifact writers and the loader against per-row references.

``reference_rounds_csv_text`` and ``reference_plotdata_csv_text`` are the
writers as they were before they became column-wise: one row, one
formatted line, and the running costs and path length added up in a
Python loop. They read the record one round at a time (``_rows``). The
shipped writers must give the same text, byte for byte, and so must the
files ``persist`` writes block by block.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coco_lab import budgets
from coco_lab.core import RunRecord
from coco_lab.harness import (
    ALGORITHMS,
    ORACLE_BLOCK,
    RunConfig,
    _budget,
    load_run,
    persist,
    plotdata_csv_text,
    rounds_csv_text,
    run,
)
from coco_lab.scenarios import SCENARIOS, ScenarioSpec


def _fmt(v):
    return repr(float(v))


def _rows(record):
    """Each recorded round as ``(t, x, f, g, gplus, Q, grad_norm)``, the
    values as Python floats."""
    columns = (record.f, record.g, record.gplus, record.Q, record.grad_norm)
    return [(t, record.x[t - 1], *(float(c[t - 1]) for c in columns))
            for t in range(1, record.horizon + 1)]


def reference_rounds_csv_text(record):
    d = record.dimension
    header = "t," + ",".join(f"x_{i}" for i in range(d)) + ",f,g,gplus,Q,grad_norm_surrogate"
    lines = [header]
    for t, x, f, g, gplus, q, grad_norm in _rows(record):
        coords = ",".join(_fmt(c) for c in x)
        lines.append(f"{t},{coords},{_fmt(f)},{_fmt(g)},{_fmt(gplus)},"
                     f"{_fmt(q)},{_fmt(grad_norm)}")
    return "\n".join(lines) + "\n"


def reference_plotdata_csv_text(record):
    lines = ["series,t,value"]
    rows = _rows(record)
    for t, _, _, _, _, q, _ in rows:
        lines.append(f"ccv,{t},{_fmt(q)}")
    grad_sq_prefix = np.cumsum([grad_norm ** 2 for *_, grad_norm in rows])
    for name, comp in record.comparators.items():
        costs = record.comparator_costs[name]
        sum_cost = sum_comparator_cost = 0.0
        path_prefix = 0.0
        for i, (t, _, f, *_) in enumerate(rows):
            sum_cost += f
            sum_comparator_cost += costs[i]
            if i > 0:
                path_prefix += float(np.linalg.norm(comp.points[i] - comp.points[i - 1]))
            lines.append(f"regret__{name},{t},{_fmt(sum_cost - sum_comparator_cost)}")
            if f"bound_rhs__{name}" in record.summary:
                rhs = _budget(record.summary, path_prefix, t, float(grad_sq_prefix[i]))
                lines.append(f"bound_rhs__{name},{t},{_fmt(rhs)}")
    return "\n".join(lines) + "\n"


def assert_same_text(record):
    assert rounds_csv_text(record) == reference_rounds_csv_text(record)
    assert plotdata_csv_text(record) == reference_plotdata_csv_text(record)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("horizon", [1, 60])
def test_writers_match_per_row_reference(algorithm, scenario, horizon):
    assert_same_text(run(RunConfig(ScenarioSpec(scenario, horizon, seed=3), algorithm)))


@pytest.mark.parametrize("scenario", ["oco-mix", "tracking-ball"])
def test_writers_match_reference_without_some_budgets(scenario):
    # known-path descent budgets only the comparators whose path fits the
    # estimate, so some regret series have no bound_rhs series beside them
    record = run(RunConfig(ScenarioSpec(scenario, 80, seed=5), "adagrad", path_estimate=0.5))
    assert any(k.startswith("regret__") and f"bound_rhs__{k[8:]}" not in record.summary
               for k in record.summary)
    assert_same_text(record)


def test_writers_match_reference_on_a_record_with_no_rows():
    record = RunRecord(dimension=2)
    assert_same_text(record)
    assert rounds_csv_text(record) == "t,x_0,x_1,f,g,gplus,Q,grad_norm_surrogate\n"
    assert plotdata_csv_text(record) == "series,t,value\n"


@pytest.mark.parametrize("horizon", [ORACLE_BLOCK - 1, ORACLE_BLOCK, ORACLE_BLOCK + 1,
                                     2 * ORACLE_BLOCK + 1])
@pytest.mark.parametrize("scenario,algorithm,extra", [
    ("oco-mix", "adagrad", {"path_estimate": 0.5}),  # a regret series with no bound_rhs
    ("tracking-ball", "coco1", {}),
    ("oco-mix", "coco1", {}),
    ("tracking-ball", "coco2", {}),
    ("oco-mix", "coco2", {}),
])
def test_persisted_files_match_reference_at_block_edges(tmp_path, scenario, algorithm, extra,
                                                         horizon):
    out = tmp_path / "run"
    record = run(RunConfig(ScenarioSpec(scenario, horizon, seed=4), algorithm, out_dir=str(out),
                           emit_plotdata=True, **extra))
    if extra:
        assert any(k.startswith("regret__") and f"bound_rhs__{k[8:]}" not in record.summary
                   for k in record.summary)
    assert (out / "rounds.csv").read_text() == reference_rounds_csv_text(record)
    assert (out / "plotdata.csv").read_text() == reference_plotdata_csv_text(record)


def _persist_peak(tmp_path, horizon):
    config = RunConfig(ScenarioSpec("oco-mix", horizon, seed=0), "adagrad", emit_plotdata=True)
    record = run(config)
    tracemalloc.start()
    try:
        persist(record, config, str(tmp_path / f"T{horizon}"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_persist_memory_does_not_grow_with_the_horizon(tmp_path):
    # the CSVs are formatted and written one block of rows at a time: the
    # peak at ten times the horizon stays that of the shorter run
    short, long = (_persist_peak(tmp_path, T) for T in (2000, 20000))
    assert long <= 1.25 * short, (short, long)


@pytest.mark.parametrize("horizon", [1, 40])
@pytest.mark.parametrize("scenario", ["static", "tracking-ball"])
def test_load_run_columns_match_genfromtxt(tmp_path, scenario, horizon):
    out = str(tmp_path / "run")
    run(RunConfig(ScenarioSpec(scenario, horizon, seed=2), "coco1", out_dir=out))
    _, _, columns = load_run(out)
    reference = np.atleast_1d(np.genfromtxt(os.path.join(out, "rounds.csv"), delimiter=",",
                                            names=True, dtype=float))
    assert list(columns) == list(reference.dtype.names)
    for name in reference.dtype.names:
        assert columns[name].shape == (horizon,)
        assert np.array_equal(columns[name], reference[name]), name


NONNEGATIVE = st.floats(0.0, 1e12, allow_subnormal=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_budgets_on_arrays_are_each_entry_bitwise(data):
    n = data.draw(st.integers(1, 20))
    path = np.array(data.draw(st.lists(NONNEGATIVE, min_size=n, max_size=n)))
    grad_sq = np.array(data.draw(st.lists(NONNEGATIVE, min_size=n, max_size=n)))
    t = np.array(data.draw(st.lists(st.integers(1, 10 ** 6), min_size=n, max_size=n)))
    diameter = data.draw(st.floats(1e-3, 1e3))
    estimate, v, gamma = (data.draw(st.floats(1e-3, 1e3)) for _ in range(3))
    experts = budgets.num_experts(diameter, int(t.max()))
    formulas = [
        lambda p, s, k: budgets.adagrad_known_path_rhs(diameter, estimate, s),
        lambda p, s, k: budgets.adagrad_path_free_rhs(diameter, p, s),
        lambda p, s, k: budgets.ensemble_rhs(diameter, experts, p, s),
        lambda p, s, k: budgets.coco2_regret_rhs(gamma, v, p, k),
        lambda p, s, k: budgets.coco2_ccv_rhs(gamma, v, 1.0, diameter, p, k),
    ]
    for formula in formulas:
        each = [formula(p, s, k) for p, s, k in zip(path.tolist(), grad_sq.tolist(), t.tolist())]
        assert all(type(value) is float for value in each)
        array = formula(path, grad_sq, t)
        assert np.array_equal(array.view(np.uint64), np.array(each).view(np.uint64))
