"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

run.import_library()

import coco_lab  # noqa: E402
from coco_lab import cli, coco, harness  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4], which holds D [2, 3], and C [5, 6].
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    a = t.open("A")
    b = t.open("B")
    d = t.open("D")
    assert t.close(d) == 1
    assert t.close(b) == 3
    c = t.open("C")
    assert t.close(c) == 1
    assert t.close(a) == 10
    stats = t.stats()
    assert {k: (v["calls"], v["total_s"], v["self_s"]) for k, v in stats.items()} == {
        "A": (1, 10, 6), "B": (1, 3, 2), "C": (1, 1, 1), "D": (1, 1, 1)}


def test_spans_must_close_in_order():
    t = tr.Tracer(clock=FakeClock([0, 1, 2]))
    a = t.open("A")
    t.open("B")
    with pytest.raises(RuntimeError):
        t.close(a)


def test_counts_only_calls_made_directly_inside_the_parent():
    t = tr.Tracer(clock=FakeClock(range(10)))
    t.count_inside("P")
    p = t.open("P")
    t.count_inside("P")
    t.count_inside("P")
    q = t.open("Q")
    t.count_inside("P")
    t.close(q)
    t.close(p)
    assert t.stats()["P"]["inner"] == 2


def test_install_rebinds_every_copy_and_restore_puts_originals_back():
    originals = {"harness.run": harness.run, "coco_lab.run": coco_lab.run,
                 "cli.run": cli.run, "coco.ahag_round": coco.ahag_round,
                 "Intersection.project": vars(coco_lab.Intersection)["project"]}
    t = tr.Tracer()
    rebound = tr.install(t)
    assert rebound > len(originals)
    assert harness.run is coco_lab.run is cli.run
    assert harness.run is not originals["harness.run"]
    assert coco.ahag_round is not originals["coco.ahag_round"]
    assert tr.leftover_wrappers()
    assert t.restore() == rebound
    assert tr.leftover_wrappers() == []
    assert harness.run is coco_lab.run is cli.run is originals["harness.run"]
    assert coco.ahag_round is originals["coco.ahag_round"]
    assert vars(coco_lab.Intersection)["project"] is originals["Intersection.project"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_inputs_are_a_function_of_the_seed(name):
    workload = wl.WORKLOADS[name]

    def inputs(seed):
        spec = wl.scenario_spec(workload, seed, 50)
        scenario = coco_lab.build_scenario(spec)
        x = scenario.decision_set.geometry.anchor()
        values = [(float(c.value(x)), float(g.value(x)))
                  for c, g in (scenario.generate(t) for t in range(1, 51))]
        comps = {k: v.points.tolist() for k, v in scenario.comparators().items()}
        return values, comps, wl.cli_config(workload, seed)

    assert inputs(4) == inputs(4)
    assert (inputs(4)[:2] != inputs(5)[:2]) == workload.seed_used


def _small(workload):
    return dataclasses.replace(workload, horizons=tuple(h // 40 for h in workload.horizons))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_run_of_every_workload_at_reduced_size(name, tmp_path):
    workload = _small(wl.WORKLOADS[name])
    first = wl.run_unit(workload, 1, str(tmp_path / "a"))
    assert first.failed == 0 and first.problems == []
    assert first.attempted == (1 + len(workload.horizons) if workload.cli else 2)
    assert first.rounds == workload.rounds_per_unit
    assert set(first.digests) == {f"T{h}" for h in workload.horizons}

    t = tr.Tracer(keep_durations=tr.KEEP_DURATIONS, cpu_spans=("harness.sweep",))
    tr.install(t)
    try:
        traced = wl.run_unit(workload, 1, str(tmp_path / "b"), t.recording)
    finally:
        t.restore()
    assert traced.failed == 0
    assert traced.digests == first.digests
    assert tr.leftover_wrappers() == []
    stats = t.stats()
    if workload.cli:
        assert stats["harness.sweep"]["calls"] == 1
        assert stats["harness.run"]["calls"] == len(workload.horizons)
    else:
        assert stats["coco.round"]["calls"] == workload.horizons[0]
        assert "harness.persist" not in stats  # the gate's persist is not traced


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    _, unit_of = run.span_metrics(tr.Tracer(), 1, 0)
    _, iso_units = run.iso_metrics(layers.layer_pass(0, samples=3))
    expected = {**unit_of, **run.TRACING_UNITS, **iso_units, **run.OUTCOME_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected


def test_percentiles_and_result_drift():
    assert layers.percentile([1, 2, 3, 4], 50) == 2
    assert layers.percentile(list(range(1, 101)), 99) == 99
    ref = {"T1": {"a": 2.0, "b": 0.0}}
    assert wl.result_drift({"T1": {"a": 2.0, "b": 0.0, "ok": True}}, ref) == 0.0
    assert wl.result_drift({"T1": {"a": 2.2, "b": 0.0}}, ref) == pytest.approx(0.2 / 2.2)
    assert wl.result_drift({"T1": {"a": 2.0}}, ref) == 1.0


def test_a_failed_correctness_check_gives_a_nonzero_exit(tmp_path, monkeypatch, capsys):
    with open(run.REFERENCE) as f:
        reference = json.load(f)
    entry = reference["coco2-static"]["summaries"]["T1000"]
    entry["final_ccv"] *= 1.01
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", str(bad))
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: [(0.5, 1.0)] * 3)
    code = run.main(["--workload", "coco2-static", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_no_result_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coco2-static", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
