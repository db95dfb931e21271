import json
import math
import os
import subprocess
import sys

import pytest

import coco_lab
from coco_lab.cli import main
from coco_lab.harness import (
    ALGORITHMS,
    VERIFY_REL_TOL,
    ConfigError,
    RunConfig,
    loglog_slope,
    run,
    sweep,
    sweep_slope,
    verify_run,
)
from coco_lab.scenarios import SCENARIOS, ScenarioSpec


def cfg(name="static", T=50, seed=0, algorithm="coco2", **kw):
    return RunConfig(scenario=ScenarioSpec(name, horizon=T, seed=seed),
                     algorithm=algorithm, **kw)


def test_trivial_scenario_everything_inert():
    rec = run(cfg("trivial", T=40, algorithm="coco1"))
    s = rec.summary
    assert s["final_ccv"] == 0.0
    assert s["regret__static-center"] == 0.0
    assert s["all_bounds_satisfied"]
    rec = run(cfg("trivial", T=40, algorithm="coco2"))
    assert rec.summary["final_ccv"] == 0.0
    assert rec.summary["all_bounds_satisfied"]


def test_rounds_csv_structure(tmp_path):
    out = str(tmp_path / "r")
    rec = run(cfg("disjoint-alternating", T=37, algorithm="coco2", out_dir=out))
    lines = open(os.path.join(out, "rounds.csv")).read().strip().splitlines()
    assert lines[0] == "t,x_0,f,g,gplus,Q,grad_norm_surrogate"
    assert len(lines) == 38  # header + T rows
    qs = [float(l.split(",")[5]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert qs[-1] == pytest.approx(rec.summary["final_ccv"])


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        run(cfg("tracking-ball", T=60, seed=2, algorithm="coco1", out_dir=out))
    b1 = open(os.path.join(out1, "rounds.csv"), "rb").read()
    b2 = open(os.path.join(out2, "rounds.csv"), "rb").read()
    assert b1 == b2


@pytest.mark.parametrize("algorithm", ["adagrad", "ahag", "coco1", "coco2"])
def test_verify_reproduces_summary(tmp_path, algorithm):
    out = str(tmp_path / algorithm)
    run(cfg("tracking-ball", T=50, seed=3, algorithm=algorithm, out_dir=out))
    assert verify_run(out) == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_verify_catches_scaled_budget(tmp_path, algorithm):
    out = str(tmp_path / algorithm)
    run(cfg("tracking-ball", T=50, seed=3, algorithm=algorithm, out_dir=out))
    path = os.path.join(out, "summary.json")
    summary = json.loads(open(path).read())
    keys = [k for k in summary if k.startswith("bound_rhs__") or k == "ccv_bound_rhs"]
    assert len(keys) == (3 if algorithm.startswith("coco") else 2)
    for key in keys:
        with open(path, "w") as f:
            json.dump({**summary, key: summary[key] * (1.0 + 1e-4)}, f)
        assert verify_run(out) == [f"{key} mismatch"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_plotdata_final_rows_match_summary(tmp_path, algorithm, scenario):
    out = str(tmp_path / "p")
    rec = run(cfg(scenario, T=40, seed=1, algorithm=algorithm, out_dir=out,
                  emit_plotdata=True))
    final = {}
    for line in open(os.path.join(out, "plotdata.csv")).read().splitlines()[1:]:
        series, _, value = line.split(",")
        final[series] = float(value)  # each series is written in round order
    keys = [k for k in rec.summary if k.startswith(("regret__", "bound_rhs__"))]
    assert any(k.startswith("bound_rhs__") for k in keys)
    for key in keys:
        a, b = final[key], rec.summary[key]
        assert abs(a - b) <= VERIFY_REL_TOL * max(1.0, abs(a), abs(b)), key


def test_verify_catches_tampering(tmp_path):
    out = str(tmp_path / "t")
    run(cfg("static", T=30, out_dir=out))
    path = os.path.join(out, "rounds.csv")
    lines = open(path).read().splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)  # corrupt x_0 at one round
    lines[10] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert verify_run(out) != []


def test_unknown_comparator_is_config_error():
    with pytest.raises(ConfigError, match="unknown comparator"):
        run(cfg("static", comparators=["nope"]))


def test_unknown_scenario_is_config_error():
    with pytest.raises(ConfigError):
        run(RunConfig(scenario=ScenarioSpec("bogus", horizon=5), algorithm="coco1"))


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        cfg(algorithm="sgd")


def test_horizons_must_increase():
    with pytest.raises(ConfigError, match="strictly increasing"):
        cfg(horizons=[100, 100, 200])


def test_loglog_slope_calibration():
    ts = [1000, 3000, 10000, 30000]
    assert loglog_slope(ts, [2.0 * t for t in ts]) == pytest.approx(1.0, abs=0.01)
    assert loglog_slope(ts, [5.0 * math.sqrt(t) for t in ts]) == pytest.approx(0.5, abs=0.01)


def test_loglog_slope_degenerate_metric_warns_and_returns_zero():
    with pytest.warns(UserWarning, match="degenerate"):
        assert loglog_slope([10, 100, 1000], [0.5, 0.2, 0.9]) == 0.0


def test_sweep_requires_three_horizons():
    with pytest.raises(ConfigError, match="3 horizons"):
        sweep_slope(cfg(horizons=[10, 20]), "ccv")


def test_sweep_runs_each_horizon_and_respects_thread_cap(tmp_path):
    config = cfg("static", algorithm="coco2", horizons=[20, 40, 80],
                 out_dir=str(tmp_path / "sweep"))
    records = sweep(config)
    assert [r.horizon for r in records] == [20, 40, 80]
    for T in (20, 40, 80):
        assert os.path.exists(tmp_path / "sweep" / f"T{T}" / "rounds.csv")


def test_plotdata_emission(tmp_path):
    out = str(tmp_path / "p")
    run(cfg("static", T=25, algorithm="coco2", out_dir=out, emit_plotdata=True))
    lines = open(os.path.join(out, "plotdata.csv")).read().strip().splitlines()
    assert lines[0] == "series,t,value"
    series = {l.split(",")[0] for l in lines[1:]}
    assert "ccv" in series
    assert any(s.startswith("regret__") for s in series)
    assert any(s.startswith("bound_rhs__") for s in series)


# ---------------------------------------------------------------------------
# CLI

def write_config(tmp_path, **kw):
    payload = {
        "scenario": {"name": "static", "horizon": 40, "seed": 0, "params": {}},
        "algorithm": "coco2",
    }
    payload.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_run_report_verify_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["run", "--config", config, "--out", out]) == 0
    assert main(["report", out]) == 0
    assert main(["report", out, "--verify"]) == 0
    captured = capsys.readouterr()
    assert "verify OK" in captured.out


def test_cli_exit_codes(tmp_path, capsys):
    # 2: configuration error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    config = write_config(tmp_path, algorithm="nope")
    assert main(["run", "--config", config]) == 2
    # 2: missing run dir for report
    assert main(["report", str(tmp_path / "missing")]) == 2
    # 1: bound violation reported in a summary
    rigged = tmp_path / "rigged"
    rigged.mkdir()
    (rigged / "summary.json").write_text(json.dumps({"all_bounds_satisfied": False}))
    assert main(["report", str(rigged)]) == 1
    # 3: verify mismatch after tampering
    config = write_config(tmp_path)
    out = str(tmp_path / "v")
    assert main(["run", "--config", config, "--out", out]) == 0
    summary_path = os.path.join(out, "summary.json")
    s = json.loads(open(summary_path).read())
    s["final_ccv"] = s["final_ccv"] + 123.0
    open(summary_path, "w").write(json.dumps(s))
    assert main(["report", out, "--verify"]) == 3
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    config = write_config(tmp_path, horizons=[20, 40, 80])
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", config, "--out", out, "--metric", "ccv"]) == 0
    payload = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert payload["horizons"] == [20, 40, 80]
    assert "slope" in payload
    capsys.readouterr()


def test_cli_sweep_unknown_comparator_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, horizons=[20, 40, 80])
    out = tmp_path / "sw"
    assert main(["sweep", "--config", config, "--out", str(out), "--metric", "regret",
                 "--comparator", "nope"]) == 2
    assert "unknown comparator" in capsys.readouterr().err
    assert not out.exists()  # rejected before any run started


def test_package_imports_and_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import coco_lab, coco_lab.cli\n"
            "from coco_lab.harness import RunConfig, run\n"
            "from coco_lab.scenarios import ScenarioSpec\n"
            "run(RunConfig(scenario=ScenarioSpec('static', horizon=20), algorithm='coco2'))\n")
    src = os.path.dirname(os.path.dirname(coco_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("static", "tracking-ball", "disjoint-alternating"):
        assert name in out


def test_cli_seed_override(tmp_path):
    config = write_config(tmp_path, scenario={"name": "tracking-ball", "horizon": 30,
                                              "seed": 0, "params": {}})
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["run", "--config", config, "--out", out1, "--seed", "5"]) == 0
    assert main(["run", "--config", config, "--out", out2, "--seed", "6"]) == 0
    b1 = open(os.path.join(out1, "rounds.csv")).read()
    b2 = open(os.path.join(out2, "rounds.csv")).read()
    assert b1 != b2
