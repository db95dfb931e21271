"""Print a sha256 digest of every file that a fixed set of runs writes, so
that two versions of coco_lab can be checked for byte identity:

    python tools/identity.py --src path/to/old/src > old.txt
    python tools/identity.py --src src > new.txt
    diff old.txt new.txt

The runs are every scenario × algorithm at (horizon, seed) = (300, 3) and
(2000, 7), and adagrad × tracking-ball with path estimates 0.5 and 3.0 at
(400, 5), each writing ``plotdata.csv`` too. Every run directory must
verify clean (``verify_run``); the tool exits 1 otherwise. A digest line
is ``<sha256>  <run>/<file>``, and ``summary.json`` is hashed without
``wall_clock_sec``, the one value that changes between reruns. The runs
are written under a temporary directory, which is removed at the end.

In 1-d, coco1 reads only the sign of the offset to a feasible region's
projection, so the run files cannot show a change to a 1-d closed form's
values. So the tool also prints one line ``<sha256>  regions/<scenario>``
per built-in scenario: the digest of the ``repr`` of a fixed grid of
points projected onto the feasible region of each of its first rounds.

numpy's CPU dispatch (its SIMD loops for exp, log and the like) can change
the last bit of a result, so compare only outputs made on one machine.
``--max-horizon`` caps every horizon, for a quick run of the tool itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile


def runs(max_horizon: int):
    """``(name, config)`` of every run, a config as ``config.json`` holds it."""
    from coco_lab.harness import ALGORITHMS
    from coco_lab.scenarios import SCENARIOS

    def config(name, algorithm, horizon, seed, **extra):
        return {"scenario": {"name": name, "horizon": min(horizon, max_horizon), "seed": seed},
                "algorithm": algorithm, "emit_plotdata": True, **extra}

    for horizon, seed in ((300, 3), (2000, 7)):
        for name in sorted(SCENARIOS):
            for algorithm in ALGORITHMS:
                yield f"{algorithm}-{name}-s{seed}", config(name, algorithm, horizon, seed)
    for estimate in (0.5, 3.0):
        yield f"adagrad-tracking-ball-P{estimate}-s5", config(
            "tracking-ball", "adagrad", 400, 5, path_estimate=estimate)


def regions(max_horizon: int):
    """``(scenario, text)`` of every built-in scenario at (300, 3): a line
    per projection of each grid point onto each of the first 16 rounds'
    feasible regions. The grid has 9 points per axis, from -1.5 to 1.5
    diameters, so it lies inside and outside each region."""
    import numpy as np
    from coco_lab.scenarios import SCENARIOS, ScenarioSpec, build_scenario

    for name in sorted(SCENARIOS):
        scenario = build_scenario(ScenarioSpec(name, horizon=min(300, max_horizon), seed=3))
        axis = np.linspace(-1.5, 1.5, 9) * scenario.decision_set.diameter
        grid = np.stack(np.meshgrid(*[axis] * scenario.dimension), axis=-1)
        points = grid.reshape(-1, scenario.dimension)
        yield name, "\n".join(
            repr(scenario.generate(t)[1].feasible_region.project(point).tolist())
            for t in range(1, min(16, scenario.horizon) + 1) for point in points)


def digest(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) == "summary.json":
        summary = json.loads(data)
        del summary["wall_clock_sec"]
        data = json.dumps(summary, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="the directory that holds the coco_lab package to run")
    parser.add_argument("--max-horizon", type=int, default=2000,
                        help="cap every run's horizon (default 2000: no cap)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import coco_lab
    from coco_lab.harness import RunConfig, run, verify_run

    if os.path.dirname(os.path.abspath(coco_lab.__file__)) != os.path.join(src, "coco_lab"):
        print(f"coco_lab was imported from {coco_lab.__file__}, not from {src}", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="coco-identity-") as root:
        for name, raw in runs(args.max_horizon):
            out = os.path.join(root, name)
            run(RunConfig.from_json(raw, out_dir=out))
            for problem in verify_run(out):
                print(f"{name}: VERIFY FAIL: {problem}", file=sys.stderr)
                failed = True
            for file in sorted(os.listdir(out)):
                print(f"{digest(os.path.join(out, file))}  {name}/{file}")
    for name, text in regions(args.max_horizon):
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  regions/{name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
