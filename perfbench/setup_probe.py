"""Time one workload's set-up in this (fresh) interpreter.

Set-up is ``import coco_lab`` (plus ``coco_lab.cli`` for the CLI workload),
``build_scenario``, ``comparators()`` and the learner state's creation, at
the workload's largest horizon. Prints the seconds it took.

    python3 perfbench/setup_probe.py --workload coco2-static --seed 0
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, create_state, scenario_spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if "coco_lab" in sys.modules:
        raise RuntimeError("coco_lab was imported before the set-up clock started")

    t0 = time.perf_counter()
    import coco_lab

    if workload.cli:
        import coco_lab.cli  # noqa: F401
    scenario = coco_lab.build_scenario(
        scenario_spec(workload, args.seed, workload.horizons[-1]))
    scenario.comparators()
    create_state(workload, scenario)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
