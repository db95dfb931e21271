"""Print the function calls per round of every algorithm × scenario pair, so
that two versions of coco_lab can be compared by the work a round does:

    python tools/calls.py --src path/to/old/src > old.txt
    python tools/calls.py --src src > new.txt
    diff old.txt new.txt

A pair's count is the Python calls plus the C calls that ``sys.setprofile``
sees over one ``run`` of it at (horizon, seed) = (2000, 0), divided by the
horizon; the run comes after a warm-up run of the same pair, so that no
import or first-call cache is counted. Unlike a timing, the count is exact
and repeats to the last digit. A line is ``<pair> <total> (<Python> + <C>)``.
``--horizon`` sets another horizon, for a quick run of the tool itself.
"""

from __future__ import annotations

import argparse
import os
import sys


def count_calls(fn, *args) -> tuple:
    """The Python calls and the C calls that ``fn(*args)`` makes, the call
    of ``fn`` and of ``sys.setprofile(None)`` included."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="the directory that holds the coco_lab package to run")
    parser.add_argument("--horizon", type=int, default=2000)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import coco_lab
    from coco_lab.harness import ALGORITHMS, RunConfig, run
    from coco_lab.scenarios import SCENARIOS, ScenarioSpec

    if os.path.dirname(os.path.abspath(coco_lab.__file__)) != os.path.join(src, "coco_lab"):
        print(f"coco_lab was imported from {coco_lab.__file__}, not from {src}", file=sys.stderr)
        return 2
    for algorithm in ALGORITHMS:
        for name in sorted(SCENARIOS):
            config = RunConfig(ScenarioSpec(name, horizon=args.horizon, seed=0), algorithm)
            run(config)
            python, c = count_calls(run, config)
            per_round = [n / args.horizon for n in (python + c, python, c)]
            print("{:8} {:21} {:.6g} ({:.6g} + {:.6g})".format(algorithm, name, *per_round))
    return 0


if __name__ == "__main__":
    sys.exit(main())
