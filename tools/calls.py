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

A count is not a cost. ``sys.setprofile`` sees every call of a Python
function and of a C function or method (``len``, ``ndarray.tolist``,
``numpy.asarray``), but never a numpy ufunc or an operator:
``np.maximum(a, lo)``, ``a - b`` and ``a @ b`` count nothing, though each
costs more on a short array than a ``len`` or a ``tolist``. So work moved
from arrays to Python floats can raise a pair's count while its rounds get
faster: adagrad × static reads 19.706 calls per round where its step
clips on arrays and 26.706 where it clips in floats, the faster of the two.

``--against OTHER_SRC`` compares the two versions itself: for each pair
whose count differs it prints ``<pair> <OTHER_SRC's> -> <SRC's>``, and
under it each function whose calls per round differ, with both counts, a
Python function by its module and qualified name, a C function by its
module or type and name. It ends with the number of pairs that differ.
Each version is counted in a process of its own.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import multiprocessing
import os
import sys


def count_calls(fn, *args) -> collections.Counter:
    """The calls that ``fn(*args)`` makes, the call of ``fn`` and of
    ``sys.setprofile(None)`` included, by ``(event, function)``: the event
    is ``"call"`` for a Python function and ``"c_call"`` for a C one."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # co_qualname is new in Python 3.11
            counts[event, f"{frame.f_globals.get('__name__')}."
                          f"{getattr(code, 'co_qualname', code.co_name)}"] += 1
        elif event == "c_call":
            owner = getattr(arg, "__module__", None) or type(getattr(arg, "__self__", None)).__name__
            counts[event, f"{owner}.{arg.__name__}"] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


def pair_counts(src: str, horizon: int) -> dict:
    """``{(algorithm, scenario): Counter}`` of every pair, counted with the
    coco_lab package in ``src``."""
    sys.path.insert(0, src)
    import coco_lab
    from coco_lab.harness import ALGORITHMS, RunConfig, run
    from coco_lab.scenarios import SCENARIOS, ScenarioSpec

    if os.path.dirname(os.path.abspath(coco_lab.__file__)) != os.path.join(src, "coco_lab"):
        sys.exit(f"coco_lab was imported from {coco_lab.__file__}, not from {src}")
    counts = {}
    for algorithm in ALGORITHMS:
        for name in sorted(SCENARIOS):
            config = RunConfig(ScenarioSpec(name, horizon=horizon, seed=0), algorithm)
            run(config)
            counts[algorithm, name] = count_calls(run, config)
    return counts


def _counted_elsewhere(src: str, horizon: int) -> dict:
    """``pair_counts(src, horizon)``, from a new process of its own."""
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
        return pool.submit(pair_counts, src, horizon).result()


def compare(src: str, other: str, horizon: int):
    """Print each pair whose calls per round differ between ``other`` and
    ``src``, and each of its functions whose calls differ."""
    new, old = _counted_elsewhere(src, horizon), _counted_elsewhere(other, horizon)
    differ = 0
    for pair in new:
        a, b = old[pair], new[pair]
        if sum(a.values()) == sum(b.values()):
            continue
        differ += 1
        print("{:8} {:21} {:.6g} -> {:.6g}".format(*pair, sum(a.values()) / horizon,
                                                  sum(b.values()) / horizon))
        for key in sorted(set(a) | set(b), key=lambda k: (k[1], k[0])):
            if a[key] != b[key]:
                print("    {:60} {:.6g} -> {:.6g}".format(key[1], a[key] / horizon,
                                                         b[key] / horizon))
    print(f"{differ} of {len(new)} pairs differ in calls per round")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="the directory that holds the coco_lab package to run")
    parser.add_argument("--horizon", type=int, default=2000)
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="another coco_lab src to compare with, function by function")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.against is not None:
        compare(src, os.path.abspath(args.against), args.horizon)
        return 0
    for (algorithm, name), c in pair_counts(src, args.horizon).items():
        python, c_calls = (sum(n for (event, _), n in c.items() if event == kind)
                           for kind in ("call", "c_call"))
        per_round = [n / args.horizon for n in (python + c_calls, python, c_calls)]
        print("{:8} {:21} {:.6g} ({:.6g} + {:.6g})".format(algorithm, name, *per_round))
    return 0


if __name__ == "__main__":
    sys.exit(main())
