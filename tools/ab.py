"""Time two versions of coco_lab against each other, pair by pair, as a
ratio with a confidence interval:

    python tools/ab.py --a path/to/old/src --b src
    python tools/ab.py --a old/src --b src --pairs coco1:tracking-ball coco2:static

Two worker processes are started with ``spawn``, one per version, and each
imports the coco_lab package of its own ``src``. For each algorithm ×
scenario pair (``--pairs``, all of them by default) both workers first
make one warm-up ``run`` at (horizon, seed) = (200, 0). Then they take
turns: a sample is one timed ``run``, and each of ``--samples`` pairs of
samples has one of A and one of B, the two in random order. The workers
never run at once, so they do not compete for a CPU.

Each pair prints two lines. ``B/A`` is the median of the per-pair ratios
B/A, with a bootstrap 95% CI of that median. ``A/A`` is the same statistic
over the ratios of A's own samples taken two by two (the second over the
first), from the same session. It has half as many ratios as ``B/A``, and
it shows the noise within one process only, not an offset between two
processes. Running a src against itself (``--a src --b src``) shows that
offset; at 400 pairs of samples it read up to 2% (adagrad × oco-mix, B/A
1.0198 [1.0111, 1.0304]), so a B/A within about 2% of 1 is not resolved
by this tool. ``A us/run`` is the median of A's samples.

The random order and the bootstrap are seeded, so a rerun makes the same
choices; the timings are the machine's. A worker that dies (its
``coco_lab`` fails to import, or a ``run`` raises) prints its traceback,
and the tool then exits with status 1.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import statistics
import sys
import time

HORIZON = 200
RESAMPLES = 2000
SEED = 0


def worker(src: str, conn) -> None:
    """Serve timing requests with the coco_lab package in ``src``: first
    send the ``(algorithm, scenario)`` pairs it knows, then answer each
    ``(algorithm, scenario, horizon, seed)`` with the seconds one ``run`` of
    it took, after a warm-up run the first time; ``None`` ends it."""
    sys.path.insert(0, src)
    import coco_lab
    from coco_lab.harness import ALGORITHMS, RunConfig, run
    from coco_lab.scenarios import SCENARIOS, ScenarioSpec

    if os.path.dirname(os.path.abspath(coco_lab.__file__)) != os.path.join(src, "coco_lab"):
        conn.send(f"coco_lab was imported from {coco_lab.__file__}, not from {src}")
        return
    conn.send([(algorithm, name) for algorithm in ALGORITHMS for name in sorted(SCENARIOS)])
    configs = {}
    while (request := conn.recv()) is not None:
        if request not in configs:
            algorithm, name, horizon, seed = request
            configs[request] = RunConfig(ScenarioSpec(name, horizon=horizon, seed=seed), algorithm)
            run(configs[request])
        start = time.perf_counter()
        run(configs[request])
        conn.send(time.perf_counter() - start)


def median_ci(values: list, rng: random.Random) -> tuple:
    """The median of ``values`` and a bootstrap 95% CI of it."""
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(RESAMPLES))
    return (statistics.median(values), medians[round(0.025 * (RESAMPLES - 1))],
            medians[round(0.975 * (RESAMPLES - 1))])


def session(a: str, b: str, pairs, samples: int, horizon: int = HORIZON) -> int:
    """Time every pair with A's and B's workers and print its lines."""
    spawn = multiprocessing.get_context("spawn")
    workers = []
    try:
        for src in (a, b):
            conn, child = spawn.Pipe()
            process = spawn.Process(target=worker, args=(src, child), daemon=True)
            process.start()
            # the parent keeps no copy of the worker's end, so a dead worker
            # reads as EOFError here and not as a recv that never returns
            child.close()
            workers.append((process, conn))
        replies = [conn.recv() for _, conn in workers]
        for reply in replies:
            if isinstance(reply, str):
                sys.exit(reply)
        known = set(replies[0]) & set(replies[1])
        pairs = sorted(known) if pairs is None else pairs
        if unknown := [p for p in pairs if p not in known]:
            sys.exit(f"pairs not in both versions: {unknown}")
        rng = random.Random(SEED)
        print(f"# A = {a}\n# B = {b}\n# (T, seed) = ({horizon}, {SEED}), "
              f"{samples} pairs of samples each, bootstrap 95% CIs")
        for algorithm, name in pairs:
            times = ([], [])
            for _ in range(samples):
                for i in rng.sample((0, 1), 2):
                    workers[i][1].send((algorithm, name, horizon, SEED))
                    times[i].append(workers[i][1].recv())
            a_times, b_times = times
            label = f"{algorithm:8} {name:21}"
            print("{} B/A {:.4f} [{:.4f}, {:.4f}]".format(
                label, *median_ci([y / x for x, y in zip(a_times, b_times)], rng)))
            print("{} A/A {:.4f} [{:.4f}, {:.4f}]  A us/run {:.1f}".format(
                label, *median_ci([y / x for x, y in zip(a_times[::2], a_times[1::2])], rng),
                1e6 * statistics.median(a_times)))
            sys.stdout.flush()
    except EOFError:
        sys.exit("a worker ended before it answered (its traceback is above)")
    finally:
        for process, conn in workers:
            try:
                conn.send(None)
            except OSError:  # the worker has already ended
                pass
            process.join()
    return 0


def parse_pair(text: str) -> tuple:
    algorithm, sep, name = text.partition(":")
    if not (sep and algorithm and name):
        raise argparse.ArgumentTypeError(f"{text!r} is not ALGORITHM:SCENARIO")
    return algorithm, name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="the src that holds version A's coco_lab")
    parser.add_argument("--b", required=True, help="the src that holds version B's coco_lab")
    parser.add_argument("--pairs", nargs="+", type=parse_pair, metavar="ALGORITHM:SCENARIO",
                        help="the pairs to time (default: every pair both versions know)")
    parser.add_argument("--samples", type=int, default=100,
                        help="pairs of samples per pair, at least 2 (default 100)")
    args = parser.parse_args(argv)
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    return session(os.path.abspath(args.a), os.path.abspath(args.b), args.pairs,
                   args.samples)


if __name__ == "__main__":
    sys.exit(main())
