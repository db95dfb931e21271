"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed drifts by 20-40% within
a minute, with every workload slowing and speeding up together. Timing
fixed kernels next to each unit of work measures that drift. The kernels
are frozen, self-contained imitations of the three kinds of work the
program does: small numpy operations in a Python loop (a hedge over nine
projected-gradient experts on 2-d vectors), float formatting into CSV text,
and plain Python arithmetic. Different kinds of contention slow them by
different amounts, so the slowness is the geometric mean of the three
kernels' slowdowns. Timed metrics are scaled to the speed at which each
kernel takes its ``REFERENCE_S``; the raw figures are reported too.

The kernels are the benchmark's own code and share nothing with coco_lab,
so a change to the program cannot move them.
"""

from __future__ import annotations

import math
import statistics
import time

REPEATS = 4


def hedge_kernel(rounds: int = 150) -> float:
    import numpy as np

    n = 9
    angles = np.arange(64) * 0.7
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    scale = 7.0 * 2.0 ** np.arange(n)
    points = np.zeros((n, 2))
    cum = np.zeros(n)
    weights = np.full(n, 1.0 / n)
    grad_sq = 0.0
    for t in range(rounds):
        g = dirs[t % 64] * (1.0 + 0.01 * t)
        loss = points @ g
        grad_sq += float(g @ g)
        for i in range(n):
            p = points[i] - scale[i] / math.sqrt(2.0 * grad_sq) * g
            norm = float(np.linalg.norm(p))
            if norm > 3.0:
                p = p * (3.0 / norm)
            points[i] = p
        cum = cum + loss
        u = np.exp(-(cum - cum.min()))
        weights = u / u.sum()
    return float(weights @ points[:, 0])


def format_kernel(lines: int = 3000) -> int:
    rows = []
    for i in range(lines):
        x = i * 0.001234567
        rows.append(f"{i},{x!r},{x * 3.3!r}")
    return len("\n".join(rows))


def python_kernel(steps: int = 60000) -> int:
    s = 0
    for i in range(steps):
        s += (i * i) % 7
    return s


# kernel -> its time at the reference machine speed (seconds)
REFERENCE_S = {hedge_kernel: 0.006, format_kernel: 0.004, python_kernel: 0.0035}


def kernel_times(repeats: int = REPEATS) -> list:
    """One sample per repeat: each kernel's time divided by its reference."""
    out = []
    for _ in range(repeats):
        for kernel, reference in REFERENCE_S.items():
            t0 = time.perf_counter()
            kernel()
            out.append((kernel.__name__, (time.perf_counter() - t0) / reference))
    return out


def slowness(samples) -> float:
    """How much slower than the reference speed the machine ran (1.0 =
    reference): the geometric mean over kernels of their median slowdown."""
    by_kernel = {}
    for name, ratio in samples:
        by_kernel.setdefault(name, []).append(ratio)
    logs = [math.log(statistics.median(v)) for v in by_kernel.values()]
    return math.exp(sum(logs) / len(logs))
