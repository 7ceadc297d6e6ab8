"""Reference kernel: how fast the machine is right now at this kind of work.

On a shared host, neighbouring load can change the speed of the same
computation by up to half over a few minutes, for longer than one run
lasts.  So each run also times a fixed kernel of the benchmark's own before
every call and after every pass, and scales its times by
``NOMINAL_S / median kernel time``: the times the calls would have taken on
a machine where the kernel takes ``NOMINAL_S`` seconds.  The program cannot
change the kernel's time; a program that gets faster gives shorter scaled
times, and a machine that gets slower leaves them as they were.

The kernel does what the program spends most of its time on, at a fixed
size and seed: it draws theta-biased signs for 100 pairs x 10000 draws and
forms the two signed sums with a matrix product, as a Monte Carlo reference
distribution does, so that the neighbours' load slows both alike.  Run it
in a process with one BLAS thread, as the timed calls are.
"""

from __future__ import annotations

import time

import numpy as np

# kernel seconds, rounded, on a 2-vCPU Intel Xeon VM (2 MB L2, 105 MB L3); any
# fixed value would do, as every run and commit is scaled by the same one
NOMINAL_S = 0.35


def _monte_carlo(rng: np.random.Generator) -> float:
    m = rng.normal(size=100)
    cols = np.column_stack([m, m * m])
    total = 0.0
    for _ in range(25):
        u = rng.random((10_000, 100), dtype=np.float32)
        total += float((np.where(u < 0.6, 1.0, -1.0) @ cols)[0, 0])
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    rng = np.random.default_rng(20160907)
    start = time.perf_counter()
    _monte_carlo(rng)
    return time.perf_counter() - start
