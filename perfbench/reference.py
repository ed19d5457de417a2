"""Host-speed reference: a fixed kernel timed next to every timed interval.

The measuring host is a shared VM whose speed drifts by tens of percent
over minutes, far longer than one run, so medians within a run cannot
remove it.  The drift moves this kernel and the hilbfs items alike (it
behaves like a change of CPU clock), so every time the benchmark reports
is scaled by ``NOMINAL_S / r``.  Here r is the kernel's time measured
right before and right after the interval, averaged.  Reported times are
therefore seconds at the host speed at which the kernel takes
``NOMINAL_S``.

The kernel is frozen benchmark code that never calls hilbfs, so a change
to the program moves the item times and never the reference.  It mixes
the two kinds of work the items do: a pure-Python loop, like the
interpreter-bound Cholesky and continuation steps, and a dense LU solve,
like the BLAS/LAPACK calls.  A memory-streaming part was left out: on the
measuring box it did not follow the drift.
"""

import time

import numpy as np

NOMINAL_S = 0.02  # a typical reading of measure() on the measuring box
LOOP = 100_000
SOLVES = 6

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((300, 300)) + 300.0 * np.eye(300)
_B = _rng.standard_normal(300)


def kernel():
    s = 0.0
    for i in range(LOOP):
        s += i * 0.5
    for _ in range(SOLVES):
        np.linalg.solve(_A, _B)
    return s


def measure():
    """Seconds the kernel takes now, with its data in cache.

    One untimed call first reloads the caches the item before it evicted,
    so the reading does not depend on how much memory the program touched.
    The faster of two timed calls then drops a one-off preemption.
    """
    kernel()
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


def scale(seconds, ref_before, ref_after):
    """``seconds`` at the nominal host speed, given the kernel times around it."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))


kernel()  # warm-up: the first LAPACK call pays one-time costs
