"""The host's speed at a moment, and job times scaled to a fixed speed.

The sandbox's CPUs change speed by up to about 1.8x, in stretches from
under a second to several minutes, with no steal time: CPU time grows with
wall time.  A run of 30 s can fall wholly in a slow stretch, so raw wall
times of the same code spread by 10-30% between runs.  ``probe`` times a
fixed loop of scalar Python and 2x2 numpy work (the package's own work is
interpreted Python over small numpy arrays) right before and right after
every timed job, on the job's CPU, and ``scaled`` turns the job's wall
time into seconds at the speed where the loop takes ``PROBE_REF_S``.  The
loop is not program code, so a change to the program moves a scaled time
as it moves the wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A probe is the best of PROBE_REPEATS runs of a short loop: one run of
# about 0.5 ms is often stretched by an interrupt, the best of five reads
# the same to within about 6% when taken twice in a row.
PROBE_REPEATS = 5
SCALAR_STEPS = 5_000
MATRIX_STEPS = 30
# about the probe's time on the reference host at full speed, so scaled
# times read close to wall times there
PROBE_REF_S = 0.44e-3

_M = np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)


def probe() -> float:
    """Seconds of a fixed loop of scalar Python and 2x2 complex numpy
    work, the two kinds of work the package does, best of PROBE_REPEATS."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SCALAR_STEPS):
            acc += i % 7
        a = np.eye(2, dtype=complex)
        for _ in range(MATRIX_STEPS):
            a = a @ _M
            a = a / abs(np.linalg.det(a))
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference speed, given probes taken around them."""
    return seconds * PROBE_REF_S / statistics.median(probes)
