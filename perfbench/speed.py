"""A fixed reference kernel that gauges how fast the machine runs right now.

The machine is shared, and its speed drifts by a third over minutes, for
every task alike.  ``run.py`` times the kernel right before every timed task
and every set-up run, and scales each time to ``REFERENCE_S``: a time of
``t`` seconds measured while the kernel took ``k`` seconds is reported as
``t * REFERENCE_S / k``, the time it would take at the speed where the kernel
takes ``REFERENCE_S``.  That speed is about that of a quiet 2-core VM.

The kernel does complex polynomial arithmetic with scattered writes into a
boolean grid, like ``analytic.evaluate`` feeding the rasterizer, in two
parts, and its time is the geometric mean of theirs: one on data that fit in
the core's cache, and one on arrays several times that size, which stream
through the cache the machine shares.  On 16 passes of ``curves`` and 25 of
``area``, per-task scaling by this kernel halved the spread of the times;
adding a scalar interpreter loop as a third part did not narrow it further.

It touches nothing of the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.008

_SMALL = 0.9 * np.exp(2j * np.pi * np.arange(16384) / 16384)
_SMALL_GRID = np.zeros((256, 256), dtype=bool)
_LARGE = 0.9 * np.exp(2j * np.pi * np.arange(1 << 18) / (1 << 18))
_LARGE_GRID = np.zeros((1024, 1024), dtype=bool)


def _mark(z, grid, repeats):
    scale = (grid.shape[0] - 1) / 3.0
    for _ in range(repeats):
        w = z * (1.0 + z * (0.3 + 0.1 * z))
        ix = ((w.real + 1.5) * scale).astype(np.intp)
        iy = ((w.imag + 1.5) * scale).astype(np.intp)
        grid[iy, ix] = True
        np.abs(np.diff(w)).sum()


PARTS = (
    lambda: _mark(_SMALL, _SMALL_GRID, 24),
    lambda: _mark(_LARGE, _LARGE_GRID, 1),
)


def reference_seconds() -> float:
    """Time of the kernel: the geometric mean of its parts' wall times."""
    log_sum = 0.0
    for part in PARTS:
        start = time.perf_counter()
        part()
        log_sum += math.log(time.perf_counter() - start)
    return math.exp(log_sum / len(PARTS))
