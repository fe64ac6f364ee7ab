"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same op can take 50% longer from
one minute to the next.  A fixed reference kernel, run right before and
after every op, measures the machine's speed at that moment; an op's
reference seconds are its wall seconds scaled by ``REFERENCE_S`` over the
kernel's time around it.  The kernel mixes interpreted Python with numpy
streaming over an array larger than the cache, the two kinds of work the
program does.  No program code runs in it, so a change to the program moves
the reference seconds exactly as it moves the wall seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds that define the reference speed (about this host's speed).
REFERENCE_S = 0.045

_STREAM = np.linspace(0.0, 1.0, 1_000_000)  # 8 MB, kept small for peak RSS


def kernel_seconds() -> float:
    """Median wall seconds of three runs of the reference kernel."""
    return sorted(_kernel_once() for _ in range(3))[1]


def _kernel_once() -> float:
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(120_000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
    for _ in range(24):
        np.multiply(_STREAM, 1.0, out=_STREAM)  # in place, no temporary
        float(_STREAM.sum())
    return time.perf_counter() - start


def reference_seconds(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
