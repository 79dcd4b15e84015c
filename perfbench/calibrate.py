"""Fixed calibration kernel: a probe of the host's current speed.

The host this benchmark was tuned on flips between speed states: pure
Python arithmetic runs about 1.7x faster in the fast one, the workloads'
items 1.25-1.35x.  The kernel does the same work on every call, in the
mix the workloads spend their time on: Python float arithmetic, creation
of small frozen dataclasses, 17-digit float formatting and small numpy
linear algebra.  The parts react unequally to the host's state (pure
arithmetic most, numpy calls least), and the mix reacts about as much as
the workloads' items do.  An item's time divided by the kernel time
around it cancels most of the host's state; multiplying by NOMINAL_MS
brings it back to milliseconds.  The kernel imports nothing from quasih,
so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

#: Kernel duration taken as the unit of calibrated time: the median
#: kernel time on the reference machine (see README.md).
NOMINAL_MS = 0.9

#: Kernel runs within this many seconds of an item's midpoint set its
#: divisor.  Their mean follows a speed state that lasts seconds; the host
#: also flips state for fractions of a second, which a single run next to
#: an item would take for the state of the whole item.
WINDOW_S = 2.0

#: Back-to-back repetitions per kernel run; the median one is kept, so a
#: single interrupt does not read as a slow host.
REPEATS = 3

_MATRIX = np.array(
    [
        [-3.0, 0.0, 0.3, 0.2],
        [0.0, 1.0, 0.1, 0.3],
        [-0.3, -0.1, -1.0, 0.0],
        [-0.2, -0.3, 0.0, 3.0],
    ]
)


@dataclass(frozen=True)
class _Cell:
    inside: bool
    A: float
    B: float
    margin: float


def _body() -> int:
    cells = []
    for i in range(60):
        x = i * 1e-2
        A = 5.0 - 0.5 * x * x
        B = (3.0 - x * x) ** 2 - (1.0 - 3.0 * x) ** 2
        m = min(A, A * A - B, B)
        cells.append(_Cell(m >= 0.0, A, B, m))
    text = "\n".join(
        f"{format(c.A, '.17g')},{format(c.margin, '.17g')},{int(c.inside)}" for c in cells
    )
    for _ in range(30):
        np.linalg.eigvals(_MATRIX)
    return len(text)


def kernel_ms() -> float:
    """One kernel run: the median of REPEATS timed calls, in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _body()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def factors(
    kernel_log: list[tuple[float, float]], item_spans: list[tuple[float, float]]
) -> list[float]:
    """Calibration factor of each item: NOMINAL_MS over a local kernel time.

    ``kernel_log`` holds (midpoint, ms) of every kernel run in time order,
    with one run before the first item and one after the last;
    ``item_spans`` holds each item's (start, end).  The local kernel time
    is the mean of the runs within WINDOW_S of the item's midpoint, always
    counting the runs just before and just after the item.
    """
    times = [t for t, _ in kernel_log]
    out = []
    for start, end in item_spans:
        mid = 0.5 * (start + end)
        lo = min(bisect_left(times, mid - WINDOW_S), bisect_left(times, start) - 1)
        hi = max(bisect_right(times, mid + WINDOW_S), bisect_right(times, end) + 1)
        local = statistics.fmean(ms for _, ms in kernel_log[max(lo, 0) : hi])
        out.append(NOMINAL_MS / local)
    return out
