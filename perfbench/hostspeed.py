"""Host-speed probe: a fixed piece of pure-Python work, timed between items.

The benchmark runs on a shared host whose speed drifts: the same loop takes
up to twice as long from one minute to the next, and process CPU time drifts
with wall time, so it does not help.  The probe measures that drift.  It
imports nothing from levelalg, so no change to the library moves it, and it
does the kind of work levelalg does (fraction-free elimination on a small
integer matrix, products of polynomials stored as dicts of exponent tuples).

`run.py` scales every item's latency by REFERENCE_S over the median of the
probes taken within about a second of the item (the host's speed changes
within seconds, so a run-wide factor follows it less well), and each set-up
time by REFERENCE_S over the median of the probes its process ran.  A timing
then reads as it would on a host where one probe takes REFERENCE_S seconds.
The raw timings are kept beside the scaled ones in
perfbench/out/results.jsonl.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# The probe time of the reference host speed.  On the host the benchmark was
# written on (2 vCPUs, Python 3.11.7) the median probe of a run took 6 to
# 11 ms.  It fixes the scale of the reported timings and so of
# workloads.PASS_SECONDS; comparisons between commits do not depend on it.
REFERENCE_S = 0.010
# An item is scaled by the median of the probes taken within WINDOW_S
# seconds of it, and at least the NEAREST probes closest to it.
WINDOW_S = 1.0
NEAREST = 5

_RNG = random.Random(20020417)
_MATRIX = tuple(tuple(_RNG.randint(-9, 9) for _ in range(22)) for _ in range(22))
_FORM = {(k, 6 - k): k + 1 for k in range(7)}


def _eliminate() -> int:
    """Bareiss elimination of _MATRIX; returns the last pivot."""
    a = [list(row) for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k] or 1
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


def _power() -> int:
    """_FORM to the 5th power, as a dict of exponent tuples; returns its size."""
    g = dict(_FORM)
    for _ in range(4):
        out: dict = {}
        for (a1, b1), c1 in _FORM.items():
            for (a2, b2), c2 in g.items():
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, 0) + c1 * c2
        g = out
    return len(g)


def probe() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(8):
        _eliminate()
        _power()
    return time.perf_counter() - start


def scale(probe_times: list[float]) -> float:
    """Factor that brings timings taken beside these probes to the
    reference host speed."""
    return REFERENCE_S / statistics.median(probe_times)


def local_scales(items: list[tuple[float, float]], probes: list[tuple[float, float]]
                 ) -> list[float]:
    """One factor per item: `scale` of the probes taken within WINDOW_S of
    the item, or of the NEAREST probes closest to it if there are fewer.
    `items` holds (start, duration) pairs and `probes` (midpoint, duration)
    pairs in time order; all times are perf_counter readings of one process."""
    mids = [t for t, _ in probes]
    width = min(NEAREST, len(probes))
    out = []
    for start, duration in items:
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, start + duration + WINDOW_S)
        if hi - lo < width:
            lo = bisect.bisect_left(mids, start + duration / 2) - width // 2
            lo = max(0, min(lo, len(probes) - width))
            hi = lo + width
        out.append(scale([d for _, d in probes[lo:hi]]))
    return out
