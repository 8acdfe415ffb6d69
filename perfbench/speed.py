"""The machine's speed, measured beside the requests, and times scaled by it.

The benchmark runs on shared machines whose speed drifts: on the 2-CPU VM
the baseline was measured on, a fixed pure-Python loop ran 44 to 72
iterations per second from one second to the next, and whole runs of
identical inputs differed by 20% and more.  The drift comes from
neighbours sharing the cores and caches, not from time stolen by the
hypervisor: the process's own CPU time drifts with its wall time, so CPU
time does not remove it.

`calibrate()` is a fixed piece of pure-Python work in the style of the
program's hot loops (GF(2) ranks of bit rows across the cuts of a graph,
neighbourhood comparisons on a dict-of-sets graph, exact fractions, a small
JSON document) that shares no code with it.  The loop runs it once after
every request, outside the request's timing.  A request's time is then
scaled to the reference machine: multiplied by `REFERENCE_S` over the mean
calibration time of the requests around it.  A slow stretch slows both
alike, so the ratio holds still while the raw time moves with the machine.
The mean, not the median, because a request's time adds up every short
slow burst it meets, and so does the mean.  A change to the program cannot
change `calibrate()`, so it moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import json
import random
import statistics
from fractions import Fraction
from time import perf_counter

# Seconds one `calibrate()` call takes on the reference machine.  It is a
# unit, not a measurement: on the 2-CPU VM of the baseline (Python 3.11.7)
# a call took from below 2 ms to over 3 ms, with the machine's drift.
REFERENCE_S = 0.002
# Calibration samples on each side of a request that set its speed.  A few
# requests span 0.1 to 1 s: long enough to see past a single calibration's
# noise, short enough to follow the machine's swings.
WINDOW = 4

_N = 120
_RNG = random.Random(2)
_ADJ: dict[int, set[int]] = {v: set() for v in range(_N)}
for _v in range(1, _N):
    for _u in _RNG.sample(range(_v), min(_v, 3)):
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(6)] for i in range(6)]


def calibrate() -> int:
    """Fixed work; returns a checksum so that none of it is optimized away."""
    # Ranks over GF(2) of the adjacency rows across cuts, as in the cut ranks.
    masks = [sum(1 << u for u in _ADJ[v]) for v in range(_N)]
    ranks = 0
    for cut in range(8, _N, 20):
        rows = [masks[v] >> cut for v in range(cut)]
        while rows:
            pivot = rows.pop()
            if pivot:
                ranks += 1
                low = pivot & -pivot
                rows = [r ^ pivot if r & low else r for r in rows]
    # Neighbourhood comparisons, as in the twin scan.
    twins = sum(_ADJ[v] - {w} == _ADJ[w] - {v} for v in range(_N) for w in _ADJ[v])
    # Exact elimination, as in the Kirchhoff cofactor.
    m = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            det = Fraction(0)
            break
        m[k], m[pivot] = m[pivot], m[k]
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    # A small report.
    text = json.dumps({"det": str(det), "ranks": ranks, "twins": twins}, sort_keys=True)
    return len(text) + ranks + twins + det.numerator % 97


def timed_calibration() -> float:
    """Seconds one `calibrate()` call takes now."""
    t0 = perf_counter()
    calibrate()
    return perf_counter() - t0


def factors(calibrations: list[float]) -> list[float]:
    """For each request, `REFERENCE_S` over the mean calibration time of
    the `WINDOW` requests on each side of it and its own (fewer at the ends)."""
    return [
        REFERENCE_S / statistics.fmean(calibrations[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(len(calibrations))
    ]
