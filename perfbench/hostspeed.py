"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within minutes: the same unit of work on the same input took 0.89 s
and 1.37 s in one process.  Wall times alone therefore compare the host's
moods, not two versions of the program.  ``reference_s`` times a fixed mix
of the kinds of work sktdpc does (dict and tuple churn with a heap, float
arithmetic, small numpy kernels, numpy and scipy ufuncs on scalars, many
small short-lived containers, a dict far larger than the caches) that never touches the package, so no change
to sktdpc can change it.  The benchmark runs it between timed units and
rescales their wall times to the speed at which one pass takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from math import sqrt

import numpy as np
from scipy.special import gammaln

# What one call of the loop takes at the median speed of a 2-vCPU Intel Xeon
# virtual machine on a shared host; rescaled times read as seconds there.
REFERENCE_S = 0.7

_rng = random.Random(12345)
_POINTS = [(_rng.random(), _rng.random()) for _ in range(4000)]
_ARRAY = np.random.default_rng(12345).random((300, 2))


def _cache_and_heap() -> float:
    """Distance cache keyed by index pair plus a bounded max-heap."""
    pts, store, total = _POINTS, {}, 0.0
    for i in range(0, 4000, 24):
        heap: list[tuple[float, int]] = []
        xi, yi = pts[i]
        for j in range(i % 7, 4000, 7):
            key = (i, j) if i < j else (j, i)
            d = store.get(key)
            if d is None:
                dx, dy = xi - pts[j][0], yi - pts[j][1]
                d = sqrt(dx * dx + dy * dy)
                store[key] = d
            if len(heap) < 7:
                heapq.heappush(heap, (-d, -j))
            elif (d, j) < (-heap[0][0], -heap[0][1]):
                heapq.heapreplace(heap, (-d, -j))
        total -= heap[0][0]
    return total


def _arithmetic() -> float:
    s, x = 0.0, 0.5
    for _ in range(1_200_000):
        x = x * 1.0000001 + 0.1 if x < 10.0 else x - 9.0
        s += x
    return s


def _numpy_kernels() -> float:
    s = 0.0
    for _ in range(20):
        d = np.sqrt(((_ARRAY[:, None, :] - _ARRAY[None, :, :]) ** 2).sum(-1))
        s += float(np.sort(d, axis=1)[:, 7].sum())
    return s


def _scalar_ufuncs() -> float:
    """numpy and scipy ufuncs called on one Python number at a time."""
    s = 0.0
    for i in range(1, 20000):
        s += (gammaln(i + 1) - gammaln(i // 2 + 1)) * np.exp(-np.log(i * 3.0))
    return float(s)


def _small_containers() -> int:
    total = 0
    for _ in range(1800):
        d = {i: (i * 7) % 13 for i in range(300)}
        total += sum(sorted(d.values())[:50])
    return total


def _large_dict() -> float:
    """A pair-keyed dict far larger than the CPU caches, filled and then read
    in scattered order: three of the four workloads keep a distance cache
    of 70 to 250 MB, whose speed follows memory latency, not the core's."""
    n = 400_000
    store = {(i, i * 7919 % 1_000_003): i * 0.5 for i in range(n)}
    total = 0.0
    for i in range(0, n, 3):
        j = i * 7 % n
        total += store[(j, j * 7919 % 1_000_003)]
    return total


def reference_s() -> float:
    """Wall seconds of one pass of the reference loop, after a collection."""
    gc.collect()
    t0 = time.perf_counter()
    _cache_and_heap()
    _arithmetic()
    _numpy_kernels()
    _scalar_ufuncs()
    _small_containers()
    _large_dict()
    return time.perf_counter() - t0
