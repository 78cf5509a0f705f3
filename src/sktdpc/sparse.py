"""Symmetric sparse cache of pairwise Euclidean distances.

Only the distances actually requested are ever computed.  The cache is the
shared record between the k-nearest-neighbor search (which fills it) and the
relative-separation pass (which reads it back and tops it up), and its
evaluation counter is what the benchmark instrumentation reports.  A cache
filled by :func:`sktdpc.kdtree.knn_all` also carries the tree it was filled
from, so the separation pass can search that tree without rebuilding it.
"""

from __future__ import annotations

from math import sqrt

import numpy as np


class SparseDistanceMatrix:
    """Distance cache keyed by unordered point-index pair.

    ``distance(i, j)`` computes through the cache: a repeated request for a
    pair returns the stored value without recomputation, so the evaluation
    counter equals the number of distinct pairs ever computed.  ``tree`` is
    the k-d tree over the same points, or None.
    """

    __slots__ = ("_points", "_store", "evaluations", "tree")

    def __init__(self, points: np.ndarray, tree=None):
        pts = np.asarray(points, dtype=np.float64)
        self._points = [tuple(row) for row in pts.tolist()]
        self._store: dict[tuple[int, int], float] = {}
        self.evaluations = 0
        self.tree = tree

    def __len__(self) -> int:
        return len(self._store)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between points i and j, computed at most once."""
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        d = self._store.get(key)
        if d is None:
            s = 0.0
            for a, b in zip(self._points[i], self._points[j]):
                t = a - b
                s += t * t
            d = sqrt(s)
            self._store[key] = d
            self.evaluations += 1
        return d

    def get(self, i: int, j: int) -> float | None:
        """Stored distance for (i, j), or None if never computed."""
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        return self._store.get(key)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        key = (i, j) if i < j else (j, i)
        return key in self._store

    def pairs(self) -> set[tuple[int, int]]:
        """Snapshot of all stored (low, high) index pairs."""
        return set(self._store)

    def ratio(self) -> float:
        """Stored unique pairs as a fraction of the full n(n-1)/2 pair count."""
        n = len(self._points)
        total = n * (n - 1) // 2
        return len(self._store) / total if total else 1.0
