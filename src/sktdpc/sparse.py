"""Symmetric sparse ledger of the pairwise Euclidean distances evaluated.

The ledger records which pairs the algorithm has had to evaluate, not their
distances: the k-nearest-neighbor search hands over the pairs it evaluated,
the relative-separation pass adds the ones it needs beyond those, and the
count of distinct pairs is the cost the benchmark instrumentation reports.
A read recomputes the distance, which costs no more than looking it up
would.  A ledger filled by :func:`sktdpc.kdtree.knn_all` also carries the
tree it was filled from, so the separation pass can search that tree
without rebuilding it.

A pair ``(lo, hi)``, ``lo < hi``, is keyed by the int64 ``lo * n + hi``.
The k-NN search hands its keys to the constructor in bulk; they live in one
sorted key array, set once and never merged into.  Pairs evaluated later,
one at a time (:meth:`distance`) or all of one point's at once
(:meth:`distances`), go into a set.
"""

from __future__ import annotations

import threading
from math import sqrt

import numpy as np


class SparseDistanceMatrix:
    """Ledger of the point-index pairs whose distance has been evaluated.

    ``distance(i, j)`` evaluates a pair and records it; the evaluation
    counter is the number of distinct pairs recorded, however often each is
    read.  Squared differences are summed dimension by dimension, in the
    order ``baseline.full_matrix`` uses, so every distance is bit-identical
    to it.  ``tree`` is the k-d tree over the same points, or None.
    Threads may share a ledger: writes are serialised by a lock.
    """

    __slots__ = ("_points", "_columns", "_n", "_block", "_extra", "_lock", "tree")

    def __init__(self, points: np.ndarray, tree=None, keys: np.ndarray | None = None):
        """A ledger over ``points`` recording every pair in ``keys`` (int64
        ``lo * n + hi``, any order, repeats allowed; sorted in place)."""
        pts = np.asarray(points, dtype=np.float64)
        self._points = [tuple(row) for row in pts.tolist()]
        self._columns = np.ascontiguousarray(pts.T)
        self._n = pts.shape[0]
        # sort plus a neighbour mask: np.unique is many times slower on
        # millions of int64 keys
        keys = np.asarray(() if keys is None else keys, dtype=np.int64)
        keys.sort()
        if len(keys):
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        self._block = keys  # sorted unique keys, none of them in _extra
        self._extra: set[int] = set()
        self._lock = threading.Lock()
        self.tree = tree

    def __len__(self) -> int:
        return len(self._block) + len(self._extra)

    @property
    def evaluations(self) -> int:
        """Distinct pairs evaluated so far; each is counted once."""
        return len(self)

    def _key(self, i: int, j: int) -> int:
        """Key of the pair (i, j); IndexError unless both lie in [0, n)."""
        n = self._n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range [0, {n}): ({i}, {j})")
        return i * n + j if i < j else j * n + i

    def _stored(self, key: int) -> bool:
        if key in self._extra:
            return True
        p = self._block.searchsorted(key)
        return p < len(self._block) and self._block.item(p) == key

    def _compute(self, i: int, j: int) -> float:
        s = 0.0
        for a, b in zip(self._points[i], self._points[j]):
            t = a - b
            s += t * t
        return sqrt(s)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between points i and j, recording the pair."""
        key = self._key(i, j)
        if i == j:
            return 0.0
        if not self._stored(key):  # the block never changes; adding is idempotent
            with self._lock:
                self._extra.add(key)
        return self._compute(i, j)

    def distances(self, i: int, js: np.ndarray) -> np.ndarray:
        """Euclidean distances from point i to each of the points ``js``,
        recording the pairs: the vector twin of :meth:`distance`."""
        js = np.asarray(js, dtype=np.int64)
        n = self._n
        if not 0 <= i < n or len(js) and not (0 <= js.min() and js.max() < n):
            raise IndexError(f"point index out of range [0, {n}): {i} or one of js")
        out = np.zeros(len(js))
        for column in self._columns:
            t = column[i] - column[js]
            t *= t
            out += t
        np.sqrt(out, out=out)
        keys = np.where(js < i, js * n + i, i * n + js)[js != i]
        if len(self._block):
            p = np.minimum(self._block.searchsorted(keys), len(self._block) - 1)
            keys = keys[self._block[p] != keys]
        with self._lock:
            self._extra.update(keys.tolist())
        return out

    def get(self, i: int, j: int) -> float | None:
        """Distance of (i, j), or None if the pair was never evaluated."""
        key = self._key(i, j)
        if i == j:
            return 0.0
        return self._compute(i, j) if self._stored(key) else None

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._stored(self._key(*pair))

    def pairs(self) -> set[tuple[int, int]]:
        """Snapshot of all recorded (low, high) index pairs."""
        lo, hi = np.divmod(self._block, self._n)
        out = set(zip(lo.tolist(), hi.tolist()))
        out.update(divmod(key, self._n) for key in list(self._extra))
        return out

    def ratio(self) -> float:
        """Recorded pairs as a fraction of the full n(n-1)/2 pair count."""
        n = self._n
        total = n * (n - 1) // 2
        return len(self) / total if total else 1.0
