"""Symmetric sparse cache of pairwise Euclidean distances.

Only the distances actually requested are ever computed.  The cache is the
shared record between the k-nearest-neighbor search (which fills it) and the
relative-separation pass (which reads it back and tops it up), and its
evaluation counter is what the benchmark instrumentation reports.  A cache
filled by :func:`sktdpc.kdtree.knn_all` also carries the tree it was filled
from, so the separation pass can search that tree without rebuilding it.

A pair ``(lo, hi)``, ``lo < hi``, is keyed by the int64 ``lo * n + hi``.
The k-NN search hands its pairs to the constructor in bulk; they live in
one sorted key array with a distance array beside it, set once and never
merged into.  Pairs requested later, one at a time (:meth:`distance`) or
all of one point's at once (:meth:`distances`), go into a dict.
"""

from __future__ import annotations

import threading
from math import sqrt

import numpy as np

_CHUNK = 1 << 18  # pairs whose distances are computed together


class SparseDistanceMatrix:
    """Distance cache keyed by unordered point-index pair.

    ``distance(i, j)`` computes through the cache: a repeated request for a
    pair returns the stored value without recomputation, so the evaluation
    counter equals the number of distinct pairs ever computed.  ``tree`` is
    the k-d tree over the same points, or None.  Threads may share a cache:
    writes are serialised by a lock.
    """

    __slots__ = ("_points", "_columns", "_n", "_block", "_extra", "_lock", "tree")

    def __init__(self, points: np.ndarray, tree=None, keys: np.ndarray | None = None):
        """A cache over ``points`` holding the distance of every pair in
        ``keys`` (int64 ``lo * n + hi``, any order, repeats allowed; sorted
        in place).

        The squared differences are summed dimension by dimension, in the
        order :meth:`distance` and ``baseline.full_matrix`` use, so each
        value is bit-identical to theirs.
        """
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
        dists = np.zeros(len(keys))
        for start in range(0, len(keys), _CHUNK):  # bounds the temporaries
            lo, hi = np.divmod(keys[start : start + _CHUNK], self._n)
            s = dists[start : start + _CHUNK]
            for column in self._columns:
                t = column[lo] - column[hi]
                t *= t
                s += t
            np.sqrt(s, out=s)
        self._block = (keys, dists)  # sorted unique keys and their distances
        self._extra: dict[int, float] = {}
        self._lock = threading.Lock()
        self.tree = tree

    def __len__(self) -> int:
        return len(self._block[0]) + len(self._extra)

    @property
    def evaluations(self) -> int:
        """Distinct pairs computed so far; each stored pair was computed once."""
        return len(self)

    def _key(self, i: int, j: int) -> int:
        return i * self._n + j if i < j else j * self._n + i

    def _lookup(self, key: int) -> float | None:
        d = self._extra.get(key)
        if d is None:
            keys, dists = self._block
            p = keys.searchsorted(key)
            if p < len(keys) and keys.item(p) == key:
                d = dists.item(p)
        return d

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between points i and j, computed at most once."""
        if i == j:
            return 0.0
        key = self._key(i, j)
        d = self._lookup(key)
        if d is None:
            with self._lock:  # look again: another thread may have stored it
                d = self._lookup(key)
                if d is None:
                    s = 0.0
                    for a, b in zip(self._points[i], self._points[j]):
                        t = a - b
                        s += t * t
                    d = sqrt(s)
                    self._extra[key] = d
        return d

    def distances(self, i: int, js: np.ndarray) -> np.ndarray:
        """Euclidean distances from point i to each of the distinct points
        ``js``, each pair computed at most once: the vector twin of
        :meth:`distance`.

        Stored pairs are read from the key block and the dict; the missing
        ones are computed together, dimension by dimension as the
        constructor computes the block, and go into the dict.
        """
        js = np.asarray(js, dtype=np.int64)
        n = self._n
        keys = np.where(js < i, js * n + i, i * n + js)
        out = np.zeros(len(js))
        with self._lock:
            rest = np.flatnonzero(js != i)  # a point is at 0.0 from itself
            for stored_keys, stored in (self._block, self._extra_arrays()):
                if len(stored_keys) and len(rest):
                    p = stored_keys.searchsorted(keys[rest])
                    p = np.minimum(p, len(stored_keys) - 1)
                    hit = stored_keys[p] == keys[rest]
                    out[rest[hit]] = stored[p[hit]]
                    rest = rest[~hit]
            if len(rest):
                others = js[rest]
                s = np.zeros(len(rest))
                for column in self._columns:
                    t = column[i] - column[others]
                    t *= t
                    s += t
                np.sqrt(s, out=s)
                out[rest] = s
                self._extra.update(zip(keys[rest].tolist(), s.tolist()))
        return out

    def _extra_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The dict's keys, sorted, and their distances."""
        keys = np.fromiter(self._extra, dtype=np.int64, count=len(self._extra))
        dists = np.fromiter(self._extra.values(), dtype=float, count=len(self._extra))
        order = keys.argsort()
        return keys[order], dists[order]

    def get(self, i: int, j: int) -> float | None:
        """Stored distance for (i, j), or None if never computed."""
        if i == j:
            return 0.0
        return self._lookup(self._key(i, j))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return self._lookup(self._key(i, j)) is not None

    def pairs(self) -> set[tuple[int, int]]:
        """Snapshot of all stored (low, high) index pairs."""
        lo, hi = np.divmod(self._block[0], self._n)
        out = set(zip(lo.tolist(), hi.tolist()))
        out.update(divmod(key, self._n) for key in list(self._extra))
        return out

    def ratio(self) -> float:
        """Stored unique pairs as a fraction of the full n(n-1)/2 pair count."""
        n = self._n
        total = n * (n - 1) // 2
        return len(self) / total if total else 1.0
