"""Symmetric sparse ledger of the pairwise Euclidean distances evaluated.

The ledger records which pairs the algorithm has had to evaluate, not their
distances: the k-nearest-neighbor search hands over the pairs it evaluated,
the relative-separation pass adds the ones it needs beyond those, and the
count of distinct pairs is the cost the benchmark instrumentation reports.
A read recomputes the distance, which costs no more than looking it up
would.  A ledger filled by :func:`sktdpc.kdtree.knn_all` also carries the
tree it was filled from, so the separation pass can search that tree
without rebuilding it.

A pair ``(lo, hi)``, ``lo < hi``, is keyed by ``lo * n + hi``: an int32
while ``n * n < 2**31`` (n <= 46340), so every key fits, and an int64 above
that (:func:`key_dtype`), which halves the bytes of the bulk keys at all
but the largest n.  Keys live in two sorted arrays of that dtype.  The
block holds the keys handed to the constructor, one per evaluation of
the k-NN search: a pair twice when a query's offer of it to a later row
did not stay among that row's k best and the row's bounds could not
exclude it: at k = 7, about 1.04 keys a pair on uniform 2-D points, where
the search evaluates about 11.0 pairs a point, and 1.25 on uniform
2000 x 8 points, where it evaluates 22 % of all pairs.  It is set once,
repeats and all, beside the count of its distinct keys.  ``_late`` holds
the distinct keys recorded after that, none of them in the block.  A
lookup casts its probe keys to that dtype, as ``searchsorted`` would
otherwise copy a whole array to int64 on every call.  One pair evaluated at a time (:meth:`distance`)
only has its key appended to a list of pending keys; :meth:`_settle`
deduplicates them, drops those either array holds and merges the rest into
``_late`` in one vector pass, before every read and once the pending keys
reach an eighth of ``_late`` (and at least 1024), so each key is merged
O(1) times and every count is exact.  All of one point's pairs at once
(:meth:`distances`) go through the same pass.  A ledger serves one thread.
"""

from __future__ import annotations

from math import sqrt
from operator import index

import numpy as np


def key_dtype(n: int) -> type[np.signedinteger]:
    """dtype of the pair keys ``lo * n + hi`` over n points: int32 while
    ``n * n < 2**31``, so every key (at most ``n * n - n - 1``) fits, else
    int64."""
    return np.int32 if n * n < 2**31 else np.int64


def _holds(stored: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` (of ``stored``'s dtype) that the sorted array ``stored`` holds."""
    if not len(stored):
        return np.zeros(len(keys), dtype=bool)
    return stored.take(stored.searchsorted(keys), mode="clip") == keys


class SparseDistanceMatrix:
    """Ledger of the point-index pairs whose distance has been evaluated.

    ``distance(i, j)`` evaluates a pair and records it; the evaluation
    counter is the number of distinct pairs recorded, however often each is
    read or handed over.  Squared differences are summed dimension by
    dimension, in the order ``baseline.full_matrix`` uses, so every
    distance is bit-identical to it.  ``tree`` is the k-d tree over the
    same points, or None.  A ledger serves one thread: it takes no lock.
    """

    __slots__ = ("_columns", "_column_lists", "_n", "_block", "_block_pairs", "_late",
                 "_pending", "tree")

    def __init__(self, points: np.ndarray, tree=None, keys: np.ndarray | None = None):
        """A ledger over ``points`` recording every pair in ``keys``
        (integers ``lo * n + hi``, any order, repeats allowed; sorted in
        place when already a writeable array of dtype ``key_dtype(n)``,
        else copied to it).  ValueError names a key outside [0, n * n).
        It reads float64 ``points`` in place: they must stay unchanged."""
        pts = np.asarray(points, dtype=np.float64)
        self._columns = pts.T
        self._column_lists = self._columns.tolist()  # the scalar reads index lists faster
        n = self._n = pts.shape[0]
        keys = np.asarray((), dtype=np.int64) if keys is None else np.asarray(keys)
        if len(keys) and keys.dtype.kind not in "iu":
            raise TypeError(f"pair keys must be integers, got dtype {keys.dtype}")
        # range first: narrowing would wrap an outside key onto a real pair
        if len(keys) and (keys.min() < 0 or keys.max() >= n * n):
            bad = keys[(keys < 0) | (keys >= n * n)][0]
            raise ValueError(f"pair key out of range [0, {n * n}): {bad}")
        keys = keys.astype(key_dtype(n), copy=not keys.flags.writeable)
        keys.sort()
        self._block = keys
        # distinct keys: a sorted array repeats a key in adjacent slots
        self._block_pairs = len(keys) - int(np.count_nonzero(keys[1:] == keys[:-1]))
        self._late = np.empty(0, dtype=keys.dtype)
        self._pending: list[int] = []  # keys of distance() calls not yet settled
        self.tree = tree

    def __len__(self) -> int:
        self._settle()
        return self._block_pairs + len(self._late)

    @property
    def evaluations(self) -> int:
        """Distinct pairs evaluated so far; each is counted once."""
        return len(self)

    def _key(self, i: int, j: int) -> int:
        """Key of the pair (i, j); TypeError unless both are integers,
        IndexError unless both lie in [0, n)."""
        i, j = index(i), index(j)
        n = self._n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range [0, {n}): ({i}, {j})")
        return i * n + j if i < j else j * n + i

    def _settle(self, keys: np.ndarray | None = None) -> None:
        """Merge the pending keys, and ``keys`` (of the block's dtype) when
        given, into ``_late``: deduplicated, less those the block or
        ``_late`` holds.  Strictly increasing keys, such as all of one
        point's pairs in index order, are already sorted and distinct, and
        skip the sort."""
        if not self._pending and keys is None:
            return
        fresh = np.array(self._pending, dtype=self._block.dtype)
        self._pending.clear()
        if keys is not None:
            fresh = np.concatenate((fresh, keys)) if len(fresh) else keys
        if np.any(fresh[1:] <= fresh[:-1]):
            fresh = np.unique(fresh)
        fresh = fresh[~(_holds(self._block, fresh) | _holds(self._late, fresh))]
        if len(fresh):
            self._late = np.insert(self._late, self._late.searchsorted(fresh), fresh)

    def _stored(self, key: int) -> bool:
        self._settle()
        key = self._block.dtype.type(key)  # never widen either array
        for stored in (self._block, self._late):
            p = stored.searchsorted(key)
            if p < len(stored) and stored.item(p) == key:
                return True
        return False

    def _compute(self, i: int, j: int) -> float:
        s = 0.0
        for column in self._column_lists:
            t = column[i] - column[j]
            s += t * t
        return sqrt(s)

    def distance(self, i: int, j: int) -> float:
        """Euclidean distance between points i and j, recording the pair."""
        key = self._key(i, j)
        if i == j:
            return 0.0
        self._pending.append(key)
        if len(self._pending) >= max(1024, len(self._late) >> 3):
            self._settle()
        return self._compute(i, j)

    def distances(self, i: int, js: np.ndarray) -> np.ndarray:
        """Euclidean distances from point i to each of the points ``js``,
        recording the pairs: the vector twin of :meth:`distance`."""
        i, js = index(i), np.asarray(js)
        if len(js) and js.dtype.kind not in "iu":
            raise TypeError(f"point indices must be integers, got dtype {js.dtype}")
        js = js.astype(np.int64, copy=False)
        n = self._n
        if not 0 <= i < n or len(js) and not (0 <= js.min() and js.max() < n):
            raise IndexError(f"point index out of range [0, {n}): {i} or one of js")
        out = np.zeros(len(js))
        with np.errstate(over="ignore"):  # as in the kernel, a too-large square is inf
            for column in self._columns:
                t = column[i] - column[js]
                t *= t
                out += t
        np.sqrt(out, out=out)
        keys = np.where(js < i, js * n + i, i * n + js)[js != i]
        self._settle(keys.astype(self._block.dtype, copy=False))
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
        self._settle()
        lo, hi = np.divmod(np.concatenate((self._block, self._late)), self._n)
        return set(zip(lo.tolist(), hi.tolist()))

    def ratio(self) -> float:
        """Recorded pairs as a fraction of the full n(n-1)/2 pair count."""
        n = self._n
        total = n * (n - 1) // 2
        return len(self) / total if total else 1.0
