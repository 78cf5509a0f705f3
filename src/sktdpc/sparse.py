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
but the largest n.  The k-NN search hands its keys to the constructor in
bulk, a pair it evaluated from both ends once per end; they live in one
sorted key array, repeats and all, set once and never merged into, beside
the count of the distinct keys in it.  A lookup casts its probe keys to
that array's dtype, as ``searchsorted`` would otherwise copy the whole
array to int64 on every call.  Pairs evaluated later go into a set of
the keys outside the block.  One evaluated at a time (:meth:`distance`)
only has its key appended to a list of pending keys; :meth:`_settle` moves
the pending keys into the set in one vector pass, deduplicated and with
those already in the block dropped, once 1024 are pending and before every
read, so the pending list stays short and every count is exact.  All of
one point's pairs at once (:meth:`distances`) go through the same pass.
"""

from __future__ import annotations

import threading
from math import sqrt
from operator import index

import numpy as np


def key_dtype(n: int) -> type[np.signedinteger]:
    """dtype of the pair keys ``lo * n + hi`` over n points: int32 while
    ``n * n < 2**31``, so every key (at most ``n * n - n - 1``) fits, else
    int64."""
    return np.int32 if n * n < 2**31 else np.int64


class SparseDistanceMatrix:
    """Ledger of the point-index pairs whose distance has been evaluated.

    ``distance(i, j)`` evaluates a pair and records it; the evaluation
    counter is the number of distinct pairs recorded, however often each is
    read or handed over (the bulk keys keep their repeats, and their
    distinct count is taken once, on construction); the bulk keys are one
    sorted array of :func:`key_dtype`.  Squared differences
    are summed dimension by dimension, in the order ``baseline.full_matrix``
    uses, so every distance is bit-identical to it.  ``tree`` is the k-d
    tree over the same points, or None.  Threads may share a ledger: they
    append pending keys to one list, and :meth:`_settle` takes them out of
    it and into the set while it holds a lock.
    """

    __slots__ = ("_columns", "_column_lists", "_n", "_block", "_block_pairs", "_extra",
                 "_pending", "_lock", "tree")

    def __init__(self, points: np.ndarray, tree=None, keys: np.ndarray | None = None):
        """A ledger over ``points`` recording every pair in ``keys``
        (integers ``lo * n + hi``, any order, repeats allowed; sorted in
        place when already of dtype ``key_dtype(n)``, else copied to it).
        ValueError names a key outside [0, n * n)."""
        pts = np.asarray(points, dtype=np.float64)
        self._columns = np.ascontiguousarray(pts.T)
        self._column_lists = self._columns.tolist()  # the scalar reads index lists faster
        n = self._n = pts.shape[0]
        keys = np.asarray((), dtype=np.int64) if keys is None else np.asarray(keys)
        if len(keys) and keys.dtype.kind not in "iu":
            raise TypeError(f"pair keys must be integers, got dtype {keys.dtype}")
        # range first: narrowing would wrap an outside key onto a real pair
        if len(keys) and (keys.min() < 0 or keys.max() >= n * n):
            bad = keys[(keys < 0) | (keys >= n * n)][0]
            raise ValueError(f"pair key out of range [0, {n * n}): {bad}")
        keys = keys.astype(key_dtype(n), copy=False)
        keys.sort()
        self._block = keys  # sorted, repeats kept; none of them in _extra
        # distinct keys: a sorted array repeats a key in adjacent slots
        self._block_pairs = len(keys) - int(np.count_nonzero(keys[1:] == keys[:-1]))
        self._extra: set[int] = set()
        self._pending: list[int] = []  # keys of distance() calls not yet settled
        self._lock = threading.Lock()
        self.tree = tree

    def __len__(self) -> int:
        self._settle()
        return self._block_pairs + len(self._extra)

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
        """Move the pending keys, and ``keys`` (of the block's dtype) when
        given, into the set: deduplicated by ``np.unique``, less those the
        block holds, found by one vector ``searchsorted``.  Other threads
        may append while this runs; it takes out only the keys it read, and
        only once they are in the set, so a read that finds no key pending
        misses none."""
        if not self._pending and keys is None:
            return
        with self._lock:
            count = len(self._pending)
            fresh = np.array(self._pending[:count], dtype=self._block.dtype)
            if keys is not None:
                fresh = np.concatenate((fresh, keys))
            fresh = np.unique(fresh)
            if len(self._block):
                p = np.minimum(self._block.searchsorted(fresh), len(self._block) - 1)
                fresh = fresh[self._block[p] != fresh]
            self._extra.update(fresh.tolist())
            del self._pending[:count]  # appends land after the first count

    def _stored(self, key: int) -> bool:
        self._settle()
        if key in self._extra:
            return True
        p = self._block.searchsorted(self._block.dtype.type(key))  # never widen the block
        return p < len(self._block) and self._block.item(p) == key

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
        if len(self._pending) >= 1024:
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
        for column in self._columns:
            t = column[i] - column[js]
            t *= t
            out += t
        np.sqrt(out, out=out)
        keys = np.where(js < i, js * n + i, i * n + js)[js != i]
        self._settle(keys.astype(self._block.dtype))
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
        lo, hi = np.divmod(self._block, self._n)
        out = set(zip(lo.tolist(), hi.tolist()))
        out.update(divmod(key, self._n) for key in list(self._extra))
        return out

    def ratio(self) -> float:
        """Recorded pairs as a fraction of the full n(n-1)/2 pair count."""
        n = self._n
        total = n * (n - 1) // 2
        return len(self) / total if total else 1.0
