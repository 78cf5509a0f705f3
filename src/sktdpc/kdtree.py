"""Exact k-nearest-neighbor and nearest-denser search over a k-d tree.

The tree splits on the maximum-variance dimension at the median point, one
point per node, and queries backtrack with hyperplane pruning; the tree is
floor(log2 n) + 1 deep on any input, ties included.  It is held as flat
arrays in preorder and built level by level, each level with one integer
sort of per-build coordinate ranks and one variance block per subtree size
(Zhou, Hou, Wang & Guo, SIGGRAPH Asia 2008), into the same tree, bit for
bit, as one split per node would give.  Nothing here recurses.

Both searches prune by one rule.  A node's point lies on its own split
plane and every point of its far subtree lies beyond it, so the target's
difference ``diff`` to the split value bounds the distances of them all:
at an internal node whose ``reach = sqrt(diff * diff)`` is beyond the best
distance so far, a search skips the node's point and its far subtree.  Rounded
squares, sums and square roots are monotone, so reach is at most every
computed distance it skips, underflow included (``|diff|`` is not once
squares underflow to 0).  A leaf has no plane, and its point is always
evaluated.

The k-NN search is one small C function, ``_knn.c``, compiled by ``cc``
once per source hash at import and called through ``ctypes``.  It runs the
depth-first search of every query in turn, near child first (Friedman,
Bentley & Finkel, ACM TOMS 1977), keeps the k best in (distance, index)
order, and sums squares dimension by dimension as ``full_matrix`` does, so
every distance has its bits.  The neighbours come back as one record array
whose ``indices`` and ``distances`` fields are (n, k) arrays, and the keys
of every pair evaluated on the way build the
:class:`~sktdpc.sparse.SparseDistanceMatrix` that downstream stages reuse.

The nearest-denser search finds, for all the points it is given in one
call, the closest point of smaller density rank.  Besides the plane bound
it skips every subtree whose smallest rank (:func:`subtree_min_rank`) is
not smaller than the query's, as in the dependent-point search of Ex-DPC
(Amagata & Hara, SIGMOD 2021).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .sparse import SparseDistanceMatrix, key_dtype


class KdTree:
    """Spatial index over a Dataset; immutable once built.

    Nodes are numbered in preorder (a node, then its left subtree, then its
    right subtree; the root is node 0), one node per point.  For node ``v``:
    ``point[v]`` is its point, ``split_dim[v]`` its split dimension (-1 at a
    leaf), ``split_value[v]`` that point's coordinate in it, and
    ``left[v]``/``right[v]`` its children (-1 when absent).  Left-subtree
    points precede ``point[v]`` in (coordinate, index) order, right-subtree
    points follow it; ``left`` and ``right`` depend on n alone.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        arrays = _build(dataset.points)
        for a in arrays:
            a.setflags(write=False)
        self.point, self.split_dim, self.split_value, self.left, self.right = arrays

    def depth(self) -> int:
        """Nodes on the longest root-to-leaf path: floor(log2 n) + 1."""
        return self.dataset.n.bit_length()

    def dump(self) -> str:
        """Indented text rendering of the tree structure, for golden tests."""
        point, split_dim, split_value, left, right = (
            a.tolist() for a in (self.point, self.split_dim, self.split_value, self.left, self.right)
        )
        out: list[str] = []
        stack = [(0, 0)]
        while stack:
            v, indent = stack.pop()
            if left[v] < 0 and right[v] < 0:
                out.append(f"{'  ' * indent}leaf point={point[v]}")
                continue
            out.append(
                f"{'  ' * indent}node point={point[v]} dim={split_dim[v]} split={split_value[v]!r}"
            )
            for child in (right[v], left[v]):
                if child >= 0:
                    stack.append((child, indent + 1))
        return "\n".join(out)


def _build(points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Preorder arrays (point, split_dim, split_value, left, right).

    One pass per level splits every subtree of that depth.  The live points
    form one permutation cut into contiguous segments, one per subtree, each
    in ascending (coordinate, index) order of its parent's split dimension,
    the row order its variances are summed in.  A segment of m points splits
    on its maximum-variance dimension (ties: the lowest) at its point of
    rank ceil(m/2); the points ranked before it go low and those after it
    high, so each child is a contiguous run once the pivots are taken out.
    The left child of ``v`` is ``v + 1``, the right ``v + ceil(m/2)``.

    ``rank[d, p]`` is the position of point p in a stable argsort of
    coordinate d, its (coordinate, index) rank, taken once per build.  A
    level then orders its points with one integer sort of the distinct
    keys ``segment * n + rank[split dimension, point]``, of dtype
    :func:`~sktdpc.sparse.key_dtype`, which gives the (segment, coordinate,
    index) order a three-key ``lexsort`` would.
    """
    n, dim = points.shape
    point = np.empty(n, dtype=np.int64)
    split_dim = np.full(n, -1, dtype=np.int64)
    split_value = np.zeros(n)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    rank = np.empty((dim, n), dtype=key_dtype(n))
    rank[np.arange(dim)[:, None], np.argsort(points, axis=0, kind="stable").T] = np.arange(n)
    perm = np.arange(n)
    # start, size and preorder node number of each segment at this level
    start = np.zeros(1, dtype=np.int64)
    size = np.array([n])
    node = np.zeros(1, dtype=np.int64)
    while len(size):
        inner = size > 1
        dims = np.zeros(len(size), dtype=np.int64)
        if dim > 1 and inner.any():  # in one dimension there is nothing to choose
            dims[inner] = np.argmax(_variances(points, perm, start[inner], size[inner]), axis=1)
        seg = np.repeat(np.arange(len(size), dtype=rank.dtype), size)
        perm = perm[np.argsort(seg * n + rank[dims[seg], perm])]
        low = (size + 1) // 2 - 1  # the pivot has rank ceil(size/2), 1-based
        high = size // 2
        mid = start + low
        point[node] = perm[mid]
        split_dim[node[inner]] = dims[inner]
        split_value[node[inner]] = points[perm[mid[inner]], dims[inner]]
        left[node[low > 0]] = node[low > 0] + 1
        right[node[high > 0]] = (node + 1 + low)[high > 0]
        perm = np.delete(perm, mid)
        base = start - np.arange(len(size))  # pivots of earlier segments are gone
        start = np.column_stack((base, base + low)).ravel()
        node = np.column_stack((node + 1, node + 1 + low)).ravel()
        size = np.column_stack((low, high)).ravel()
        live = size > 0
        start, node, size = start[live], node[live], size[live]
    return point, split_dim, split_value, left, right


def _variances(
    points: np.ndarray, perm: np.ndarray, start: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Per-dimension variance of each segment ``perm[start:start + size]``,
    one row per segment, bit-equal to ``points[segment].var(axis=0)``.

    The segments of one length sit side by side in a ``(length, segments,
    dim)`` block that takes ``var``'s own steps, so each segment's rows are
    summed down axis 0 one after another, as ``var`` sums them (sums by
    ``np.add.reduceat`` come in another order and other bits).  The build
    hands it at most two lengths per level, on any data.
    """
    out = np.empty((len(size), points.shape[1]))
    for length in np.unique(size).tolist():
        sel = np.flatnonzero(size == length)
        block = points[perm[start[sel] + np.arange(length)[:, None]]]
        block -= block.sum(axis=0) / length
        block *= block
        out[sel] = block.sum(axis=0) / length
    return out


def build(d: Dataset) -> KdTree:
    """Build the spatial index: max-variance split dimension, median split point."""
    return KdTree(d)


def _load_kernel(cache: Path) -> ctypes.CDLL:
    """The k-NN kernel ``_knn.c``, compiled by ``cc`` into ``cache`` once
    per hash of its source and flags, and loaded from there after that.

    The compiler writes a temporary file that ``os.replace`` moves into
    place, so processes building at once never load a partial library.  The
    flags keep IEEE arithmetic: no ``-ffast-math``, ``-Ofast`` or
    ``-march=native``, and no contraction into fused multiply-adds, which
    would change distance bits.  ImportError without a working ``cc``."""
    source = Path(__file__).with_name("_knn.c")
    flags = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
    digest = hashlib.sha256(source.read_bytes() + " ".join(flags).encode()).hexdigest()
    library = cache / f"_knn-{digest[:16]}.so"
    if not library.exists():
        cache.mkdir(parents=True, exist_ok=True)
        partial = library.with_suffix(f".{os.getpid()}.tmp")
        try:
            subprocess.run(
                ["cc", *flags, "-o", str(partial), str(source), "-lm"],
                check=True, capture_output=True, text=True,
            )
            os.replace(partial, library)
        except FileNotFoundError:
            raise ImportError("sktdpc needs a C compiler, cc, to build its k-NN kernel") from None
        except subprocess.CalledProcessError as e:
            raise ImportError(f"cc could not build the k-NN kernel:\n{e.stderr}") from None
        finally:
            partial.unlink(missing_ok=True)
    kernel = ctypes.CDLL(str(library))
    kernel.knn_search.restype = ctypes.c_int64
    kernel.knn_search.argtypes = (
        [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_int64] * 2
        + [ctypes.c_void_p] * 3 + [ctypes.c_int, ctypes.c_int64, ctypes.c_void_p]
    )
    return kernel


_KERNEL = _load_kernel(Path(__file__).with_name("__pycache__"))


def _key_capacity(n_keys: int, done: int, m: int, n: int) -> int:
    """Length the key buffer grows to once ``n_keys`` keys are written for
    the first ``done`` of ``m`` queries over ``n`` points: room for one
    more query, which evaluates at most n - 1 pairs, and for the others at
    the mean rate so far (8 keys a query before any is done)."""
    rate = n_keys / done if done else 8
    return n_keys + n + int(rate * (m - done))


def _knn(tree: KdTree, targets: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of every point in ``targets``.

    Returns ``(indices, distances, keys)``: two ``(len(targets), k)`` arrays,
    each row ascending by (distance, index), and the key ``lo * n + hi`` of
    every pair evaluated, repeats included, of dtype
    :func:`~sktdpc.sparse.key_dtype`.  The kernel searches the queries one
    after another and stops before a query when fewer than n key slots are
    free; the buffer then grows (:func:`_key_capacity`) and the kernel
    resumes at that query.  ``ndarray.resize`` grows the buffer by
    ``realloc``, so no second buffer is held beside it, and the last resize
    trims it to the keys written."""
    pts = np.ascontiguousarray(tree.dataset.points)
    n, dim = pts.shape
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    m = len(targets)
    coords = pts[tree.point]  # row v: node v's point
    indices = np.empty((m, k), dtype=np.int64)
    distances = np.empty((m, k))
    keys = np.empty(_key_capacity(0, 0, m, n), dtype=key_dtype(n))
    n_keys = ctypes.c_int64(0)
    done = 0
    while True:
        done = _KERNEL.knn_search(
            n, dim, k, coords.ctypes.data, tree.point.ctypes.data, tree.split_dim.ctypes.data,
            tree.left.ctypes.data, tree.right.ctypes.data, pts.ctypes.data, targets.ctypes.data,
            m, done, indices.ctypes.data, distances.ctypes.data, keys.ctypes.data,
            keys.dtype == np.int64, len(keys), ctypes.byref(n_keys),
        )
        if done == m:
            break
        keys.resize(_key_capacity(n_keys.value, done, m, n), refcheck=False)
    keys.resize(n_keys.value, refcheck=False)
    return indices, distances, keys


def _check_count(name: str, value: int, top: int) -> None:
    """ValueError unless ``value`` (k, n_centers) is an integer in [1, top]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= top:
        raise ValueError(f"{name} must be in [1, {top}], got {value}")


def _records(indices: np.ndarray, distances: np.ndarray) -> np.recarray:
    """One record per row of two ``(n, k)`` arrays: fields ``indices``
    (int64) and ``distances`` (float64), each read back as an (n, k) array."""
    k = indices.shape[1]
    return np.rec.fromarrays(
        (indices, distances), dtype=[("indices", np.int64, (k,)), ("distances", np.float64, (k,))]
    )


def knn_all(tree: KdTree, k: int) -> tuple[np.recarray, SparseDistanceMatrix]:
    """Exact k nearest neighbors of every point (self excluded), and the
    ledger of every pair evaluated on the way.

    The neighbors are n records; their ``indices`` and ``distances`` fields
    are (n, k) arrays, row i ascending by (distance, index), so distance
    ties go to the lower point index.  Each point's query is a depth-first
    search, near child first: a node's point is evaluated, and its far
    child pushed with bound ``reach = sqrt(diff * diff)``, only when reach
    is at most the current k-th-best distance (inf until k are kept); the
    far child is tested again when popped, and a leaf's point is always
    evaluated.  The ledger records the union of the pairs the queries
    evaluated, each counted once, from one sorted block of their keys:
    int32 while n * n < 2**31, else int64 (:func:`~sktdpc.sparse.key_dtype`).
    """
    _check_count("k", k, tree.dataset.n - 1)
    indices, distances, keys = _knn(tree, np.arange(tree.dataset.n), k)
    return _records(indices, distances), SparseDistanceMatrix(tree.dataset.points, tree, keys)


def subtree_min_rank(tree: KdTree, rank: np.ndarray) -> np.ndarray:
    """Smallest ``rank`` of a point in the subtree under each node, indexed
    by node.

    In preorder a subtree is the run of nodes from its root to the leaf
    reached by taking the right child, else the left, all the way down.
    Pointer doubling on that child finds where every run ends, and one
    ``np.minimum.reduceat`` over the runs takes their minima."""
    n = len(tree.point)
    last = np.where(tree.left >= 0, tree.left, np.arange(n))
    last = np.where(tree.right >= 0, tree.right, last)
    while not np.array_equal(further := last[last], last):  # doubles the steps taken
        last = further
    # runs [v, last[v] + 1) between gaps; the appended slot closes the last run
    bounds = np.column_stack((np.arange(n), last + 1)).ravel()
    low = np.append(rank[tree.point], 0)
    return np.minimum.reduceat(low, bounds)[::2]


def nearest_denser_all(
    tree: KdTree, targets: np.ndarray, rank: np.ndarray, cache: SparseDistanceMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest point of smaller ``rank`` than each of ``targets``, as
    two arrays: the distances and the indices; ``(inf, -1)`` for a target of
    the smallest rank.  Equal distances go to the lower index.

    Each target in turn walks the tree depth first, near child first,
    skipping a subtree that holds no point of smaller rank
    (:func:`subtree_min_rank`) or whose plane bound is strictly farther than
    the best distance found, so an equidistant point of lower index across
    the plane is still reached.  At an internal node the bound is
    ``reach = sqrt(diff * diff)``: the node's point is evaluated, and the far
    child pushed, only when reach is at most the best distance, as the
    point lies on the plane.  A leaf's point of smaller rank is always
    evaluated.  Every evaluation goes through ``cache.distance(target, j)``.
    """
    min_rank = subtree_min_rank(tree, rank).tolist()
    point, split_dim, split_value, left, right = (
        a.tolist() for a in (tree.point, tree.split_dim, tree.split_value, tree.left, tree.right)
    )
    rank = rank.tolist()
    distance = cache.distance
    out_d, out_j = np.full(len(targets), np.inf), np.full(len(targets), -1, dtype=np.int64)
    coords_of = tree.dataset.points[targets].tolist()
    for t, (target, coords) in enumerate(zip(targets.tolist(), coords_of)):
        r = rank[target]
        best_d, best_j = math.inf, -1
        stack = [(0, 0.0)]  # (node, lower bound on distances in its subtree)
        while stack:
            v, bound = stack.pop()
            if min_rank[v] >= r or bound > best_d:
                continue
            idx, dim = point[v], split_dim[v]
            reach = 0.0  # a leaf has no plane
            if dim >= 0:
                diff = coords[dim] - split_value[v]
                reach = math.sqrt(diff * diff)
            if rank[idx] < r and reach <= best_d:
                d = distance(target, idx)
                if best_j < 0 or d < best_d or (d == best_d and idx < best_j):
                    best_d, best_j = d, idx
            if dim < 0:
                continue
            near, far = (left[v], right[v]) if diff <= 0.0 else (right[v], left[v])
            if far >= 0 and reach <= best_d:
                stack.append((far, reach))
            if near >= 0:
                stack.append((near, bound))
        out_d[t], out_j[t] = best_d, best_j
    return out_d, out_j
