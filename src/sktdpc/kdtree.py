"""Exact k-nearest-neighbor and nearest-denser search over a k-d tree.

The tree splits on the maximum-variance dimension at the median point, one
point per node, and queries backtrack, pruning by the distance to a
subtree's cell and to the bounding box of its points; the tree is
floor(log2 n) + 1 deep on any input, ties included.  It is held as flat
arrays in preorder.  :func:`ascending_order` sorts the points once per
dimension into (coordinate, index) order, equal coordinates by index.  The
build partitions those orders down the tree one node at a time, so each node's
points are already in order in its split dimension; one pass back up the
tree then gives each node its subtree's bounding box.  Nothing here
recurses.

Both searches prune by one rule, the bounds-overlap-ball test of
Friedman, Bentley & Finkel (ACM TOMS 1977), on two regions.  A subtree's
cell lies a gap ``g[s]`` from the target in each dimension s: the square
of the target's difference ``diff`` to the split value of the deepest
ancestor split on s whose far side the cell lies on, else 0.  A node's
point lies on its own split plane and in its node's cell, and every point
of its far subtree lies in the far cell, whose gaps are the node's with
``g[s] = diff * diff`` for the split dimension s; so ``reach``, the square
root of the far cell's gaps summed from 0.0 in dimension order, as a
distance is summed, bounds the distances of them all: at an internal node
whose reach is beyond the best distance so far, a search skips the node's
point and its far subtree.  A far subtree of more than one point also
has a bounding box, the least and greatest coordinates of its points
(Sproull, Algorithmica 6, 1991), which lies in its cell: its distance, the
gap ``max(lo - x, x - hi, 0)`` in each dimension squared, summed the same
way and square-rooted, is at least reach, and such a subtree is searched
only when that distance too is within the best so far; it is the
subtree's bound on the stack.  Rounded differences, squares, sums and
square roots are monotone, so neither bound exceeds a computed distance
it skips, underflow included (``|diff|`` would once squares underflow to
0).  On the target's own descent every gap is 0 and reach is
``sqrt(diff * diff)``, the plane alone.  A leaf has no plane, and its
point is always evaluated; nor is a leaf bounded by its box, whose
distance would be the pair's distance, an evaluation the ledger would not
count.  On uniform 8-D points at k = 7, n = 2000, where a cell of the
11-level tree is open in most dimensions, k-NN evaluates about 22 % of
all pairs.

Both searches also defer by one rule.  While fewer than k neighbours are
kept, the best distance is inf and bounds nothing, so a node's point would
be evaluated on the spot however far it lies; the points near the root lie
farthest from most targets.  Such a point is deferred instead: it waits on
the stack with bound reach until the near subtree is searched, and is
skipped if reach then exceeds the k-th best.  So a query evaluates O(1)
points in fixed dimension (Friedman, Bentley & Finkel, ACM TOMS 1977; the
bottom-up search of Bentley, SoCG 1990, for queries that are points of the
tree), and k-NN pairs per point stay flat in n: 10.7 to 11.0 on uniform
2-D points at k = 7 from n = 5000 to 100000.

The k-NN search seeds later queries.  A pair's distance has the same bits
from either end, so each distance a query evaluates is also offered to the
other point's row when that point's query is still to run, and a query
skips the points its row already holds.  A seeded row holds true
distances, so its k-th best bounds the search from its first pop and the
search stays exact.  On uniform 2-D points at k = 7 a distinct pair is
evaluated about 1.04 times.

The build after its sorts and both searches are C, ``_knn.c``, compiled
by ``cc`` once per source hash at import and called through ``ctypes``.
The search runs the depth-first search of every query in turn, near
child first, and keeps the k best in (distance, index) order.  It holds
the gaps of the cell it is in, in a workspace of ``dim`` doubles the
caller passes, and a trail of those it replaced, so it allocates nothing;
it reads the boxes from the tree, which the build fills once.
The k-NN search sums squares dimension by dimension as ``full_matrix``
does, so every distance has its bits.
:func:`knn_all` takes the queries in tree preorder, so successive queries
start from nearby points and find the nodes they pop still in cache.  The
neighbours come back as one record array whose ``indices`` and
``distances`` fields are (n, k) arrays, and the keys of every pair
evaluated on the way build the :class:`~sktdpc.sparse.SparseDistanceMatrix`
that downstream stages reuse.

The nearest-denser search is the same function at k = 1 with a rank
filter, as in the dependent-point search of Ex-DPC (Amagata & Hara, SIGMOD
2021): it skips every subtree whose smallest rank (:func:`subtree_min_rank`)
is not below the query's.  It computes its distances in C as k-NN does and
writes each pair's key target first; :func:`nearest_denser_all` then
records the pairs in the ledger one ``distance`` call each, in search
order.  The kernel calls back into nothing, so ``ctypes`` releases the GIL
for its whole call.
"""

from __future__ import annotations

import ctypes
import hashlib
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
    leaf), the point's coordinate there being the split value, and
    ``left[v]``/``right[v]`` its children (-1 when absent).  Left-subtree
    points precede ``point[v]`` in (coordinate, index) order, right-subtree
    points follow it; ``left`` and ``right`` depend on n alone.  Row v of
    the (n, dim) arrays ``lo`` and ``hi`` holds the least and greatest
    coordinates of the points in node v's subtree, the box both searches
    bound a far subtree by.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        arrays = _build(dataset.points)
        for a in arrays:
            a.setflags(write=False)
        self.point, self.split_dim, self.left, self.right, self.lo, self.hi = arrays

    def depth(self) -> int:
        """Nodes on the longest root-to-leaf path: floor(log2 n) + 1."""
        return self.dataset.n.bit_length()


def ascending_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=-1, kind="stable")``, for a 1-D array or
    each row of a 2-D one: indices in (value, index) order, as int64.

    Each row is sorted by numpy's default quicksort, 3-5 times faster than
    the stable sort on rows of thousands of values (numpy 2.4, x86-64 with
    AVX-512).  Where the sorted row then holds equal neighbours, ``==`` (so
    -0.0 and 0.0 tie) or both NaN (numpy sorts NaN last), the row is sorted
    again as one int64 key per value, its tie run's number times n plus its
    index, which puts every tie run in index order."""
    values = np.asarray(values)
    n = values.shape[-1]
    order = np.argsort(values, axis=-1)
    for row, v in zip(np.atleast_2d(order), np.atleast_2d(values)):  # row: a view into order
        s = v[row]
        tie = (s[1:] == s[:-1]) | np.isnan(s[:-1])  # a NaN is followed only by NaNs
        if tie.any():
            run = np.zeros(n, dtype=np.int64)
            np.cumsum(~tie, out=run[1:])
            run *= n
            row[:] = np.sort(run + row) - run
    return order


def _build(points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Preorder arrays (point, split_dim, left, right, lo, hi), filled by
    ``build_tree`` from one :func:`ascending_order` sort per dimension;
    ``lo`` and ``hi`` are the halves of one (2, n, dim) array.

    Row d of ``order`` lists the points in (coordinate, index) order of
    dimension d, equal coordinates by index.  The kernel partitions those rows down the tree, so nothing is sorted
    after this; its workspace is ``order``, an int64 ``spare`` row and a
    byte a point, (dim + 1) * 8n + n bytes."""
    # C reads each array by its address: every one is bound to a name, so it outlives the call
    pts = np.ascontiguousarray(points)
    n, dim = pts.shape
    arrays = (*(np.empty(n, dtype=np.int64) for _ in range(4)), *np.empty((2, n, dim)))
    order = np.ascontiguousarray(ascending_order(pts.T), dtype=np.int64)
    spare, side = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint8)
    _KERNEL.build_tree(
        n, dim, pts.ctypes.data, *(a.ctypes.data for a in arrays),
        order.ctypes.data, spare.ctypes.data, side.ctypes.data,
    )
    return arrays


def build(d: Dataset) -> KdTree:
    """Build the spatial index: one :func:`ascending_order` sort per
    dimension, then, in C, one node at a time, max-variance split dimension, median
    split point, and each subtree's bounding box."""
    return KdTree(d)


def _load_kernel(cache: Path, flags: tuple[str, ...] = ("-O2", "-ffp-contract=off")) -> ctypes.CDLL:
    """The k-d tree kernel ``_knn.c``, compiled by ``cc`` with ``flags``
    (beside ``-fPIC -shared``) into ``cache`` once per hash of its source
    and flags, and loaded from there after that.

    The compiler writes a temporary file that ``os.replace`` moves into
    place, so processes building at once never load a partial library.  The
    flags keep IEEE arithmetic: no ``-ffast-math``, ``-Ofast`` or
    ``-march=native``, and no contraction into fused multiply-adds, which
    would change the kernel's bits.  Other flags give another library; a
    fresh build removes those of other sources or flags.  ImportError
    without a working ``cc``."""
    source = Path(__file__).with_name("_knn.c")
    flags = ["-fPIC", "-shared", *flags]
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
            raise ImportError("sktdpc needs a C compiler, cc, to build its k-d tree kernel") from None
        except subprocess.CalledProcessError as e:
            raise ImportError(f"cc could not build the k-d tree kernel:\n{e.stderr}") from None
        finally:
            partial.unlink(missing_ok=True)
        for stale in set(cache.glob("_knn-*.so")) - {library}:
            stale.unlink(missing_ok=True)  # another process may remove it first
    kernel = ctypes.CDLL(str(library))
    kernel.build_tree.restype = None
    kernel.build_tree.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 10
    kernel.knn_search.restype = ctypes.c_int64
    kernel.knn_search.argtypes = (
        [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 9 + [ctypes.c_int64] * 2
        + [ctypes.c_void_p] * 6 + [ctypes.c_int, ctypes.c_int64]
        + [ctypes.c_void_p] * 4
    )
    return kernel


_KERNEL = _load_kernel(Path(__file__).with_name("__pycache__"))


def _key_capacity(n_keys: int, done: int, m: int, n: int) -> int:
    """Length the key buffer grows to once ``n_keys`` keys are written for
    the first ``done`` of ``m`` queries over ``n`` points: room for one
    more query, which evaluates at most n - 1 pairs, and for the others at
    the mean rate so far (8 keys a query before any is done)."""
    rate = n_keys / done if done else 8
    return n_keys + n - 1 + int(rate * (m - done))


def _indices(name: str, values) -> np.ndarray:
    """``values`` as a contiguous int64 array; TypeError unless they are of
    an integer dtype (bool is not), so no float or bool is cast to an index."""
    values = np.asarray(values)
    if len(values) and values.dtype.kind not in "iu":
        raise TypeError(f"{name} must be integers, got dtype {values.dtype}")
    return np.ascontiguousarray(values, dtype=np.int64)


def _knn(
    tree: KdTree, targets: np.ndarray, k: int, rank: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of every point in ``targets``; given
    ``rank``, only of smaller rank than the target's.

    Returns ``(indices, distances, keys)``: two ``(len(targets), k)`` arrays,
    each row ascending by (distance, index), unfilled slots ``(inf, n)``,
    and the key of every pair evaluated, in search order, repeats included,
    of dtype :func:`~sktdpc.sparse.key_dtype`: ``lo * n + hi`` for k-NN,
    ``target * n + j`` with the rank filter.  The kernel reads the
    subtrees' boxes from ``tree.lo`` and ``tree.hi``, built once with the
    tree, and each call gathers the nodes' points into preorder, n * dim
    doubles it frees on return: held on the tree, they would outlast the
    call into the separation stage, where a run's memory peaks.  Every row
    starts at ``(inf, n)`` before the first query.  k-NN offers each pair a query
    evaluates to the row of the other point when that point is a later
    target, and a query skips the points its row holds; the kernel's
    scratch for it is ``row`` (the row of each node's point), ``node``
    (each point's node) and ``stamp``, 24n bytes.  The kernel searches the
    queries one after another and stops before a query when fewer than
    n - 1 key slots are free; the buffer then grows (:func:`_key_capacity`)
    and the kernel resumes at that query.  ``ndarray.resize`` grows the buffer
    by ``realloc``, so no second buffer is held beside it, and the last
    resize trims it to the keys written.  The rank filter offers nothing to
    other rows and needs no scratch; it writes and grows its keys as k-NN
    does.  TypeError unless
    ``targets`` and ``rank`` are integers, IndexError unless every target
    lies in [0, n)."""
    # C reads each array by its address: every one is bound to a name, so it outlives the call
    pts = np.ascontiguousarray(tree.dataset.points)
    n, dim = pts.shape
    targets = _indices("targets", targets)
    m = len(targets)
    if m and not 0 <= targets.min() <= targets.max() < n:
        raise IndexError(f"targets must lie in [0, {n})")
    coords = pts[tree.point]  # row v: node v's point
    indices = np.full((m, k), n, dtype=np.int64)
    distances = np.full((m, k), np.inf)
    keys = np.empty(_key_capacity(0, 0, m, n), dtype=key_dtype(n))
    gap = np.empty(dim)  # the kernel's workspace: the gaps of the cell it is in
    n_keys = ctypes.c_int64(0)
    seeding, rank_filter = (None, None, None), (None, None)
    if rank is None:
        node = np.empty(n, dtype=np.int64)
        node[tree.point] = np.arange(n)
        row = np.full(n, -1, dtype=np.int64)
        row[node[targets]] = np.arange(m)
        stamp = np.full(n, -1, dtype=np.int64)
        seeding = (row.ctypes.data, node.ctypes.data, stamp.ctypes.data)
    else:
        rank = _indices("rank", rank)
        min_rank = np.ascontiguousarray(subtree_min_rank(tree, rank), dtype=np.int64)
        rank_filter = (rank.ctypes.data, min_rank.ctypes.data)
    done = 0
    while True:
        done = _KERNEL.knn_search(
            n, dim, k, coords.ctypes.data, tree.lo.ctypes.data, tree.hi.ctypes.data,
            tree.point.ctypes.data, tree.split_dim.ctypes.data,
            tree.left.ctypes.data, tree.right.ctypes.data, pts.ctypes.data, targets.ctypes.data,
            m, done, indices.ctypes.data, distances.ctypes.data, *seeding, keys.ctypes.data,
            keys.dtype == np.int64, len(keys), ctypes.byref(n_keys), *rank_filter,
            gap.ctypes.data,
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


def _records(
    indices: np.ndarray, distances: np.ndarray, order: np.ndarray | slice = slice(None)
) -> np.recarray:
    """One record per row of two ``(n, k)`` arrays: fields ``indices``
    (int64) and ``distances`` (float64), each read back as an (n, k) array.
    Row q of the arrays goes to record ``order[q]``, in order by default."""
    n, k = indices.shape
    out = np.recarray(n, dtype=[("indices", np.int64, (k,)), ("distances", np.float64, (k,))])
    out.indices[order], out.distances[order] = indices, distances
    return out


def knn_all(tree: KdTree, k: int) -> tuple[np.recarray, SparseDistanceMatrix]:
    """Exact k nearest neighbors of every point (self excluded), and the
    ledger of every pair evaluated on the way.

    The neighbors are n records; their ``indices`` and ``distances`` fields
    are (n, k) arrays, row i ascending by (distance, index), so distance
    ties go to the lower point index.  Each point's query is a depth-first
    search, near child first: a node's far child is pushed only when
    ``reach``, the target's distance to the far child's cell, and, unless
    the far child is a leaf, its distance to the bounding box of the far
    child's points (see the module docstring) are both at most the current
    k-th-best distance, with the box's distance as its bound, which is
    tested again when it is popped.  The node's point is evaluated under
    the cell's test once k neighbours are kept; before that it is deferred
    until after the near subtree, and skipped if reach then exceeds the
    k-th best.  A leaf's point is always evaluated.  On uniform 2-D points
    at k = 7 about 11.0 distinct pairs a point are evaluated.  The
    queries run in tree preorder (``tree.point``), and their rows are
    scattered back to point order.  A query offers each pair it evaluates
    to the later query of the other point, which starts from the offers it
    keeps and skips their points, so most pairs are evaluated once, not
    once per end.  The ledger records the union of the
    pairs the queries evaluated, each counted once, from one sorted block
    of their keys: int32 while n * n < 2**31, else int64
    (:func:`~sktdpc.sparse.key_dtype`).
    """
    _check_count("k", k, tree.dataset.n - 1)
    indices, distances, keys = _knn(tree, tree.point, k)
    neighbors = _records(indices, distances, order=tree.point)
    return neighbors, SparseDistanceMatrix(tree.dataset.points, tree, keys)


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
    the smallest rank.  Equal distances go to the lower index.  It is
    :func:`_knn` at k = 1 with the rank filter, which also skips every
    subtree without a point of smaller rank (:func:`subtree_min_rank`);
    it prunes by the same cell and box bounds and defers a node's point
    until a point of smaller rank is found, as :func:`knn_all` does.  The
    kernel computes the distances; then each pair it evaluated is recorded
    by a ``cache.distance(target, j)`` call, in search order, the targets
    in the order given, its keys decoded by ``divmod`` 1024 at a time, so
    no list of them all is held.  An exception raised by a call
    propagates."""
    indices, distances, keys = _knn(tree, targets, 1, rank)
    n = tree.dataset.n
    for start in range(0, len(keys), 1024):
        for key in keys[start : start + 1024].tolist():
            cache.distance(*divmod(key, n))  # looked up per call, so a swapped method counts
    return distances.ravel(), np.where(indices < n, indices, -1).ravel()  # (inf, n)
