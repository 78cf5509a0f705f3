"""Exact k-nearest-neighbor and nearest-denser search over a k-d tree.

The tree splits on the maximum-variance dimension at the median point, one
point per node, and queries backtrack with hyperplane pruning.  It is held
as flat arrays in preorder and built level by level, each level with one
sort and one variance block per subtree size (Zhou, Hou, Wang & Guo,
SIGGRAPH Asia 2008), into the same tree, bit for bit, as one split per
node would give.  Nothing here recurses, however deep the tree.

The k-NN search runs every query in lockstep: all queries walk the tree
together, one stack pop each per step, with numpy vectors across the
queries.  Each query still pops exactly the nodes a depth-first search of
its own would (Friedman, Bentley & Finkel, ACM TOMS 1977).  A query's
state lives in one lane of dense arrays, which a step reads without
gathering, in about 40 numpy calls whatever the dimension; the live lanes
move to narrower arrays once half have finished.  The neighbours come back
as one record array whose ``indices`` and ``distances`` fields are (n, k)
arrays, and the keys of every pair evaluated on the way build the
:class:`~sktdpc.sparse.SparseDistanceMatrix` that downstream stages reuse.

The nearest-denser query finds, for one point, the closest point of smaller
density rank.  Besides the hyperplane bound it skips every subtree whose
smallest rank (:func:`subtree_min_rank`) is not smaller than the query's,
as in the dependent-point search of Ex-DPC (Amagata & Hara, SIGMOD 2021).
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .sparse import SparseDistanceMatrix


class KdTree:
    """Spatial index over a Dataset; immutable once built.

    Nodes are numbered in preorder (a node, then its left subtree, then its
    right subtree; the root is node 0), one node per point.  For node ``v``:
    ``point[v]`` is its point, ``split_dim[v]`` its split dimension (-1 at a
    leaf), ``split_value[v]`` that point's coordinate in it, and
    ``left[v]``/``right[v]`` its children (-1 when absent).
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        arrays, self._depth = _build(dataset.points)
        for a in arrays:
            a.setflags(write=False)
        self.point, self.split_dim, self.split_value, self.left, self.right = arrays
        self._nodes = tuple(a.tolist() for a in arrays)

    def depth(self) -> int:
        """Nodes on the longest root-to-leaf path."""
        return self._depth

    def dump(self) -> str:
        """Indented text rendering of the tree structure, for golden tests."""
        point, split_dim, split_value, left, right = self._nodes
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


def _build(points: np.ndarray) -> tuple[tuple[np.ndarray, ...], int]:
    """Preorder arrays (point, split_dim, split_value, left, right) and depth.

    One pass per level splits every subtree of that depth.  The live points
    form one permutation cut into contiguous segments, one per subtree, each
    in ascending (coordinate, index) order of its parent's split dimension,
    the row order its variances are summed in.  A segment splits on its
    maximum-variance dimension (ties: the lowest) at its median-rank point;
    points tied with that point rank right after it and go low with the
    points before it, so each child is a contiguous run once the pivots are
    taken out.  The left child of ``v`` is ``v + 1``, the right ``v + 1 + |low|``.
    """
    n, dim = points.shape
    point = np.empty(n, dtype=np.int64)
    split_dim = np.full(n, -1, dtype=np.int64)
    split_value = np.zeros(n)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    perm = np.arange(n)
    # start, size and preorder node number of each segment at this level
    start = np.zeros(1, dtype=np.int64)
    size = np.array([n])
    node = np.zeros(1, dtype=np.int64)
    depth = 0
    while len(size):
        depth += 1
        inner = size > 1
        dims = np.zeros(len(size), dtype=np.int64)
        if dim > 1 and inner.any():  # in one dimension there is nothing to choose
            dims[inner] = np.argmax(_variances(points, perm, start[inner], size[inner]), axis=1)
        seg = np.repeat(np.arange(len(size)), size)
        coords = points[perm, dims[seg]]
        order = np.lexsort((perm, coords, seg))
        perm = perm[order]
        coords = coords[order]
        mid = start + (size + 1) // 2 - 1  # rank ceil(size/2), 1-based
        value = coords[mid]
        point[node] = perm[mid]
        split_dim[node[inner]] = dims[inner]
        split_value[node[inner]] = value[inner]
        low = np.bincount(seg[coords <= value[seg]], minlength=len(size)) - 1
        high = size - 1 - low
        left[node[low > 0]] = node[low > 0] + 1
        right[node[high > 0]] = (node + 1 + low)[high > 0]
        keep = np.ones(len(perm), dtype=bool)
        keep[mid] = False
        perm = perm[keep]
        base = start - np.arange(len(size))  # pivots of earlier segments are gone
        start = np.column_stack((base, base + low)).ravel()
        node = np.column_stack((node + 1, node + 1 + low)).ravel()
        size = np.column_stack((low, high)).ravel()
        live = size > 0
        start, node, size = start[live], node[live], size[live]
    return (point, split_dim, split_value, left, right), depth


def _variances(
    points: np.ndarray, perm: np.ndarray, start: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """Per-dimension variance of each segment ``perm[start:start + size]``,
    one row per segment, bit-equal to ``points[segment].var(axis=0)``.

    The segments of one length sit side by side in a ``(length, segments,
    dim)`` block that takes ``var``'s own steps, so each segment's rows are
    summed down axis 0 one after another, as ``var`` sums them (sums by
    ``np.add.reduceat`` come in another order and other bits).  Tie-free
    data gives at most two lengths per level.
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


def _lockstep_knn(
    tree: KdTree, targets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of every point in ``targets``.

    Returns ``(indices, distances, keys)``: two ``(len(targets), k)`` arrays,
    each row ascending by (distance, index), and the int64 key
    ``lo * n + hi`` of every pair evaluated, repeats included.

    All queries advance together, one stack pop each per step.  A query's
    pops are those of the depth-first search that visits the near child
    first and then the far child only when fewer than k candidates are
    kept, or the target-to-hyperplane distance is at most
    the k-th best distance so far.  The far child is pushed with that plane
    distance and tested when popped, which is when the depth-first search
    tests it, after the near subtree; a near child is pushed with -inf.
    Squared differences are summed dimension by dimension, as in
    ``baseline.full_matrix``, so distances are bit-identical to it.

    Each query runs in a lane, and every lane array is in lane order, so a
    step reads its state without gathering.  A lane's stack is a run of
    ``depth + 2`` slots in one flat array.  Its last slot is never written
    and holds the bound NaN, which fails every test: an empty lane reads
    the slot just below its own stack, the last slot of the lane before it
    (of the last lane, for lane 0), and pops nothing.  Once at most half
    the lanes are live, the live ones move to the front of narrower arrays,
    padded with finished ones to a width from :func:`_width`.

    A candidate is the complex number ``distance + index * 1j``: numpy
    orders complex numbers by real part, then imaginary part, which is the
    (distance, index) order, and indices below 2**53 are exact.  A lane's
    row is -inf, its k best candidates in order, and the candidate of this
    step.  Merging that in sets each column c in 1..k to
    ``min(max(row[c - 1], candidate), row[c])``; a candidate that ranks
    after the k-th, ties included, changes nothing.  Unfilled columns hold
    the sentinel ``(inf, n)``, which every real candidate beats.
    """
    pts = tree.dataset.points
    n = len(pts)
    m = len(targets)
    # one record per node, read by one take: its point, split dimension,
    # children and point times n
    record = np.stack((tree.point, tree.split_dim, tree.left, tree.right, tree.point * n))
    coords = np.ascontiguousarray(pts[tree.point].T)  # by dimension, then node
    slots = tree.depth() + 2
    # row m takes the lanes that pad the first width
    indices = np.empty((m + 1, k), dtype=np.int64)
    distances = np.empty((m + 1, k))
    keys = np.empty(8 * m, dtype=np.int64)
    n_keys = 0

    width = _width(m)
    row = np.minimum(np.arange(width), m)
    point = np.zeros(width, dtype=np.int64)
    point[:m] = targets
    target = np.ascontiguousarray(pts[point].T)
    stack = np.zeros(width * slots, dtype=np.int64)  # the root is node 0
    bound = np.full(width * slots, np.nan)
    bound[: m * slots : slots] = -np.inf
    height = np.where(row < m, 0, -1)  # slot of each lane's top entry
    best = np.full((width + 1, k + 2), complex(np.inf, n))  # row width pads
    best[:, 0] = -np.inf
    while True:  # one pass per width
        lane = np.arange(width)
        base = lane * slots
        top = base + height
        point_n = point * n
        worst = best.real[:width, k]
        d, index = best.real[:width, k + 1], best.imag[:width, k + 1]
        scratch = np.full(width, width)  # pads insertion batches
        while True:
            node = stack[top]
            go = bound[top] <= worst
            rec = record.take(node, axis=1)
            j, dims, children = rec[0], rec[1], rec[2:4]
            visit = j != point
            visit &= go
            diff = coords.take(node, axis=1)
            diff -= target
            dims *= width  # flat index of the split coordinate; a leaf's
            dims += lane  # -1 reads the last row, and its plane goes unused
            plane = diff.take(dims)  # split value minus target coordinate
            diff *= diff
            np.sqrt(diff.sum(axis=0), out=d)
            index[...] = j

            pair = point_n + j  # lo * n + hi is the smaller of the two
            np.minimum(pair, rec[4] + point, out=pair)
            pair = pair.compress(visit)
            count = len(pair)
            if n_keys + count > len(keys):
                grown = np.empty(2 * (n_keys + count), dtype=np.int64)
                grown[:n_keys] = keys[:n_keys]
                keys = grown
            keys[n_keys : n_keys + count] = pair
            n_keys += count

            better = d <= worst
            better &= visit
            (better,) = better.nonzero()
            count = len(better)
            if count:
                at = scratch[: _width(count)].copy()
                at[:count] = better
                kept = best.take(at, axis=0)
                high = np.maximum(kept[:, :k], kept[:, k + 1 :])
                np.minimum(high, kept[:, 1 : k + 1], out=kept[:, 1 : k + 1])
                best[at] = kept

            near_far = np.where(plane >= 0.0, children, children[::-1])  # (near, far)
            exists = near_far >= 0
            exists &= go
            # Both children are written from the popped slot up (slot 0 for
            # an empty lane), and the stack grows only over those that exist
            # for a lane that visited its node.
            at = np.maximum(top, base)
            stack[at] = near_far[1]
            bound[at] = np.abs(plane)
            at += exists[1]
            stack[at] = near_far[0]
            bound[at] = -np.inf
            at += exists[0]
            at -= 1
            top = at
            live = np.count_nonzero(top >= base)
            if not live or 2 * _width(live) <= width:
                break
        # final for every lane that has finished
        indices[row] = best.imag[:width, 1 : k + 1]
        distances[row] = best.real[:width, 1 : k + 1]
        if not live:
            break
        # live lanes first, then finished ones to pad the narrower width
        keep = np.argsort(top < base, kind="stable")[: _width(live)]
        row, point, target = row[keep], point[keep], target[:, keep]
        stack = stack.reshape(width, slots)[keep].ravel()
        bound = bound.reshape(width, slots)[keep].ravel()
        best = best[np.append(keep, width)]
        height = (top - base)[keep]
        width = len(keep)
    return indices[:m], distances[:m], keys[:n_keys]


def _width(count: int) -> int:
    """Length of the arrays for ``count`` lanes or rows: ``count`` from 1024
    up, else the next power of two, and at least 2.

    numpy keeps freed buffers under 1 KiB for reuse, up to seven per
    distinct byte size; per-step arrays of every length below 1024 would
    fill that cache with megabytes, power-of-two lengths leave it a few
    kilobytes.  A ``(dim, 1)`` block would be summed over its dimensions
    along the fast axis, which numpy does pairwise, in another order."""
    count = int(count)
    return count if count >= 1024 else max(2, 1 << (count - 1).bit_length())


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
    ties go to the lower point index.  A subtree is skipped only when the
    target-to-splitting-hyperplane distance already exceeds the current
    k-th-best distance.  The ledger records the union of the pairs the
    queries evaluated, each counted once.
    """
    _check_count("k", k, tree.dataset.n - 1)
    indices, distances, keys = _lockstep_knn(tree, np.arange(tree.dataset.n), k)
    return _records(indices, distances), SparseDistanceMatrix(tree.dataset.points, tree, keys)


def subtree_min_rank(tree: KdTree, rank: list[int]) -> list[int]:
    """Smallest ``rank`` of a point in the subtree under each node, indexed
    by node.  One O(n) pass."""
    point, _, _, left, right = tree._nodes
    low = [rank[p] for p in point]
    for v in range(len(low) - 1, -1, -1):  # preorder: children after their parent
        m = low[v]
        child = left[v]
        if child >= 0 and low[child] < m:
            m = low[child]
        child = right[v]
        if child >= 0 and low[child] < m:
            m = low[child]
        low[v] = m
    return low


def nearest_denser_query(
    tree: KdTree,
    target: int,
    rank: list[int],
    min_rank: list[int],
    cache: SparseDistanceMatrix,
) -> tuple[float, int]:
    """Exact nearest point of smaller rank than ``target``, as (distance, index).

    ``min_rank`` is :func:`subtree_min_rank` of the same ``rank``.  Equal
    distances go to the lower index.  A subtree is skipped when it holds no
    point of smaller rank, or when the target-to-hyperplane distance is
    strictly greater than the best distance found, so an equidistant point
    of lower index across the plane is still reached.  Distances are
    evaluated through ``cache.distance(target, j)``.  Returns
    ``(inf, -1)`` when ``target`` has the smallest rank.
    """
    point, split_dim, split_value, left, right = tree._nodes
    coords = tree.dataset.points[target].tolist()
    distance = cache.distance
    r = rank[target]
    best_d, best_j = math.inf, -1
    stack = [(0, 0.0)]  # (node, lower bound on distances in its subtree)
    while stack:
        v, bound = stack.pop()
        if min_rank[v] >= r or bound > best_d:
            continue
        idx = point[v]
        if rank[idx] < r:
            d = distance(target, idx)
            if best_j < 0 or d < best_d or (d == best_d and idx < best_j):
                best_d, best_j = d, idx
        dim = split_dim[v]
        if dim < 0:
            continue
        diff = coords[dim] - split_value[v]
        if diff <= 0.0:
            near, far = left[v], right[v]
        else:
            near, far = right[v], left[v]
        if far >= 0:
            stack.append((far, -diff if diff <= 0.0 else diff))
        if near >= 0:
            stack.append((near, bound))
    return best_d, best_j
