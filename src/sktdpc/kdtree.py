"""Exact k-nearest-neighbor and nearest-denser search over a k-d tree.

The tree splits on the maximum-variance dimension at the median point, one
point per node, and queries backtrack with hyperplane pruning.  It is held
as flat arrays in preorder and built level by level: one numpy pass splits
every subtree of a depth together (Zhou, Hou, Wang & Guo, SIGGRAPH Asia
2008), into the same tree, bit for bit, as one split per node would give.
Nothing here recurses, however deep the tree.

The k-NN search runs every query in lockstep: all queries walk the tree
together, one stack pop each per step, with numpy vectors across the
queries.  Each query still pops exactly the nodes a depth-first search of
its own would (Friedman, Bentley & Finkel, ACM TOMS 1977).  Every pair
evaluated on the way is recorded in a shared
:class:`~sktdpc.sparse.SparseDistanceMatrix`, which downstream stages reuse.

The nearest-denser query finds, for one point, the closest point of smaller
density rank.  Besides the hyperplane bound it skips every subtree whose
smallest rank (:func:`subtree_min_rank`) is not smaller than the query's,
as in the dependent-point search of Ex-DPC (Amagata & Hara, SIGMOD 2021).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .sparse import SparseDistanceMatrix


@dataclass(frozen=True)
class NeighborSet:
    """The exact k nearest neighbors of one point, ascending by (distance, index)."""

    owner: int
    neighbors: tuple[tuple[int, float], ...]

    @property
    def k(self) -> int:
        return len(self.neighbors)

    @property
    def radius(self) -> float:
        """Distance to the k-th nearest neighbor."""
        return self.neighbors[-1][1]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.neighbors)

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(d for _, d in self.neighbors)


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
    in ascending (coordinate, index) order of its parent's split dimension.
    A segment splits on its maximum-variance dimension (ties: the lowest)
    at its median-rank point; points tied with that point rank right after
    it and go low with the points before it, so each child is a contiguous
    run once the pivots are taken out.  The left child of node ``v`` is
    ``v + 1`` and the right child ``v + 1 + |low|``.
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
            variances = _variances(points, perm, start[inner], size[inner])
            dims[inner] = np.argmax(variances, axis=1)
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

    ``var`` sums the rows of a segment down axis 0 one after another.  Here
    the segments of one power-of-two length class sit side by side in a
    zero-padded ``(length, segments * dim)`` block that is summed down axis
    0 the same way; the padding adds +0.0 after a segment's rows, which
    changes no variance.  (Segment sums by ``np.add.reduceat`` come out in
    another order and other bits.)
    """
    dim = points.shape[1]
    out = np.empty((len(size), dim))
    length_class = np.frexp(size - 1.0)[1]  # 2**class >= size
    for c in sorted(set(length_class.tolist())):
        sel = np.flatnonzero(length_class == c)
        rows = np.arange(1 << c)[:, None]
        pad = rows >= size[sel]
        block = points[perm[np.where(pad, 0, start[sel] + rows)]]
        block[pad] = 0.0
        block = block.reshape(len(rows), -1)
        count = np.repeat(size[sel], dim)
        block -= block.sum(axis=0) / count
        block *= block
        block.reshape(len(rows), len(sel), dim)[pad] = 0.0
        out[sel] = (block.sum(axis=0) / count).reshape(len(sel), dim)
    return out


def build(d: Dataset) -> KdTree:
    """Build the spatial index: max-variance split dimension, median split point."""
    return KdTree(d)


def _lockstep_knn(
    tree: KdTree, targets: np.ndarray, k: int, prune: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact k nearest neighbors of every point in ``targets``.

    Returns ``(indices, distances, keys)``: two ``(len(targets), k)`` arrays,
    each row ascending by (distance, index), and the int64 key
    ``lo * n + hi`` of every pair evaluated, repeats included.

    All queries advance together, one stack pop each per step.  A query's
    pops are those of the depth-first search that visits the near child
    first and then the far child only when ``not prune``, or fewer than k
    candidates are kept, or the target-to-hyperplane distance is at most
    the k-th best distance so far.  The far child is pushed with that plane
    distance and tested when popped, which is when the depth-first search
    tests it, after the near subtree; a near child is pushed with -inf.
    Unfilled slots of a row hold the sentinel ``(inf, n)``, which every real
    candidate beats.  Squared differences are summed dimension by dimension,
    as in ``baseline.full_matrix``, so distances are bit-identical to it.
    """
    pts = tree.dataset.points
    n, dim = pts.shape
    m = len(targets)
    point, split_dim, split_value = tree.point, tree.split_dim, tree.split_value
    left, right = tree.left, tree.right
    # Column m is a spare query with an empty stack; lanes beyond the live
    # queries point at it.  A query never holds more than depth entries, so
    # the two slots written above its stack after each pop always exist.
    targets = np.append(targets, 0)
    best_d = np.full((m + 1, k), np.inf)
    best_i = np.full((m + 1, k), n, dtype=np.int64)
    stack = np.zeros((tree.depth() + 2, m + 1), dtype=np.int64)  # one stack per column
    bound = np.full((tree.depth() + 2, m + 1), -np.inf)  # what each entry is tested against
    size = np.ones(m + 1, dtype=np.int64)
    size[m] = 0
    prev = np.maximum(np.arange(k) - 1, 0)
    keys = np.empty(8 * m, dtype=np.int64)
    n_keys = 0
    lanes = _padded(np.arange(m), m, m)
    while len(lanes):
        top = size[lanes] - 1
        node = stack[top, lanes]
        worst = best_d[lanes, -1]
        go = top >= 0
        if prune:
            go &= bound[top, lanes] <= worst
        a = targets[lanes]
        j = point[node]

        visit = go & (j != a)
        diff = pts[a] - pts[j]
        diff *= diff
        s = diff[:, 0].copy()
        for h in range(1, dim):
            s += diff[:, h]
        d = np.sqrt(s)
        count = np.count_nonzero(visit)
        if n_keys + count > len(keys):
            grown = np.empty(2 * (n_keys + count), dtype=np.int64)
            grown[:n_keys] = keys[:n_keys]
            keys = grown
        pair = np.minimum(a, j)
        pair *= n
        pair += np.maximum(a, j)
        np.compress(visit, pair, out=keys[n_keys : n_keys + count])
        n_keys += count

        better = visit & ((d < worst) | ((d == worst) & (j < best_i[lanes, -1])))
        count = np.count_nonzero(better)
        if count:
            qi = _padded(lanes, count, m, better)
            di = _padded(d, count, np.inf, better)
            ji = _padded(j, count, n, better)
            bd, bi = best_d[qi], best_i[qi]
            before = (bd < di[:, None]) | ((bd == di[:, None]) & (bi < ji[:, None]))
            at = before.sum(axis=1)
            bd = np.where(before, bd, bd[:, prev])
            bi = np.where(before, bi, bi[:, prev])
            rows = np.arange(len(qi))
            bd[rows, at] = di
            bi[rows, at] = ji
            best_d[qi] = bd
            best_i[qi] = bi

        dims = split_dim[node]
        plane = pts[a, dims] - split_value[node]
        below = plane <= 0.0
        lo, hi = left[node], right[node]
        near = np.where(below, lo, hi)
        far = np.where(below, hi, lo)
        # Both children are written above the popped stack, and the size
        # grows only over those that exist for a lane that visited its node.
        top = np.maximum(top, 0)  # the stack size after the pop
        stack[top, lanes] = far
        bound[top, lanes] = np.abs(plane)
        top += go & (far >= 0)
        stack[top, lanes] = near
        bound[top, lanes] = -np.inf
        top += go & (near >= 0)
        size[lanes] = top
        live = top > 0
        lanes = _padded(lanes, np.count_nonzero(live), m, live)
    return best_i[:m], best_d[:m], keys[:n_keys]


def _padded(values: np.ndarray, count: int, fill, mask=None) -> np.ndarray:
    """The ``count`` entries of ``values`` under ``mask`` (all when None),
    padded with ``fill`` to the next power of two when ``count`` < 1024.

    numpy keeps freed buffers under 1 KiB for reuse, up to seven per
    distinct byte size; per-step arrays of every length below 1024 would
    fill that cache with megabytes, power-of-two lengths leave it a few
    kilobytes."""
    count = width = int(count)
    if 0 < count < 1024:
        width = 1 << (count - 1).bit_length()
    out = np.full(width, fill, dtype=values.dtype)
    if mask is None:
        out[:count] = values[:count]
    else:
        np.compress(mask, values, out=out[:count])
    return out


def _check_k(tree: KdTree, k: int) -> None:
    n = tree.dataset.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")


def _neighbor_sets(targets, indices, distances) -> list[NeighborSet]:
    return [
        NeighborSet(t, tuple(zip(i, d)))
        for t, i, d in zip(targets.tolist(), indices.tolist(), distances.tolist())
    ]


def knn_query(
    tree: KdTree,
    target: int,
    k: int,
    cache: SparseDistanceMatrix | None = None,
    prune: bool = True,
) -> NeighborSet:
    """Exact k nearest neighbors of a point already in the tree (self excluded).

    Distance ties are broken by ascending point index.  A subtree is skipped
    only when the target-to-splitting-hyperplane distance already exceeds the
    current k-th-best distance; ``prune=False`` always descends, which is a
    verification hook and must return the identical result.  The pairs
    evaluated are recorded in ``cache`` when one is given.
    """
    _check_k(tree, k)
    if not 0 <= target < tree.dataset.n:
        raise ValueError(f"target index {target} out of range")
    targets = np.array([target], dtype=np.int64)
    indices, distances, keys = _lockstep_knn(tree, targets, k, prune)
    if cache is not None:
        cache.record(keys)
    return _neighbor_sets(targets, indices, distances)[0]


def knn_all(
    tree: KdTree, k: int, prune: bool = True
) -> tuple[list[NeighborSet], SparseDistanceMatrix]:
    """k nearest neighbors of every point, sharing one distance cache.

    Each query evaluates the pairs :func:`knn_query` would; the cache holds
    their union, each pair computed once.
    """
    _check_k(tree, k)
    targets = np.arange(tree.dataset.n)
    indices, distances, keys = _lockstep_knn(tree, targets, k, prune)
    cache = SparseDistanceMatrix(tree.dataset.points, tree)
    cache.record(keys)
    return _neighbor_sets(targets, indices, distances), cache


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
