"""Exact k-nearest-neighbor and nearest-denser search over a k-d tree.

The tree splits on the maximum-variance dimension at the median point, one
point per node, and queries backtrack with hyperplane pruning.  Every
point-to-point distance evaluated on the way is recorded in a shared
:class:`~sktdpc.sparse.SparseDistanceMatrix`, which downstream stages reuse.

The nearest-denser query finds, for one point, the closest point of smaller
density rank.  Besides the hyperplane bound it skips every subtree whose
smallest rank (:func:`subtree_min_rank`) is not smaller than the query's,
as in the dependent-point search of Ex-DPC (Amagata & Hara, SIGMOD 2021).
"""

from __future__ import annotations

import heapq
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


class _Node:
    __slots__ = ("index", "dim", "value", "left", "right")

    def __init__(self, index, dim, value, left, right):
        self.index = index
        self.dim = dim
        self.value = value
        self.left = left
        self.right = right


class KdTree:
    """Spatial index over a Dataset; immutable once built."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._coords = [tuple(row) for row in dataset.points.tolist()]
        self.root = _build_node(dataset.points, np.arange(dataset.n))

    def depth(self) -> int:
        def walk(node):
            if node is None:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def dump(self) -> str:
        """Indented text rendering of the tree structure, for golden tests."""
        out: list[str] = []

        def walk(node, indent):
            if node is None:
                return
            if node.left is None and node.right is None:
                out.append(f"{'  ' * indent}leaf point={node.index}")
            else:
                out.append(
                    f"{'  ' * indent}node point={node.index} dim={node.dim} split={node.value!r}"
                )
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(self.root, 0)
        return "\n".join(out)


def _build_node(points: np.ndarray, subset: np.ndarray):
    if len(subset) == 0:
        return None
    if len(subset) == 1:
        return _Node(int(subset[0]), -1, 0.0, None, None)
    variances = points[subset].var(axis=0)
    dim = int(np.argmax(variances))  # ties: lowest dimension index
    coords = points[subset, dim]
    order = np.lexsort((subset, coords))
    ranked = subset[order]
    mid = (len(ranked) + 1) // 2 - 1  # rank ceil(count/2), 1-based
    pivot = int(ranked[mid])
    split_value = float(points[pivot, dim])
    rest = np.concatenate([ranked[:mid], ranked[mid + 1 :]])
    rest_coords = points[rest, dim]
    left = rest[rest_coords <= split_value]
    right = rest[rest_coords > split_value]
    return _Node(
        pivot,
        dim,
        split_value,
        _build_node(points, left),
        _build_node(points, right),
    )


def build(d: Dataset) -> KdTree:
    """Build the spatial index: max-variance split dimension, median split point."""
    return KdTree(d)


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
    verification hook and must return the identical result.
    """
    n = tree.dataset.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if not 0 <= target < n:
        raise ValueError(f"target index {target} out of range")
    if cache is None:
        cache = SparseDistanceMatrix(tree.dataset.points)

    coords = tree._coords[target]
    distance = cache.distance
    # Max-heap of the best k candidates: heap root is the worst kept
    # (largest distance, then largest index), as (-distance, -index).
    heap: list[tuple[float, int]] = []

    def search(node):
        idx = node.index
        if idx != target:
            d = distance(target, idx)
            if len(heap) < k:
                heapq.heappush(heap, (-d, -idx))
            else:
                worst_d, worst_i = heap[0]
                if (d, idx) < (-worst_d, -worst_i):
                    heapq.heapreplace(heap, (-d, -idx))
        if node.dim < 0:
            return
        diff = coords[node.dim] - node.value
        if diff <= 0.0:
            near, far = node.left, node.right
        else:
            near, far = node.right, node.left
        if near is not None:
            search(near)
        if far is not None and (
            not prune
            or len(heap) < k
            or (diff if diff >= 0.0 else -diff) <= -heap[0][0]
        ):
            search(far)

    search(tree.root)
    del search  # breaks the closure's self-reference, so the cache is freed by refcount
    found = sorted((-d, -i) for d, i in heap)
    return NeighborSet(target, tuple((i, d) for d, i in found))


def knn_all(
    tree: KdTree, k: int, prune: bool = True
) -> tuple[list[NeighborSet], SparseDistanceMatrix]:
    """k nearest neighbors of every point, sharing one distance cache.

    Queries run in point-index order; the final cache content is the union
    of all evaluated pairs and does not depend on that order.
    """
    cache = SparseDistanceMatrix(tree.dataset.points, tree)
    sets = [knn_query(tree, i, k, cache, prune) for i in range(tree.dataset.n)]
    return sets, cache


def subtree_min_rank(tree: KdTree, rank: list[int]) -> list[int]:
    """Smallest ``rank`` in the subtree under each node, indexed by the
    node's point (each point owns exactly one node).  One O(n) pass."""
    preorder = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    low = list(rank)
    for node in reversed(preorder):  # children before their parent
        m = low[node.index]
        if node.left is not None and low[node.left.index] < m:
            m = low[node.left.index]
        if node.right is not None and low[node.right.index] < m:
            m = low[node.right.index]
        low[node.index] = m
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
    coords = tree._coords[target]
    distance = cache.distance
    r = rank[target]
    best_d, best_j = math.inf, -1
    stack = [(tree.root, 0.0)]  # (node, lower bound on distances in its subtree)
    while stack:
        node, bound = stack.pop()
        if min_rank[node.index] >= r or bound > best_d:
            continue
        idx = node.index
        if rank[idx] < r:
            d = distance(target, idx)
            if best_j < 0 or d < best_d or (d == best_d and idx < best_j):
                best_d, best_j = d, idx
        if node.dim < 0:
            continue
        diff = coords[node.dim] - node.value
        if diff <= 0.0:
            near, far = node.left, node.right
        else:
            near, far = node.right, node.left
        if far is not None:
            stack.append((far, -diff if diff <= 0.0 else diff))
        if near is not None:
            stack.append((near, bound))
    return best_d, best_j
