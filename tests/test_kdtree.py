import math

import numpy as np
import pytest

from conftest import random_dataset
from sktdpc.baseline import brute_knn, full_matrix
from sktdpc.dataset import Dataset, generate_gaussian_blobs
from sktdpc.kdtree import build, knn_all, knn_query, nearest_denser_query, subtree_min_rank
from sktdpc.sparse import SparseDistanceMatrix


def test_build_three_collinear_points():
    d = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    tree = build(d)
    assert tree.root.dim == 1  # variance 0 vs 2/3
    assert tree.root.value == 1.0  # median of {0, 1, 2}
    assert tree.root.index == 1


def test_build_single_point():
    tree = build(Dataset(np.array([[5.0, 5.0]])))
    assert tree.root.index == 0
    assert tree.root.left is None and tree.root.right is None
    assert tree.depth() == 1


def test_every_point_appears_exactly_once():
    d = random_dataset(1, n=73, dim=3)
    tree = build(d)
    seen = []

    def walk(node):
        if node is None:
            return
        seen.append(node.index)
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    assert sorted(seen) == list(range(73))


def test_split_rule_left_le_right_gt():
    d = random_dataset(2, n=50, dim=2)
    tree = build(d)

    def walk(node):
        if node is None or node.dim < 0:
            return
        for side, cmp in ((node.left, lambda v: v <= node.value),
                          (node.right, lambda v: v > node.value)):
            stack = [side]
            while stack:
                cur = stack.pop()
                if cur is None:
                    continue
                assert cmp(d.points[cur.index, node.dim])
                stack.extend([cur.left, cur.right])
        walk(node.left)
        walk(node.right)

    walk(tree.root)


def test_depth_bound_on_uniform_points():
    rng = np.random.default_rng(123)
    d = Dataset(rng.uniform(0, 1, size=(1000, 2)))
    tree = build(d)
    assert tree.depth() <= 2 * math.ceil(math.log2(1000)) + 1


def test_two_point_query():
    d = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]))
    tree = build(d)
    ns = knn_query(tree, 0, 1)
    assert ns.neighbors == ((1, 5.0),)
    assert ns.radius == 5.0


def test_exhaustive_k():
    d = random_dataset(3, n=20, dim=2)
    tree = build(d)
    m = full_matrix(d)
    for i in range(d.n):
        ns = knn_query(tree, i, d.n - 1)
        assert ns.k == d.n - 1
        assert list(ns.distances) == sorted(ns.distances)
        assert ns == brute_knn(m, i, d.n - 1)


def test_oracle_equivalence_500_points_5d():
    d = random_dataset(77, n=500, dim=5)
    tree = build(d)
    m = full_matrix(d)
    cache = SparseDistanceMatrix(d.points)
    for i in range(d.n):
        assert knn_query(tree, i, 7, cache) == brute_knn(m, i, 7)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_equivalence_random_shapes(seed):
    d = random_dataset(seed + 100)
    k = int(np.random.default_rng(seed).integers(1, 21))
    k = min(k, d.n - 1)
    tree = build(d)
    m = full_matrix(d)
    for i in range(d.n):
        assert knn_query(tree, i, k) == brute_knn(m, i, k)


def test_pruning_soundness():
    d = random_dataset(5, n=200, dim=3)
    tree = build(d)
    for i in range(0, d.n, 7):
        assert knn_query(tree, i, 9, prune=True) == knn_query(tree, i, 9, prune=False)


def test_duplicate_points_are_neighbors_at_zero():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
    tree = build(Dataset(pts))
    ns = knn_query(tree, 0, 2)
    assert ns.neighbors == ((1, 0.0), (2, 0.0))


def test_grid_ties_break_by_index():
    # all four corners equidistant from the center point
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
    tree = build(Dataset(pts))
    ns = knn_query(tree, 4, 2)
    assert ns.indices == (0, 1)


def test_knn_all_cache_two_points():
    d = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]))
    tree = build(d)
    sets, cache = knn_all(tree, 1)
    assert len(cache) == 1
    assert cache.evaluations == 1
    assert sets[0].neighbors == ((1, 1.0),)


def test_cache_symmetry_and_sparsity(two_blobs):
    tree = build(two_blobs)
    _, cache = knn_all(tree, 5)
    n = two_blobs.n
    full_pairs = n * (n - 1) // 2
    assert len(cache) <= full_pairs
    assert len(cache) < full_pairs  # clustered 2-D data at small k stays sparse
    for i, j in list(cache.pairs())[:500]:
        assert cache.get(i, j) == cache.get(j, i)


def test_cache_matches_full_matrix(two_blobs):
    m = full_matrix(two_blobs)
    tree = build(two_blobs)
    _, cache = knn_all(tree, 4)
    for i, j in cache.pairs():
        assert cache.get(i, j) == m[i, j]


def test_cache_counts_each_pair_once():
    cache = SparseDistanceMatrix(np.array([[0.0], [3.0]]))
    assert cache.distance(0, 1) == 3.0
    assert cache.distance(1, 0) == 3.0
    assert cache.evaluations == 1
    assert cache.get(0, 1) == 3.0
    assert (0, 1) in cache and (1, 0) in cache
    assert cache.get(0, 0) == 0.0


def test_cache_absent_pair_distinguished_from_zero():
    cache = SparseDistanceMatrix(np.array([[0.0], [0.0], [5.0]]))
    assert cache.get(0, 1) is None
    assert cache.distance(0, 1) == 0.0
    assert cache.get(0, 1) == 0.0


def test_knn_all_deterministic(two_blobs):
    tree = build(two_blobs)
    sets_a, cache_a = knn_all(tree, 6)
    sets_b, cache_b = knn_all(build(two_blobs), 6)
    assert sets_a == sets_b
    assert cache_a.pairs() == cache_b.pairs()
    assert cache_a.evaluations == cache_b.evaluations


def test_query_rejects_bad_k():
    tree = build(Dataset(np.array([[0.0], [1.0], [2.0]])))
    with pytest.raises(ValueError):
        knn_query(tree, 0, 0)
    with pytest.raises(ValueError):
        knn_query(tree, 0, 3)


def test_dump_golden():
    d = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    tree = build(d)
    assert tree.dump() == (
        "node point=1 dim=1 split=1.0\n"
        "  leaf point=0\n"
        "  leaf point=2"
    )


def test_twelve_point_cache_shape():
    d = random_dataset(21, n=12, dim=2)
    tree = build(d)
    _, cache = knn_all(tree, 3)
    assert 0 < len(cache) < 12 * 11 // 2
    touched = cache.pairs()
    for i in range(12):
        for j in range(i + 1, 12):
            if (i, j) in touched:
                assert cache.get(i, j) == cache.get(j, i) is not None
            else:
                assert cache.get(i, j) is None


def test_concurrent_queries_share_cache():
    from concurrent.futures import ThreadPoolExecutor

    d = random_dataset(30, n=250, dim=3)
    tree = build(d)
    serial_sets, serial_cache = knn_all(tree, 6)
    shared = SparseDistanceMatrix(d.points)
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda i: knn_query(tree, i, 6, shared), range(d.n)))
    assert threaded == serial_sets
    assert shared.pairs() == serial_cache.pairs()


def test_query_on_tight_cluster_field():
    d = generate_gaussian_blobs(
        np.random.default_rng(8).uniform(0, 50, size=(10, 2)),
        spread=0.5, points_per_cluster=30, seed=8,
    )
    tree = build(d)
    m = full_matrix(d)
    for i in range(0, d.n, 11):
        assert knn_query(tree, i, 10) == brute_knn(m, i, 10)


def _lattice():
    """8x8 integer lattice in shuffled index order: equidistant points sit on
    both sides of split planes, and geometry does not follow index."""
    grid = np.array([(x, y) for x in range(8) for y in range(8)], dtype=float)
    return Dataset(grid[np.random.default_rng(5).permutation(64)])


def _coincident():
    """Clumps of coincident points (distance 0) among distinct ones."""
    rng = np.random.default_rng(6)
    clumps = np.repeat(rng.integers(0, 4, size=(6, 2)).astype(float), 4, axis=0)
    return Dataset(np.vstack([clumps, rng.integers(0, 4, size=(16, 2)).astype(float)]))


@pytest.mark.parametrize("make", [_lattice, _coincident])
def test_nearest_denser_query_matches_scan_with_ties(make):
    d = make()
    tree = build(d)
    m = full_matrix(d)
    rng = np.random.default_rng(7)
    tied = zero_tied = 0
    for _ in range(5):
        rank = rng.permutation(d.n).tolist()
        low = subtree_min_rank(tree, rank)
        cache = SparseDistanceMatrix(d.points)
        for i in range(d.n):
            denser = [j for j in range(d.n) if rank[j] < rank[i]]
            got = nearest_denser_query(tree, i, rank, low, cache)
            if not denser:
                assert got == (math.inf, -1)
                continue
            want = min((m[i, j], j) for j in denser)
            assert got == want
            ties = sum(m[i, j] == want[0] for j in denser) > 1
            tied += ties
            zero_tied += ties and want[0] == 0.0
    assert tied > 0
    assert (zero_tied > 0) == (make is _coincident)
