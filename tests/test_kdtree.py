import ast
import heapq
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import adversarial, random_dataset
from sktdpc.baseline import brute_knn_all, full_matrix
from sktdpc.dataset import Dataset, generate_gaussian_blobs
from sktdpc import kdtree
from sktdpc.kdtree import build, knn_all, nearest_denser_query, subtree_min_rank
from sktdpc.sparse import SparseDistanceMatrix


def _assert_same_neighbors(got, want):
    """Neighbor indices equal, and distances equal bit for bit."""
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert got.indices.tolist() == want.indices.tolist()
    assert got.distances.tobytes() == want.distances.tobytes()


def _assert_knn_all_equals_brute_force(d, k):
    _assert_same_neighbors(knn_all(build(d), k)[0], brute_knn_all(full_matrix(d), k))


def _subtree(tree, v):
    """Nodes of the subtree under node v, by explicit stack."""
    out, stack = [], [v]
    while stack:
        cur = stack.pop()
        if cur < 0:
            continue
        out.append(cur)
        stack.extend([int(tree.left[cur]), int(tree.right[cur])])
    return out


def test_build_three_collinear_points():
    d = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    tree = build(d)
    assert tree.split_dim[0] == 1  # variance 0 vs 2/3
    assert tree.split_value[0] == 1.0  # median of {0, 1, 2}
    assert tree.point[0] == 1


def test_build_single_point():
    tree = build(Dataset(np.array([[5.0, 5.0]])))
    assert tree.point[0] == 0
    assert tree.left[0] == -1 and tree.right[0] == -1
    assert tree.depth() == 1


def test_every_point_appears_exactly_once():
    d = random_dataset(1, n=73, dim=3)
    tree = build(d)
    seen = [int(tree.point[v]) for v in _subtree(tree, 0)]
    assert sorted(seen) == list(range(73))


def test_split_rule_left_le_right_gt():
    d = random_dataset(2, n=50, dim=2)
    tree = build(d)
    for v in _subtree(tree, 0):
        dim, value = tree.split_dim[v], tree.split_value[v]
        if dim < 0:
            continue
        for side, cmp in ((tree.left[v], lambda x: x <= value),
                          (tree.right[v], lambda x: x > value)):
            for cur in _subtree(tree, side):
                assert cmp(d.points[tree.point[cur], dim])


def test_depth_bound_on_uniform_points():
    rng = np.random.default_rng(123)
    d = Dataset(rng.uniform(0, 1, size=(1000, 2)))
    tree = build(d)
    assert tree.depth() <= 2 * math.ceil(math.log2(1000)) + 1


def test_two_point_query():
    d = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]))
    neighbors, _ = knn_all(build(d), 1)
    assert neighbors.indices.tolist() == [[1], [0]]
    assert neighbors.distances.tolist() == [[5.0], [5.0]]


def test_exhaustive_k():
    d = random_dataset(3, n=20, dim=2)
    neighbors, _ = knn_all(build(d), d.n - 1)
    assert neighbors.indices.shape == neighbors.distances.shape == (d.n, d.n - 1)
    assert (np.diff(neighbors.distances, axis=1) >= 0.0).all()
    _assert_knn_all_equals_brute_force(d, d.n - 1)


def test_oracle_equivalence_500_points_5d():
    _assert_knn_all_equals_brute_force(random_dataset(77, n=500, dim=5), 7)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_equivalence_random_shapes(seed):
    d = random_dataset(seed + 100)
    k = int(np.random.default_rng(seed).integers(1, 21))
    _assert_knn_all_equals_brute_force(d, min(k, d.n - 1))


@pytest.mark.parametrize("dim", [8, 11, 16])
def test_single_query_distance_bits_in_many_dimensions(dim):
    """One query is one lane, in arrays of width 2; its squared differences
    are still summed dimension by dimension, as ``full_matrix`` sums them
    (numpy's own sum along a contiguous axis adds pairwise from 8 terms up,
    in other bits), and it evaluates the pairs of the recursive search."""
    rng = np.random.default_rng(dim)
    d = Dataset(rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-3, 3, size=(40, dim)))
    tree = build(d)
    want = brute_knn_all(full_matrix(d), 5)
    for i in range(d.n):
        indices, distances, keys = kdtree._lockstep_knn(tree, np.array([i]), 5)
        assert indices.tolist() == want.indices[i : i + 1].tolist()
        assert distances.tobytes() == want.distances[i : i + 1].tobytes()
        ref_cache = SparseDistanceMatrix(d.points)
        reference_knn_query(tree, i, 5, ref_cache)
        assert set(zip(*np.divmod(keys, d.n))) == ref_cache.pairs()
        assert len(keys) == ref_cache.evaluations


def test_duplicate_points_are_neighbors_at_zero():
    d = Dataset(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]))
    neighbors, _ = knn_all(build(d), 2)
    assert neighbors.indices.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1]]
    assert neighbors.distances[:3].tolist() == [[0.0, 0.0]] * 3
    _assert_knn_all_equals_brute_force(d, 2)


def test_grid_ties_break_by_index():
    # all four corners equidistant from the center point
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
    neighbors, _ = knn_all(build(Dataset(pts)), 2)
    assert neighbors.indices[4].tolist() == [0, 1]
    _assert_knn_all_equals_brute_force(Dataset(pts), 2)


def test_knn_all_cache_two_points():
    d = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]))
    tree = build(d)
    neighbors, cache = knn_all(tree, 1)
    assert len(cache) == 1
    assert cache.evaluations == 1
    assert neighbors.indices.tolist() == [[1], [0]]
    assert neighbors.distances.tolist() == [[1.0], [1.0]]


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


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-3, 2), (3, 0), (0, 3), (-1, -1), (3, 3)])
def test_cache_rejects_indices_outside_the_points(i, j):
    """An index outside [0, n) raises instead of wrapping round to another
    point or aliasing another pair's key, and records nothing."""
    cache = SparseDistanceMatrix(np.array([[0.0], [1.0], [5.0]]))
    with pytest.raises(IndexError):
        cache.distance(i, j)
    with pytest.raises(IndexError):
        cache.get(i, j)
    with pytest.raises(IndexError):
        cache.distances(i, np.array([1, j]))
    assert len(cache) == cache.evaluations == 0
    assert cache.get(2, 0) is None
    assert cache.distance(2, 0) == 5.0
    assert cache.pairs() == {(0, 2)} and cache.evaluations == 1


def test_knn_all_deterministic(two_blobs):
    tree = build(two_blobs)
    neighbors_a, cache_a = knn_all(tree, 6)
    neighbors_b, cache_b = knn_all(build(two_blobs), 6)
    _assert_same_neighbors(neighbors_a, neighbors_b)
    assert cache_a.pairs() == cache_b.pairs()
    assert cache_a.evaluations == cache_b.evaluations


def test_query_rejects_bad_k():
    tree = build(Dataset(np.array([[0.0], [1.0], [2.0]])))
    with pytest.raises(ValueError, match=r"^k must be in \[1, 2\], got 0$"):
        knn_all(tree, 0)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 2\], got 3$"):
        knn_all(tree, 3)


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


def test_cache_shared_by_threads_loses_no_pair():
    """Single pairs from ``distance`` and whole rows from ``distances`` race
    on one cache built by ``knn_all`` under a short switch interval; nothing
    is lost or counted twice, and every value has the bits of a serial run."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    d = random_dataset(31, n=120, dim=2)
    tree = build(d)
    late = [(i, (7 * i + 3) % d.n) for i in range(d.n)]
    rows = [(i, np.arange(i % 3, d.n, 3)) for i in range(0, d.n, 5)]
    _, want = knn_all(tree, 4)
    want_late = [want.distance(i, j) for i, j in late]
    want_rows = [want.distances(i, js) for i, js in rows]
    _, shared = knn_all(tree, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(shared.distance, i, j) for i, j in late]
            futures += [pool.submit(shared.distances, i, js) for i, js in rows]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert np.array(results[: len(late)]).tobytes() == np.array(want_late).tobytes()
    for got, row in zip(results[len(late) :], want_rows):
        assert got.tobytes() == row.tobytes()
    assert shared.pairs() == want.pairs()
    assert shared.evaluations == want.evaluations == len(shared)


def test_query_on_tight_cluster_field():
    d = generate_gaussian_blobs(
        np.random.default_rng(8).uniform(0, 50, size=(10, 2)),
        spread=0.5, points_per_cluster=30, seed=8,
    )
    _assert_knn_all_equals_brute_force(d, 10)


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


def reference_knn_query(tree, target, k, cache):
    """The recursive depth-first search the lockstep traversal replaced, kept
    as its oracle: near child first, far child only when fewer than k
    candidates are kept, or the plane is no farther than the k-th best; one
    scalar ``cache.distance`` per visited node."""
    point, split_dim, split_value, left, right = (
        a.tolist() for a in (tree.point, tree.split_dim, tree.split_value, tree.left, tree.right)
    )
    coords = tree.dataset.points[target].tolist()
    # Max-heap of the best k candidates: heap root is the worst kept
    # (largest distance, then largest index), as (-distance, -index).
    heap = []

    def search(v):
        idx = point[v]
        if idx != target:
            d = cache.distance(target, idx)
            if len(heap) < k:
                heapq.heappush(heap, (-d, -idx))
            else:
                worst_d, worst_i = heap[0]
                if (d, idx) < (-worst_d, -worst_i):
                    heapq.heapreplace(heap, (-d, -idx))
        if split_dim[v] < 0:
            return
        diff = coords[split_dim[v]] - split_value[v]
        if diff <= 0.0:
            near, far = left[v], right[v]
        else:
            near, far = right[v], left[v]
        if near >= 0:
            search(near)
        if far >= 0 and (len(heap) < k or (diff if diff >= 0.0 else -diff) <= -heap[0][0]):
            search(far)

    search(0)
    found = sorted((-d, -i) for d, i in heap)
    return [i for _, i in found], [d for d, _ in found]


def _assert_knn_all_equals_reference(d, k):
    """Neighbors (distance bits included), evaluated pair set, evaluation
    count and read-back distance bits of ``knn_all`` equal the recursive
    search's."""
    tree = build(d)
    neighbors, cache = knn_all(tree, k)
    ref_cache = SparseDistanceMatrix(d.points)
    want = [reference_knn_query(tree, i, k, ref_cache) for i in range(d.n)]
    assert neighbors.indices.tolist() == [indices for indices, _ in want]
    assert neighbors.distances.tobytes() == np.array([row for _, row in want]).tobytes()
    assert cache.pairs() == ref_cache.pairs()
    assert cache.evaluations == ref_cache.evaluations == len(cache)
    for i, j in ref_cache.pairs():
        want_bits = np.float64(ref_cache.get(i, j)).tobytes()
        assert np.float64(cache.get(i, j)).tobytes() == want_bits


def _random(dim):
    def make():
        return Dataset(np.random.default_rng(40 + dim).normal(size=(90, dim)))

    make.__name__ = f"random_{dim}d"
    return make


@pytest.mark.parametrize("k", [1, 7, "n-1"])
@pytest.mark.parametrize(
    "make", [_lattice, _coincident, _random(1), _random(2), _random(8)],
    ids=lambda make: make.__name__,
)
def test_knn_all_equals_reference_search(make, k):
    d = make()
    _assert_knn_all_equals_reference(d, d.n - 1 if k == "n-1" else k)


def test_knn_all_equals_reference_search_beyond_1024_lanes():
    """1100 queries start in lanes that are not padded to a power of two
    and are moved to narrower arrays several times, down to a few lanes."""
    grid = np.stack(np.meshgrid(np.arange(11), np.arange(10), np.arange(10)), -1)
    points = grid.reshape(-1, 3).astype(float)
    d = Dataset(points[np.random.default_rng(11).permutation(len(points))])
    assert d.n > 1024
    _assert_knn_all_equals_reference(d, 7)


@settings(max_examples=150, deadline=None)
@given(adversarial())
def test_knn_all_equals_reference_search_on_adversarial_inputs(case):
    _assert_knn_all_equals_reference(*case)


def test_identical_points_build_and_search_without_recursion():
    d = Dataset(np.full((1500, 2), 0.25))
    tree = build(d)
    assert tree.depth() == 1500  # ties all go left (ROADMAP item 2)
    assert len(tree.dump().splitlines()) == 1500
    neighbors, cache = knn_all(tree, 7)
    assert neighbors.indices[:2].tolist() == [[1, 2, 3, 4, 5, 6, 7], [0, 2, 3, 4, 5, 6, 7]]
    assert (neighbors.distances == 0.0).all()
    assert len(cache) == 1500 * 1499 // 2


def test_cache_keys_at_large_n_do_not_overflow():
    """Keys ``lo * n + hi`` pass 2**31 at n = 100 000; no int32 step may wrap."""
    n = 100_000
    pairs = {(n - 2, n - 1), (0, n - 1), (n - 3, n - 1), (1, 2)}
    keys = np.array([lo * n + hi for lo, hi in pairs], dtype=np.int64)
    assert keys.max() > np.iinfo(np.int32).max
    points = np.arange(n, dtype=float)[:, None]
    cache = SparseDistanceMatrix(points, keys=np.concatenate([keys, keys[::-1]]))
    assert cache.pairs() == pairs
    for lo, hi in pairs:
        assert cache.get(hi, lo) == cache.get(lo, hi) == hi - lo
        assert (hi, lo) in cache
    assert cache.distance(n - 1, n - 4) == 3.0
    assert cache.pairs() == pairs | {(n - 4, n - 1)}
    assert len(cache) == cache.evaluations == 5
    assert (n - 5, n - 1) not in cache and cache.get(n - 1, n - 5) is None


def test_cache_reads_every_pair_with_full_matrix_bits():
    """Every pair of 800 points handed to the constructor reads back through
    ``get``, ``distance`` and ``distances`` bit-identical to ``full_matrix``,
    and reading a recorded pair again never counts it again."""
    d = random_dataset(32, n=800, dim=3)
    m = full_matrix(d)
    lo, hi = np.triu_indices(d.n, 1)
    cache = SparseDistanceMatrix(d.points, keys=(lo * d.n + hi)[::-1].copy())
    got = np.array([cache.get(i, j) for i, j in zip(lo.tolist(), hi.tolist())])
    assert got.tobytes() == m[lo, hi].tobytes()
    assert len(cache) == cache.evaluations == len(lo)
    got = np.array([cache.distance(j, i) for i, j in zip(lo.tolist(), hi.tolist())])
    assert got.tobytes() == m[lo, hi].tobytes()
    for i in range(d.n):
        assert cache.distances(i, np.arange(d.n)).tobytes() == m[i].tobytes()
    assert len(cache) == cache.evaluations == len(lo)


def test_cache_bulk_and_late_pairs_agree(two_blobs):
    """Pairs from the k-NN block and pairs added one at a time by
    ``distance`` answer ``get``, ``in``, ``pairs()``, ``len`` and
    ``evaluations`` alike."""
    m = full_matrix(two_blobs)
    _, cache = knn_all(build(two_blobs), 4)
    bulk = cache.pairs()
    assert len(cache) == cache.evaluations == len(bulk)
    late = {(0, j) for j in range(1, two_blobs.n) if (0, j) not in bulk}
    assert late
    for i, j in sorted(late):
        assert cache.get(i, j) is None and (j, i) not in cache
        assert cache.distance(j, i) == m[i, j]
    for i, j in sorted(bulk)[:50]:
        assert cache.distance(j, i) == m[i, j]  # stored: not counted again
    assert cache.pairs() == bulk | late
    assert len(cache) == cache.evaluations == len(bulk) + len(late)
    for i, j in cache.pairs():
        assert cache.get(i, j) == cache.get(j, i) == m[i, j]
        assert (i, j) in cache and (j, i) in cache


@pytest.mark.parametrize("i", [0, 17, 59])
def test_cache_distances_equal_repeated_distance(two_blobs, i):
    """``distances(i, js)`` gives the bits, the stored pairs and the
    evaluation count of one ``distance(i, j)`` per j, on a cache holding k-NN
    pairs in its block and late pairs, of i and of others, in its dict."""
    tree = build(two_blobs)
    caches = [knn_all(tree, 4)[1] for _ in range(2)]
    rng = np.random.default_rng(i)
    late = [(int(a), int(b)) for a, b in rng.integers(0, two_blobs.n, (40, 2))]
    late += [(i, int(j)) for j in rng.integers(0, two_blobs.n, 15)]
    for cache in caches:
        for a, b in late:
            cache.distance(a, b)
    assert caches[0]._extra and caches[0].pairs() == caches[1].pairs()
    js = rng.permutation(two_blobs.n)  # i itself included
    got = caches[0].distances(i, js)
    want = np.array([caches[1].distance(i, int(j)) for j in js])
    assert got.tobytes() == want.tobytes()
    assert caches[0].pairs() == caches[1].pairs()
    assert caches[0].evaluations == caches[1].evaluations == len(caches[0])
    assert caches[0].distances(i, js[:0]).shape == (0,)
    assert caches[0].distances(i, js).tobytes() == got.tobytes()  # all stored now
    assert caches[0].evaluations == caches[1].evaluations



def reference_build(points, subsets=None):
    """The per-node stack build the level-by-level build replaced, kept as its
    oracle: preorder lists (point, split_dim, split_value, left, right) and
    depth.  Each internal node's points, in the row order its variance is
    taken in, are appended to ``subsets`` when one is given."""
    n = len(points)
    point, split_dim, split_value = [], [], []
    left = [-1] * n
    right = [-1] * n
    depth = 0
    # (points of the subtree, parent node, the parent's child list, level)
    stack = [(np.arange(n), -1, left, 1)]
    while stack:
        subset, parent, side, level = stack.pop()
        node = len(point)
        if parent >= 0:
            side[parent] = node
        depth = max(depth, level)
        if len(subset) == 1:
            point.append(int(subset[0]))
            split_dim.append(-1)
            split_value.append(0.0)
            continue
        if subsets is not None:
            subsets.append(subset)
        dim = int(np.argmax(points[subset].var(axis=0)))  # ties: lowest dimension
        order = np.lexsort((subset, points[subset, dim]))
        ranked = subset[order]
        mid = (len(ranked) + 1) // 2 - 1  # rank ceil(count/2), 1-based
        pivot = int(ranked[mid])
        value = float(points[pivot, dim])
        point.append(pivot)
        split_dim.append(dim)
        split_value.append(value)
        rest = np.concatenate([ranked[:mid], ranked[mid + 1 :]])
        rest_coords = points[rest, dim]
        low = rest[rest_coords <= value]
        high = rest[rest_coords > value]
        # pushed right first, so the left subtree is numbered first
        if len(high):
            stack.append((high, node, right, level + 1))
        if len(low):
            stack.append((low, node, left, level + 1))
    return (point, split_dim, split_value, left, right), depth


def _assert_build_equals_reference(points):
    tree = build(Dataset(points))
    want, depth = reference_build(points)
    got = (tree.point, tree.split_dim, tree.split_value, tree.left, tree.right)
    for g, w in zip(got, want):
        w = np.array(w)
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    assert tree.depth() == depth


def _named(name, make):
    make.__name__ = name
    return make


def _ties(dim):
    """Integer data with many equal coordinates and equal variances."""
    return _named(
        f"ties_{dim}d",
        lambda: np.random.default_rng(60 + dim).integers(0, 4, size=(120, dim)).astype(float),
    )


def _witness():
    """Tie-heavy 300x3 integer data on which segment sums taken by
    ``np.add.reduceat`` pick another split dimension somewhere."""
    return np.random.default_rng(0).integers(0, 6, size=(300, 3)).astype(float)


def _scaled(exponent):
    """Gaussian and integer rows scaled by a power of two: squares overflow
    to inf at 2^600 and underflow to 0 at 2^-600."""

    def make():
        rng = np.random.default_rng(70)
        return np.vstack([rng.normal(size=(150, 3)), rng.integers(0, 3, size=(50, 3))]) * 2.0**exponent

    return _named(f"scaled_2^{exponent}", make)


def _fixed(name, rows):
    return _named(name, lambda: np.array(rows, dtype=float))


_lattice_points = _named("lattice", lambda: _lattice().points)
_BUILD_CASES = [
    _lattice_points,
    *(_ties(dim) for dim in range(1, 9)),
    _witness,
    _named("identical_1500x2", lambda: np.full((1500, 2), 0.25)),
    _named("identical_40x3", lambda: np.full((40, 3), -1.5)),
    _fixed("two_equal", [[0.0, 0.0], [0.0, 0.0]]),
    _fixed("two", [[1.0, 2.0], [3.0, 4.0]]),
    _fixed("three_1d", [[0.0], [1.0], [0.0]]),
    _fixed("three_3d", [[0.5, 0.0, 2.0], [0.5, 1.0, 2.0], [0.5, 1.0, -2.0]]),
    _scaled(600),
    _scaled(-600),
]


@pytest.mark.parametrize("make", _BUILD_CASES, ids=lambda make: make.__name__)
def test_build_equals_reference_build(make):
    _assert_build_equals_reference(make())


@settings(max_examples=200, deadline=None)
@given(adversarial())
def test_build_equals_reference_build_on_adversarial_inputs(case):
    _assert_build_equals_reference(case[0].points)


@pytest.mark.parametrize(
    "make", [_lattice_points, _ties(2), _ties(8), _witness, _scaled(600), _scaled(-600)],
    ids=lambda make: make.__name__,
)
def test_blocked_variances_equal_numpy_var_at_every_internal_node(make):
    points = make()
    subsets = []
    reference_build(points, subsets)
    size = np.array([len(s) for s in subsets])
    got = kdtree._variances(points, np.concatenate(subsets), np.cumsum(size) - size, size)
    want = np.array([points[s].var(axis=0) for s in subsets])
    assert got.tobytes() == want.tobytes()


def test_reduceat_variances_change_the_witness_tree(monkeypatch):
    """The witness tells row-order sums from ``np.add.reduceat`` ones: with
    the latter the build no longer equals the reference."""

    def reduceat_variances(points, perm, start, size):
        rows = points[np.concatenate([perm[a : a + m] for a, m in zip(start, size)])]
        offsets = np.cumsum(size) - size
        count = size[:, None]
        mean = np.add.reduceat(rows, offsets, axis=0) / count
        rows -= np.repeat(mean, size, axis=0)
        return np.add.reduceat(rows * rows, offsets, axis=0) / count

    points = _witness()
    monkeypatch.setattr(kdtree, "_variances", reduceat_variances)
    with pytest.raises(AssertionError):
        _assert_build_equals_reference(points)


def test_build_has_no_recursion():
    """Nothing in ``kdtree`` calls itself: the build, dump and searches all
    keep explicit state, so depth is bounded by memory, not the stack."""
    source = ast.parse(inspect.getsource(kdtree))
    for fn in ast.walk(source):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
                for c in ast.walk(fn) if isinstance(c, ast.Call)
            }
            assert fn.name not in called, fn.name
