import ast
import heapq
import inspect
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import adversarial, random_dataset
from sktdpc.baseline import brute_knn_all, full_matrix
from sktdpc.dataset import Dataset, generate_gaussian_blobs
from sktdpc import core, kdtree
from sktdpc.kdtree import build, knn_all, nearest_denser_all, subtree_min_rank
from sktdpc.sparse import SparseDistanceMatrix, key_dtype


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


def _split_values(tree):
    """Each node's split value, ``points[point[v], split_dim[v]]``, as the
    tree's ``dump`` derives it (a leaf's entry is not used)."""
    return tree.dataset.points[tree.point, tree.split_dim].tolist()


def test_build_three_collinear_points():
    d = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    tree = build(d)
    assert tree.split_dim[0] == 1  # variance 0 vs 2/3
    assert _split_values(tree)[0] == 1.0  # median of {0, 1, 2}
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


def test_split_rule_by_rank():
    """Every left-subtree point precedes the node's point in (coordinate,
    index) order of its split dimension and every right-subtree point
    follows it, so coordinates satisfy left <= split value <= right."""
    for points in (random_dataset(2, n=50, dim=2).points, _lattice_points(), _ties(3)(), _witness()):
        tree = build(Dataset(points))
        for v in _subtree(tree, 0):
            dim, pivot = tree.split_dim[v], int(tree.point[v])
            if dim < 0:
                continue
            value = points[pivot, dim]
            for cur in _subtree(tree, tree.left[v]):
                p = int(tree.point[cur])
                assert (points[p, dim], p) < (value, pivot) and points[p, dim] <= value
            for cur in _subtree(tree, tree.right[v]):
                p = int(tree.point[cur])
                assert (points[p, dim], p) > (value, pivot) and points[p, dim] >= value


def _longest_path(tree):
    """Nodes on the longest root-to-leaf path, read from the child arrays."""
    longest, stack = 0, [(0, 1)]
    while stack:
        v, level = stack.pop()
        longest = max(longest, level)
        stack.extend((int(c), level + 1) for c in (tree.left[v], tree.right[v]) if c >= 0)
    return longest


def test_depth_bound_on_uniform_points():
    rng = np.random.default_rng(123)
    d = Dataset(rng.uniform(0, 1, size=(1000, 2)))
    tree = build(d)
    assert _longest_path(tree) == tree.depth() == (1000).bit_length()


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
    """A single query sums its squared differences dimension by dimension,
    as ``full_matrix`` sums them (a pairwise or vectorised sum, as numpy's
    own along a contiguous axis from 8 terms up, gives other bits), and it
    evaluates the pairs of the recursive search."""
    rng = np.random.default_rng(dim)
    d = Dataset(rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-3, 3, size=(40, dim)))
    tree = build(d)
    want = brute_knn_all(full_matrix(d), 5)
    for i in range(d.n):
        indices, distances, keys = kdtree._knn(tree, np.array([i]), 5)
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


@pytest.mark.parametrize(
    "call",
    [
        lambda c: c.distance(1.5, 2),
        lambda c: c.distance(1, 2.0),
        lambda c: c.get(0.5, 1),
        lambda c: c.distances(1.5, np.array([2])),
        lambda c: c.distances(1, np.array([2.7])),
        lambda c: c.distances(1, [0, 2.0]),
    ],
)
def test_cache_rejects_non_integer_indices_and_records_nothing(call):
    cache = SparseDistanceMatrix(np.array([[0.0], [1.0], [5.0]]))
    with pytest.raises(TypeError):
        call(cache)
    assert len(cache) == 0 and cache.pairs() == set()


def test_cache_takes_numpy_integers_and_empty_index_arrays():
    cache = SparseDistanceMatrix(np.array([[0.0], [1.0], [5.0]]))
    assert cache.distance(np.int64(0), np.int32(2)) == 5.0
    assert cache.distances(np.int64(1), np.array([], dtype=float)).tolist() == []
    assert cache.distances(1, []).tolist() == []
    assert cache.distances(1, np.array([2], dtype=np.uint8)).tolist() == [4.0]
    assert cache.pairs() == {(0, 2), (1, 2)}


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


def test_cache_crossing_the_settle_threshold_counts_exactly():
    """4200 ``distance`` calls, over four times the 1024 pending keys that
    trigger a settle: new pairs, pairs of the k-NN block, repeats of both
    and of a common 300, and half the block pairs high index first.  One
    ledger is read after every call, so it settles each time, and counts
    one more evaluation exactly when the pair is new; another is read only
    at the end.  Both give the full-matrix bits, and the pairs and count of
    the block plus every pair called."""
    d = random_dataset(33, n=300, dim=2)
    m = full_matrix(d)
    tree = build(d)
    _, eager = knn_all(tree, 3)
    _, lazy = knn_all(tree, 3)
    bulk = sorted(eager.pairs())
    rng = np.random.default_rng(7)
    common = [(int(a), int(b)) for a, b in rng.integers(0, d.n, (300, 2))]
    calls = []
    for _ in range(2):
        fresh = [(int(a), int(b)) for a, b in rng.integers(0, d.n, (600, 2))]
        picks = rng.integers(0, len(bulk), 600).tolist()
        hits = [bulk[x] if x % 2 else bulk[x][::-1] for x in picks]  # half high index first
        calls += fresh + hits + common + fresh[:300] + hits[:300]
    calls = [calls[x] for x in rng.permutation(len(calls))]
    want_pairs = set(bulk) | {(min(i, j), max(i, j)) for i, j in calls if i != j}
    assert len(calls) == 4200 and len(want_pairs) - len(bulk) > 1024
    seen = set(bulk)
    for i, j in calls:
        before = eager.evaluations
        assert eager.distance(i, j) == lazy.distance(i, j) == m[i, j]
        pair = (min(i, j), max(i, j))
        assert eager.evaluations == before + (i != j and pair not in seen)
        seen.add(pair)
    # the lazy ledger settled four times on the way; a self pair pends no key
    assert len(lazy._pending) == sum(i != j for i, j in calls) - 4 * 1024 > 0
    for cache in (eager, lazy):
        assert cache.evaluations == len(cache) == len(want_pairs)
        assert cache.pairs() == want_pairs


def test_cache_holds_a_row_of_keys_in_an_array():
    """``distances(i, all)`` over n = 100 000 points (int64 keys) leaves the
    ledger holding its 99 999 keys as one array, 0.8 MB; a set of Python
    ints would hold several MB."""
    n = 100_000
    cache = SparseDistanceMatrix(np.random.default_rng(3).random((n, 2)))
    js = np.arange(n)
    tracemalloc.start()
    try:
        cache.distances(5, js)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cache._block.dtype == np.int64 and len(cache) == n - 1
    assert held < 2 * 1024 * 1024


@pytest.mark.parametrize("n", [1000, 50_000])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_cache_takes_read_only_keys(n, dtype):
    """Read-only keys, of the ledger's own dtype or not, are copied before
    the sort: the caller's array is left as it was."""
    lo, hi = np.sort(np.random.default_rng(n).integers(0, 200, (2, 3000)), axis=0)
    keys = (lo * n + hi)[lo < hi].astype(dtype)  # every key below 2**31
    keys = np.concatenate((keys, keys[:500]))
    keys.flags.writeable = False
    given = keys.copy()
    cache = SparseDistanceMatrix(np.arange(n, dtype=float)[:, None], keys=keys)
    assert keys.tobytes() == given.tobytes()
    assert cache._block.dtype == kdtree.key_dtype(n)
    assert len(cache) == cache.evaluations == len(set(zip(lo[lo < hi], hi[lo < hi])))
    assert cache.pairs() == {divmod(int(key), n) for key in given}


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
        rank = rng.permutation(d.n)
        cache = SparseDistanceMatrix(d.points)
        got_d, got_j = nearest_denser_all(tree, np.arange(d.n), rank, cache)
        assert got_d.dtype == np.float64 and got_j.dtype == np.int64
        for i in range(d.n):
            denser = [j for j in range(d.n) if rank[j] < rank[i]]
            got = (float(got_d[i]), int(got_j[i]))
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


def reference_subtree_min_rank(tree, rank):
    """The per-node loop the preorder-run minimum replaced, kept as its
    oracle: children come after their parent in preorder, so one backward
    pass sees every child's minimum before its parent's."""
    point, left, right = tree.point.tolist(), tree.left.tolist(), tree.right.tolist()
    low = [int(rank[p]) for p in point]
    for v in range(len(low) - 1, -1, -1):
        for child in (left[v], right[v]):
            if child >= 0 and low[child] < low[v]:
                low[v] = low[child]
    return low


@pytest.mark.parametrize(
    "points",
    [
        np.random.default_rng(20).uniform(size=(300, 2)),
        np.random.default_rng(21).uniform(size=(257, 5)),
        _lattice().points,
        _coincident().points,
        np.zeros((1500, 2)),
        np.array([[4.0, 2.0]]),
        np.array([[0.0], [1.0]]),
    ],
    ids=["uniform-2d", "uniform-5d", "lattice", "coincident", "identical-1500", "n1", "n2"],
)
def test_subtree_min_rank_equals_per_node_loop(points):
    d = Dataset(points)
    tree = build(d)
    rng = np.random.default_rng(22)
    for rank in (np.arange(d.n), np.arange(d.n)[::-1].copy(), rng.permutation(d.n)):
        assert subtree_min_rank(tree, rank).tolist() == reference_subtree_min_rank(tree, rank)


def _far_bound(rule, gaps, dim, diff):
    """A search's lower bound on the distances from a target to a node's
    point and its far subtree, where ``diff`` is the target's coordinate
    less the split value in the split dimension ``dim``; ``gaps`` are the
    squared gaps from the target to the node's cell.  ``"cell"``: the
    square root of the gaps with gap ``dim`` replaced by ``diff * diff``,
    summed from 0.0 in dimension order, as a distance is summed.
    ``"plane"``: ``sqrt(diff * diff)``, the plane alone.  ``"plain"``:
    ``|diff|``, no lower bound once squares underflow."""
    if rule == "plain":
        return abs(diff)
    if rule == "plane":
        return math.sqrt(diff * diff)
    total = 0.0
    for d, gap in enumerate(gaps):
        total += diff * diff if d == dim else gap
    return math.sqrt(total)


def _far_gaps(gaps, dim, diff):
    """The far child's cell gaps: the node's, with gap ``dim`` the plane's."""
    return gaps[:dim] + [diff * diff] + gaps[dim + 1 :]


def reference_knn_query(tree, target, k, cache, rule="cell", row=(), offer=None):
    """The recursive depth-first search, kept as the oracle of the k-NN
    kernel, which runs it with an explicit stack: near child first.  A
    subtree's cell carries the squared gaps from the target to it, one a
    dimension: 0 at the root, the same in the near child, and in the far
    child the node's with the split dimension's gap replaced by
    ``diff * diff``, ``diff`` being the target's difference to the split
    value.  At an internal node the bound of :func:`_far_bound` (``rule``
    ``"cell"``: the far cell's gaps, summed as a distance is) bounds both
    the node's point and the far subtree: each is evaluated or searched
    only while fewer than k candidates are kept, or the bound is no farther
    than the k-th best.  While fewer than k are kept, the node's point is
    deferred: it is evaluated after the near subtree, and only if the bound
    is then no farther than the k-th best (or fewer than k are still kept).
    Once k are kept, it is evaluated before the near subtree.  A leaf has
    no plane, so its point is always evaluated.  One scalar
    ``cache.distance`` per evaluated point.

    ``rule="plane"`` gives the plane-reach rule, ``sqrt(diff * diff)``, and
    ``rule="plain"`` plain hyperplane pruning, which evaluates every
    visited node's point, deferred or not, and bounds the far subtree by
    ``|diff|``; both are kept as superset checks.

    ``row`` holds the (distance, index) candidates earlier queries offered
    (see :func:`reference_knn_all`): the search starts from them as kept
    candidates and skips their points as it skips the target's, and
    ``offer(idx, d)``, when given, hears every pair it evaluates."""
    point, split_dim, left, right = (
        a.tolist() for a in (tree.point, tree.split_dim, tree.left, tree.right)
    )
    split_value = _split_values(tree)
    coords = tree.dataset.points[target].tolist()
    plain = rule == "plain"
    # Max-heap of the best k candidates: heap root is the worst kept
    # (largest distance, then largest index), as (-distance, -index).
    heap = [(-d, -i) for d, i in row]
    heapq.heapify(heap)
    skipped = {target, *(i for _, i in row)}

    def within(reach):
        return len(heap) < k or reach <= -heap[0][0]

    def evaluate(idx):
        d = cache.distance(target, idx)
        if offer is not None:
            offer(idx, d)
        if len(heap) < k:
            heapq.heappush(heap, (-d, -idx))
        else:
            worst_d, worst_i = heap[0]
            if (d, idx) < (-worst_d, -worst_i):
                heapq.heapreplace(heap, (-d, -idx))

    def search(v, gaps):
        idx, dim = point[v], split_dim[v]
        if dim < 0:
            if idx not in skipped:
                evaluate(idx)
            return
        diff = coords[dim] - split_value[v]
        reach = _far_bound(rule, gaps, dim, diff)
        deferred = idx not in skipped and len(heap) < k
        if idx not in skipped and not deferred and (plain or within(reach)):
            evaluate(idx)
        if diff <= 0.0:
            near, far = left[v], right[v]
        else:
            near, far = right[v], left[v]
        if near >= 0:
            search(near, gaps)
        if deferred and (plain or within(reach)):
            evaluate(idx)
        if far >= 0 and within(reach):
            search(far, _far_gaps(gaps, dim, diff))

    search(0, [0.0] * tree.dataset.dim)
    found = sorted((-d, -i) for d, i in heap)
    return [i for _, i in found], [d for d, _ in found]


def reference_nearest_denser(tree, targets, rank, cache, rule="cell"):
    """The scalar stack walk the kernel's rank filter replaced, kept as its
    oracle: the (distance, index) pair of each target's nearest point of
    smaller rank, ``(inf, -1)`` for none.  Depth first, near child first; a
    popped subtree with no point of smaller rank, or whose bound is strictly
    farther than the best distance, is skipped.  At an internal node the far
    child is pushed only when the bound of :func:`_far_bound` (``rule``
    ``"cell"``: the far cell's gaps, summed as a distance is, the cells'
    gaps kept as :func:`reference_knn_query` keeps them) is at most the
    best distance.  The node's point of smaller rank is evaluated at once
    under the same test once a point is found; before that it is pushed as
    its own entry with that bound, between the far child and the near
    child, so it is popped after the near subtree and skipped like a
    subtree.  A leaf's point of smaller rank is always evaluated.  One
    ``cache.distance(target, j)`` per evaluated point.

    ``rule="plane"`` gives the plane-reach rule and ``rule="plain"`` plain
    hyperplane pruning, which evaluates every visited node's point of
    smaller rank, deferred or not, and bounds the far subtree by
    ``|diff|``; both are kept as superset checks."""
    min_rank = reference_subtree_min_rank(tree, rank)
    point, split_dim, left, right = (
        a.tolist() for a in (tree.point, tree.split_dim, tree.left, tree.right)
    )
    split_value = _split_values(tree)
    rank = rank.tolist()
    plain = rule == "plain"

    def closer(target, idx, best):
        d = cache.distance(target, idx)
        return (d, idx) if best[1] < 0 or (d, idx) < best else best

    out = []
    for target in targets.tolist():
        coords, r = tree.dataset.points[target].tolist(), rank[target]
        best = (math.inf, -1)
        # (node, lower bound on distances in its subtree, or on its point
        # alone when deferred, deferred, its cell's gaps)
        stack = [(0, 0.0, False, [0.0] * tree.dataset.dim)]
        while stack:
            v, bound, deferred, gaps = stack.pop()
            idx, dim = point[v], split_dim[v]
            if deferred:
                if plain or bound <= best[0]:
                    best = closer(target, idx, best)
                continue
            if min_rank[v] >= r or bound > best[0]:
                continue
            reach = 0.0  # a leaf has no plane
            if dim >= 0:
                diff = coords[dim] - split_value[v]
                reach = _far_bound(rule, gaps, dim, diff)
            defer = rank[idx] < r and dim >= 0 and best[1] < 0
            if rank[idx] < r and not defer and (plain or reach <= best[0]):
                best = closer(target, idx, best)
            if dim < 0:
                continue
            near, far = (left[v], right[v]) if diff <= 0.0 else (right[v], left[v])
            if far >= 0 and (plain or reach <= best[0]):
                stack.append((far, reach, False, _far_gaps(gaps, dim, diff)))
            if defer:
                stack.append((v, reach, True, None))
            if near >= 0:
                stack.append((near, bound, False, gaps))
        out.append(best)
    return out


def reference_knn_all(tree, k, cache):
    """The all-queries oracle of the k-NN kernel, around
    :func:`reference_knn_query`: the (indices, distances) row of every
    point, in point order.  The queries run in tree preorder, and each
    point's row is carried from query to query: a pair a query evaluates is
    offered to the other point's row when that point's query comes later,
    and kept there if it is among that row's k best by (distance, index).
    A query starts from its row and skips the points it holds."""
    n = tree.dataset.n
    node = {p: v for v, p in enumerate(tree.point.tolist())}
    rows = [[] for _ in range(n)]  # by point: the (distance, index) pairs offered
    out = [None] * n
    for v, t in enumerate(tree.point.tolist()):

        def offer(j, d):
            if node[j] > v:
                rows[j] = sorted([*rows[j], (d, t)])[:k]

        out[t] = reference_knn_query(tree, t, k, cache, row=rows[t], offer=offer)
    return out


def _assert_knn_all_equals_reference(d, k):
    """Neighbors (distance bits included), the keys written, repeats
    included, the evaluated pair set and count, and the read-back distance
    bits of ``knn_all`` equal those of the seeded all-queries oracle,
    :func:`reference_knn_all`."""
    tree = build(d)
    neighbors, cache = knn_all(tree, k)
    log = _CallLog(d.points)
    want = reference_knn_all(tree, k, log)
    ref_cache = log.ledger
    assert neighbors.indices.tolist() == [indices for indices, _ in want]
    assert neighbors.distances.tobytes() == np.array([row for _, row in want]).tobytes()
    assert cache._block.tolist() == sorted(min(i, j) * d.n + max(i, j) for i, j, _ in log.calls)
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


def test_knn_all_equals_reference_search_as_keys_grow_and_resume(monkeypatch):
    """With the key buffer grown only to room for one more query, the
    kernel stops before every query but the first, and each resumes where
    the last stopped, with its keys after those already written and its
    row as the earlier queries seeded it: fewer keys are written than the
    queries write one at a time, unseeded."""
    grid = np.stack(np.meshgrid(np.arange(11), np.arange(10), np.arange(10)), -1)
    points = grid.reshape(-1, 3).astype(float)
    d = Dataset(points[np.random.default_rng(11).permutation(len(points))])
    tree = build(d)
    unseeded = sum(len(kdtree._knn(tree, np.array([i]), 7)[2]) for i in range(d.n))
    calls = []

    def one_query(n_keys, done, m, n):
        calls.append(done)
        return n_keys + n

    monkeypatch.setattr(kdtree, "_key_capacity", one_query)
    _assert_knn_all_equals_reference(d, 7)
    assert calls == list(range(d.n))
    calls.clear()
    assert len(kdtree._knn(tree, tree.point, 7)[2]) < unseeded
    assert calls == list(range(d.n))


def test_knn_all_equals_reference_search_when_the_key_buffer_fills_exactly(monkeypatch):
    """A query evaluates each other point at most once, so n - 1 free key
    slots are room enough.  At k = n - 1 the first query evaluates all
    n - 1: with the buffer grown to exactly that room, it fills it to its
    last slot.  Every earlier query offered its pair to each later row, so
    query q starts with q points kept, which it skips: it writes n - 1 - q
    keys, the kernel stops before the next, and each pair is written once."""
    d = random_dataset(4, n=40, dim=2)
    calls = []

    def exact_room(n_keys, done, m, n):
        assert n_keys == sum(n - 1 - q for q in range(done))  # the seeded rows survived
        if calls and calls[-1] == done:
            raise AssertionError(f"the kernel stopped before query {done} with n - 1 free slots")
        calls.append(done)
        return n_keys + n - 1

    monkeypatch.setattr(kdtree, "_key_capacity", exact_room)
    _assert_knn_all_equals_reference(d, d.n - 1)
    _assert_knn_all_equals_brute_force(d, d.n - 1)
    assert calls == list(range(d.n)) * 2


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_knn_all_at_k_n_minus_1_on_few_points(n):
    d = random_dataset(n, n=n, dim=2)
    _assert_knn_all_equals_reference(d, n - 1)
    _assert_knn_all_equals_brute_force(d, n - 1)


def test_one_point_has_no_neighbour_and_no_denser_point():
    tree = build(Dataset(np.array([[4.0, 2.0]])))
    with pytest.raises(ValueError, match=r"k must be in \[1, 0\], got 1"):
        knn_all(tree, 1)
    ledger = SparseDistanceMatrix(tree.dataset.points)
    got_d, got_j = nearest_denser_all(tree, np.array([0]), np.array([0]), ledger)
    assert (got_d.tolist(), got_j.tolist()) == ([math.inf], [-1])
    assert ledger.evaluations == 0


@pytest.mark.parametrize("rank", [[0, 1], [1, 0]])
def test_two_points_find_each_other_as_nearest_denser(rank):
    d = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]))
    ledger = SparseDistanceMatrix(d.points)
    got_d, got_j = nearest_denser_all(build(d), np.array([0, 1]), np.array(rank), ledger)
    denser = rank.index(0)
    assert got_d.tolist() == [5.0 if i != denser else math.inf for i in range(2)]
    assert got_j.tolist() == [denser if i != denser else -1 for i in range(2)]
    assert ledger.evaluations == 1


def _root_point_deferred_to_a_tie(tree, target, k):
    """The root's point, which every query defers (nothing is kept when the
    root is popped), asserted to lie on the root's plane at exactly the k-th
    best distance the target keeps after the near subtree, and to have a
    lower index than that k-th neighbour; returned."""
    m = full_matrix(tree.dataset)
    root, s = int(tree.point[0]), int(tree.split_dim[0])
    diff = tree.dataset.points[target, s] - tree.dataset.points[root, s]
    near = int(tree.left[0] if diff <= 0.0 else tree.right[0])
    # the near subtree is searched exactly, so its k best are kept after it
    below = tree.point[_subtree(tree, near)].tolist()
    kept = sorted((m[target, j], j) for j in below if j != target)
    kth_d, kth_j = kept[k - 1]
    assert m[target, root] == math.sqrt(diff * diff) == kth_d and root < kth_j
    return root


def test_a_deferred_point_at_exactly_the_kth_best_is_evaluated():
    """A deferred point whose reach equals the k-th best when it is popped
    is evaluated, and, equidistant with the k-th neighbour and of lower
    index, takes its place: ties go to the lower index.  On the lattice,
    target 12 at k = 3 meets the root's point so."""
    d, k, target = _lattice(), 3, 12
    tree = build(d)
    root = _root_point_deferred_to_a_tie(tree, target, k)
    assert root in knn_all(tree, k)[0].indices[target].tolist()
    _assert_knn_all_equals_brute_force(d, k)


def test_a_deferred_point_at_exactly_the_best_is_evaluated_by_the_rank_filter():
    """The same for the nearest-denser search (k = 1): on a 4 x 4 lattice,
    target 5, the least dense point, meets the root's point at its best
    distance, and the root's point, of lower index, is its answer."""
    grid = np.array([(x, y) for x in range(4) for y in range(4)], dtype=float)
    d, target = Dataset(grid[np.random.default_rng(2).permutation(16)]), 5
    tree = build(d)
    root = _root_point_deferred_to_a_tie(tree, target, 1)
    rank = np.arange(d.n)
    rank[target], rank[-1] = d.n - 1, target
    ledger = SparseDistanceMatrix(d.points)
    got_d, got_j = nearest_denser_all(tree, np.array([target]), rank, ledger)
    assert (got_d.tolist(), got_j.tolist()) == ([full_matrix(d)[target, root]], [root])


def _checkerboard():
    """The 18 points of a 6 x 6 lattice whose coordinates have an even sum,
    shuffled: a point's nearest neighbours lie on the diagonals, at the
    corners of the cells beside it, four of them equidistant."""
    grid = np.array([(x, y) for x in range(6) for y in range(6) if (x + y) % 2 == 0], float)
    return Dataset(grid[np.random.default_rng(4).permutation(len(grid))])


def _corner_tie(tree, target, k):
    """The target's k-th nearest neighbour, asserted to lie at the corner
    of its node's cell, where the cell's gaps to the target are nonzero in
    both dimensions and sum to exactly its squared distance, and to win an
    index tie against an equidistant point left out of the row; returned.
    A search that skipped the cell would keep that other point instead."""
    m = full_matrix(tree.dataset)
    row = knn_all(tree, k)[0].indices[target].tolist()
    j = row[-1]
    u, v = tree.point.tolist().index(j), 0
    x, gaps = tree.dataset.points[target], [0.0] * tree.dataset.dim
    while v != u:
        s = int(tree.split_dim[v])
        diff = x[s] - tree.dataset.points[tree.point[v], s]
        near, far = (tree.left[v], tree.right[v]) if diff <= 0.0 else (tree.right[v], tree.left[v])
        if u in _subtree(tree, int(far)):
            gaps[s], v = diff * diff, int(far)
        else:
            v = int(near)
    assert all(gaps) and math.sqrt(sum(gaps)) == m[target, j]
    assert any(m[target, i] == m[target, j] and i not in row for i in range(j + 1, tree.dataset.n))
    return j


def test_a_point_at_a_cell_corner_at_exactly_the_kth_best_is_evaluated():
    """A far cell whose bound, its gaps summed in both dimensions, equals
    the k-th best when it is popped is searched, and its corner point, at
    exactly that distance and of lower index than the k-th neighbour,
    takes its place.  On the checkerboard, target 10 at k = 3 meets point
    7 so."""
    d, k, target = _checkerboard(), 3, 10
    assert _corner_tie(build(d), target, k) == 7
    _assert_knn_all_equals_brute_force(d, k)


def test_a_point_at_a_cell_corner_at_exactly_the_best_is_evaluated_by_the_rank_filter():
    """The same for the nearest-denser search (k = 1): on the checkerboard,
    every other point denser than target 7, its nearest denser point is
    point 1, at a cell corner and at exactly the best distance."""
    d, target = _checkerboard(), 7
    tree = build(d)
    assert _corner_tie(tree, target, 1) == 1
    rank = np.arange(d.n)
    rank[target], rank[-1] = d.n - 1, target
    ledger = SparseDistanceMatrix(d.points)
    got_d, got_j = nearest_denser_all(tree, np.array([target]), rank, ledger)
    assert (got_d.tolist(), got_j.tolist()) == ([full_matrix(d)[target, 1]], [1])


def test_knn_pairs_per_point_stay_flat_in_n():
    """k-NN pairs per point (distinct pairs over n) on uniform 2-D points
    at k = 7: each query defers the points near the root until it keeps k
    neighbours, so it evaluates O(1) points, about 12.2 (13.4 with no row
    seeded by earlier queries, 15.1 also under the plane bound alone), at
    any n.  Without the deferral they grew with log n, from 20.6 at
    n = 5000 to 22.8 at 20000 and 25.1 at 100000."""
    per_point = {}
    for n in (5000, 20_000, 100_000):
        d = Dataset(np.random.default_rng(0).random((n, 2)))
        per_point[n] = knn_all(build(d), 7)[1].evaluations / n
    assert per_point[20_000] <= 16
    assert all(abs(p / per_point[5000] - 1) <= 0.05 for p in per_point.values()), per_point


@pytest.mark.parametrize("seed", [0, 1])
def test_knn_writes_each_pair_about_once(seed):
    """Uniform 2-D points, n = 20000, k = 7: each pair a query evaluates is
    offered to the other point's row when its query comes later, and that
    query skips the points its row holds, so a pair is written twice only
    when the offer did not stay among the k best.  Keys written are at
    most 1.1 times the distinct pairs (1.08 here; 1.58 unseeded), and the
    seeded rows' bounds prune from the first pop, so the distinct pairs are
    at most 12.7 a point (12.3; 13.45 unseeded)."""
    d = Dataset(np.random.default_rng(seed).random((20_000, 2)))
    _, cache = knn_all(build(d), 7)
    assert len(cache._block) <= 1.1 * cache.evaluations
    assert cache.evaluations <= 12.7 * d.n


def test_knn_evaluates_under_two_fifths_of_the_pairs_in_8d():
    """k-NN pairs on uniform 8-D points at k = 7, n = 2000, as a share of
    all n(n - 1)/2: the cell bound sums the gaps to a far subtree's whole
    cell, so it prunes in 8-D, where the plane alone evaluates 85 %; about
    31 % here (33 % with no row seeded by earlier queries)."""
    n = 2000
    d = Dataset(np.random.default_rng(0).random((n, 8)))
    share = knn_all(build(d), 7)[1].evaluations / (n * (n - 1) / 2)
    assert share <= 0.40, share


@pytest.mark.parametrize("n, dim, k", [(2000, 64, 7), (1, 3, 1), (2, 3, 1)])
def test_kernel_equals_brute_force_at_its_bounds(n, dim, k):
    """The kernel called directly, on a gap workspace of exactly dim
    doubles: in 64-D, where a search keeps 64 gaps, and on one and two
    points, every k-NN row (unfilled columns (inf, n)) and the
    nearest-denser answers of at most 100 targets under a random rank equal
    the full matrix's, distance bits included."""
    d = Dataset(np.random.default_rng(dim + n).normal(size=(n, dim)))
    tree = build(d)
    every = np.arange(n)
    # a sentinel column n at inf; a point is not its own neighbour
    m = np.hstack([full_matrix(d), np.full((n, 1), np.inf)])
    m[every, every] = np.nan  # argsort puts nan last
    indices, distances, _ = kdtree._knn(tree, every, k)
    want = np.argsort(m, axis=1, kind="stable")[:, :k]
    assert indices.tolist() == want.tolist()
    assert distances.tobytes() == np.take_along_axis(m, want, axis=1).tobytes()
    rank = np.random.default_rng(n).permutation(n)
    targets = every[:: -(-n // 100)]
    m = m[targets]
    m[:, :n][rank[None, :] >= rank[targets, None]] = np.nan  # only points of smaller rank
    ledger = SparseDistanceMatrix(d.points)
    got_d, got_j = nearest_denser_all(tree, targets, rank, ledger)
    want = np.argsort(m, axis=1, kind="stable")[:, 0]
    assert got_j.tolist() == np.where(want < n, want, -1).tolist()
    assert got_d.tobytes() == m[np.arange(len(targets)), want].tobytes()


def test_knn_rows_equal_brute_force_for_any_targets():
    """A query offers its pairs to the rows of later targets, whatever
    their order: on shuffled targets with repeats and points left out,
    every row equals the full matrix's, distance bits included."""
    d = random_dataset(9, n=300, dim=3)
    want = brute_knn_all(full_matrix(d), 5)
    targets = np.random.default_rng(9).choice(d.n, 400)
    assert len(set(targets.tolist())) < min(len(targets), d.n)
    indices, distances, _ = kdtree._knn(build(d), targets, 5)
    assert indices.tolist() == want.indices[targets].tolist()
    assert distances.tobytes() == want.distances[targets].tobytes()


@settings(max_examples=150, deadline=None)
@given(adversarial())
def test_knn_all_equals_reference_search_on_adversarial_inputs(case):
    _assert_knn_all_equals_reference(*case)


def test_kernel_is_built_once_then_loaded_without_the_compiler(tmp_path, monkeypatch):
    kdtree._load_kernel(tmp_path)
    assert [p.name.startswith("_knn-") and p.suffix == ".so" for p in tmp_path.iterdir()] == [True]

    def compiler(*args, **kwargs):
        raise AssertionError("cc ran for a cached kernel")

    monkeypatch.setattr(subprocess, "run", compiler)
    assert kdtree._load_kernel(tmp_path).knn_search.restype is kdtree.ctypes.c_int64


def test_a_fresh_kernel_build_removes_the_stale_libraries(tmp_path):
    """Each source or flag set builds a library of its own name; once a new
    one is in place, those of earlier builds in the same cache go."""
    first = Path(kdtree._load_kernel(tmp_path, ("-O1", "-ffp-contract=off"))._name)
    second = Path(kdtree._load_kernel(tmp_path)._name)
    assert first != second and first.parent == second.parent == tmp_path
    assert list(tmp_path.iterdir()) == [second]


def test_kernel_build_without_a_compiler_is_an_import_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))  # a directory without cc
    with pytest.raises(ImportError, match=r"\bcc\b"):
        kdtree._load_kernel(tmp_path / "cache")
    assert list((tmp_path / "cache").iterdir()) == []  # no partial library left


def test_kernel_build_that_cc_rejects_is_an_import_error_with_its_stderr(tmp_path):
    with pytest.raises(ImportError, match=r"(?s)could not build the k-d tree kernel:\n.*--no-such-flag"):
        kdtree._load_kernel(tmp_path, ("-O2", "--no-such-flag"))
    assert list(tmp_path.iterdir()) == []  # no partial library left


def test_subnormals_survive_loading_the_kernel():
    """A library built with -ffast-math links crtfastmath, which turns on
    flush-to-zero and denormals-are-zero for the whole process when it is
    loaded; twice the smallest subnormal would then read 0."""
    assert kdtree._KERNEL is not None
    assert np.nextafter(0.0, 1.0) * 2.0 > 0.0


def _underflowing(dim, scale):
    """200 uniform points scaled so far down that every squared coordinate
    difference underflows to 0: every distance is 0, yet every plane lies
    a nonzero ``|diff|`` away."""
    return Dataset(np.random.default_rng(1).random((200, dim)) * scale)


_UNDERFLOW = [(2, 1e-170), (1, 1e-200), (3, 2.0**-600)]
_UNDERFLOW_IDS = ["2d-1e-170", "1d-1e-200", "3d-2^-600"]


@pytest.mark.parametrize("dim, scale", _UNDERFLOW, ids=_UNDERFLOW_IDS)
def test_knn_all_equals_brute_force_where_squares_underflow(dim, scale):
    """The plane bound is ``sqrt(diff * diff)``, which underflows with the
    distances; ``|diff|`` pruned every far subtree here."""
    d = _underflowing(dim, scale)
    _assert_knn_all_equals_brute_force(d, 7)
    _assert_knn_all_equals_reference(d, 7)


@pytest.mark.parametrize("dim, scale", _UNDERFLOW, ids=_UNDERFLOW_IDS)
def test_nearest_denser_all_equals_scan_where_squares_underflow(dim, scale):
    d = _underflowing(dim, scale)
    m = full_matrix(d)
    rank = np.random.default_rng(2).permutation(d.n)
    cache = SparseDistanceMatrix(d.points)
    got_d, got_j = nearest_denser_all(build(d), np.arange(d.n), rank, cache)
    want = [min(((m[i, j], j) for j in range(d.n) if rank[j] < rank[i]), default=(math.inf, -1))
            for i in range(d.n)]
    assert list(zip(got_d.tolist(), got_j.tolist())) == want


def test_identical_points_build_and_search_without_recursion():
    d = Dataset(np.full((1500, 2), 0.25))
    tree = build(d)
    assert tree.depth() == _longest_path(tree) == 11
    assert len(tree.dump().splitlines()) == 1500
    neighbors, cache = knn_all(tree, 7)
    assert neighbors.indices[:2].tolist() == [[1, 2, 3, 4, 5, 6, 7], [0, 2, 3, 4, 5, 6, 7]]
    assert (neighbors.distances == 0.0).all()
    assert len(cache) == 1500 * 1499 // 2


@pytest.mark.parametrize("n", [46_340, 46_341, 100_000])
def test_cache_keys_at_large_n_do_not_overflow(n):
    """Keys ``lo * n + hi`` are int32 while n * n < 2**31 (at n = 46 340 the
    largest is 2 147 349 259) and int64 from n = 46 341; they pass 2**31 at
    n = 100 000.  No step may wrap, and every read agrees at the edge."""
    pairs = {(n - 2, n - 1), (0, n - 1), (n - 3, n - 1), (1, 2)}
    keys = np.array([lo * n + hi for lo, hi in pairs], dtype=np.int64)
    assert keys.max() == n * n - n - 1
    assert (keys.max() > np.iinfo(np.int32).max) == (n == 100_000)
    points = np.arange(n, dtype=float)[:, None]
    cache = SparseDistanceMatrix(points, keys=np.concatenate([keys, keys[::-1]]))
    assert cache._block.dtype == (np.int32 if n <= 46_340 else np.int64)
    assert cache._block.max() == n * n - n - 1
    assert cache.pairs() == pairs
    for lo, hi in pairs:
        assert cache.get(hi, lo) == cache.get(lo, hi) == hi - lo
        assert (hi, lo) in cache
    assert cache.distances(n - 1, np.array([n - 2, 0, n - 3])).tolist() == [1.0, n - 1, 2.0]
    assert len(cache) == cache.evaluations == 4
    assert cache.distance(n - 1, n - 4) == 3.0
    assert cache.pairs() == pairs | {(n - 4, n - 1)}
    assert len(cache) == cache.evaluations == 5
    assert (n - 5, n - 1) not in cache and cache.get(n - 1, n - 5) is None
    # every bulk key came twice; a repeat must not pass for a new pair
    cache.distances(n - 1, np.array([n - 2, 0, n - 3, n - 4, n - 5]))
    assert len(cache) == cache.evaluations == 6
    assert cache.pairs() == pairs | {(n - 4, n - 1), (n - 5, n - 1)}


@pytest.mark.parametrize("key", [-1, 100, 2**31, 2**32 + 1])
def test_cache_rejects_keys_outside_the_pair_range(key):
    """A bulk key outside [0, n * n) raises, naming it, before the keys are
    narrowed: at n = 10, 2**32 + 1 would wrap to the int32 key 1, pair (0, 1)."""
    points = np.arange(10, dtype=float)[:, None]
    with pytest.raises(ValueError, match=f": {key}$"):
        SparseDistanceMatrix(points, keys=np.array([12, key, 3], dtype=np.int64))
    with pytest.raises(TypeError):
        SparseDistanceMatrix(points, keys=np.array([1.0]))
    assert SparseDistanceMatrix(points, keys=np.array([89, 1])).pairs() == {(8, 9), (0, 1)}


def test_knn_all_ledger_keys_are_int32_on_small_input(two_blobs):
    tree = build(two_blobs)
    _, _, keys = kdtree._knn(tree, tree.point, 4)  # the call knn_all makes
    assert keys.dtype == np.int32
    _, cache = knn_all(tree, 4)
    assert cache._block.dtype == np.int32
    assert cache._block.tolist() == sorted(keys.tolist())
    lo, hi = np.divmod(keys, two_blobs.n)
    assert cache.pairs() == set(zip(lo.tolist(), hi.tolist()))


def test_cache_lookups_never_widen_the_key_block():
    """A ``searchsorted`` probe of another dtype copies the whole block to
    int64 (8 MB here) on every call; the reads must cast the probe instead."""
    n = 1500
    lo, hi = np.triu_indices(1415, 1)  # 1 000 405 stored pairs, all below point 1415
    points = np.random.default_rng(5).random((n, 2))
    cache = SparseDistanceMatrix(points, keys=lo * n + hi)
    assert cache._block.dtype == np.int32
    rng = np.random.default_rng(6)
    stored = [(int(i), int(j)) for i, j in rng.integers(0, 1415, (500, 2))]
    anywhere = [(int(i), int(j)) for i, j in rng.integers(0, n, (500, 2))]
    js = np.arange(1000, n)  # 85 of them past point 1415
    tracemalloc.start()
    try:
        for i, j in stored:
            cache.distance(i, j)
        got = [cache.get(i, j) for i, j in anywhere[:250]]
        found = [(i, j) in cache for i, j in anywhere[250:]]
        cache.distances(3, js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert got == [cache.get(j, i) for i, j in anywhere[:250]]
    assert None in got and found == [cache.get(i, j) is not None for i, j in anywhere[250:]]
    assert len(cache) == len(lo) + n - 1415


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
    pairs in its block and late pairs, of i and of others, outside it."""
    tree = build(two_blobs)
    caches = [knn_all(tree, 4)[1] for _ in range(2)]
    bulk = caches[0].pairs()
    rng = np.random.default_rng(i)
    late = [(int(a), int(b)) for a, b in rng.integers(0, two_blobs.n, (40, 2))]
    late += [(i, int(j)) for j in rng.integers(0, two_blobs.n, 15)]
    for cache in caches:
        for a, b in late:
            cache.distance(a, b)
    assert len(caches[0]) > len(bulk) and caches[0].pairs() == caches[1].pairs() > bulk
    js = rng.permutation(two_blobs.n)  # i itself included
    got = caches[0].distances(i, js)
    want = np.array([caches[1].distance(i, int(j)) for j in js])
    assert got.tobytes() == want.tobytes()
    assert caches[0].pairs() == caches[1].pairs()
    assert caches[0].evaluations == caches[1].evaluations == len(caches[0])
    assert caches[0].distances(i, js[:0]).shape == (0,)
    assert caches[0].distances(i, js).tobytes() == got.tobytes()  # all stored now
    assert caches[0].evaluations == caches[1].evaluations


@pytest.mark.parametrize("i", [0, 17, 299])
def test_cache_distances_in_any_order_record_the_same_pairs(two_blobs, i):
    """All of point i's pairs in index order (the densest point's scan) are
    strictly increasing keys, which skip the sort that shuffled or repeated
    ones take: every order gives the same distances, pairs and count, with
    and without scalar keys pending."""
    tree = build(two_blobs)
    js = np.flatnonzero(np.arange(two_blobs.n) != i)
    rng = np.random.default_rng(i)
    orders = [js, rng.permutation(js), np.repeat(js, 2), np.concatenate((js[::-1], js[:50]))]
    for pending in ([], [(5, 9), (9, 5), (i, (i + 3) % two_blobs.n)]):
        caches = []
        for order in orders:
            cache = knn_all(tree, 4)[1]
            bulk = cache.pairs()
            for a, b in pending:
                cache.distance(a, b)
            got = cache.distances(i, order)
            assert dict(zip(order.tolist(), got.tolist())) == {
                j: cache.get(i, j) for j in js.tolist()
            }
            caches.append(cache)
        want = bulk | {(min(a, b), max(a, b)) for a, b in pending}
        want |= {(min(i, j), max(i, j)) for j in js.tolist()}
        for cache in caches:
            assert cache.pairs() == want
            assert cache.evaluations == len(want) == len(cache)



def reference_build(points):
    """The per-node stack build in numpy, the oracle of the kernel's
    ``build_tree``: preorder lists (point, split_dim, left, right) and
    depth; a node's split value is its point's coordinate in its split
    dimension."""
    n = len(points)
    point, split_dim = [], []
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
            continue
        with np.errstate(over="ignore"):  # the scaled_2^600 case overflows by design
            dim = int(np.argmax(points[subset].var(axis=0)))  # ties: lowest dimension
        order = np.lexsort((subset, points[subset, dim]))
        ranked = subset[order]
        mid = (len(ranked) + 1) // 2 - 1  # rank ceil(count/2), 1-based
        pivot = int(ranked[mid])
        point.append(pivot)
        split_dim.append(dim)
        low, high = ranked[:mid], ranked[mid + 1 :]  # ranked before and after the pivot
        # pushed right first, so the left subtree is numbered first
        if len(high):
            stack.append((high, node, right, level + 1))
        if len(low):
            stack.append((low, node, left, level + 1))
    return (point, split_dim, left, right), depth


def _assert_build_equals_reference(points):
    tree = build(Dataset(points))
    want, depth = reference_build(points)
    got = (tree.point, tree.split_dim, tree.left, tree.right)
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
    """Tie-heavy 300x3 integer data on which variances summed in another
    row order than ``var``'s pick another split dimension somewhere."""
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


def _mirrored():
    """101 random values in one column and in reverse in the other: the two
    variances differ only by rounding, so a mean summed in another row order
    than ``var``'s can pick the other split dimension."""
    x = np.random.default_rng(1).random(101)
    return np.column_stack((x, x[::-1]))


def _signed_zeros():
    """-0.0 and 0.0 mixed around the median of the widest column, ties in
    the other: they compare equal, so the pivot and every child's order go
    by index, which a sort on the raw bits would not give."""
    rng = np.random.default_rng(80)
    return np.column_stack(
        (rng.choice([-2.0, -0.0, 0.0, 2.0], size=96), rng.integers(0, 2, size=96).astype(float))
    )


def _wide():
    """40x13, more dimensions than the tree's 6 levels: most rows are never
    a split dimension and are only partitioned down the tree.  Column
    scales differ, so the splits fall on several dimensions."""
    rng = np.random.default_rng(81)
    return rng.normal(size=(40, 13)) * rng.uniform(0.5, 2.0, size=13)


_lattice_points = _named("lattice", lambda: _lattice().points)
_BUILD_CASES = [
    _lattice_points,
    *(_ties(dim) for dim in range(1, 9)),
    _witness,
    _named("mirrored", _mirrored),
    _named("identical_1500x2", lambda: np.full((1500, 2), 0.25)),
    _named("identical_40x3", lambda: np.full((40, 3), -1.5)),
    _fixed("two_equal", [[0.0, 0.0], [0.0, 0.0]]),
    _fixed("two", [[1.0, 2.0], [3.0, 4.0]]),
    _fixed("three_1d", [[0.0], [1.0], [0.0]]),
    _fixed("three_3d", [[0.5, 0.0, 2.0], [0.5, 1.0, 2.0], [0.5, 1.0, -2.0]]),
    _scaled(600),
    _scaled(-600),
    _named("signed_zeros", _signed_zeros),
    _named("wide_40x13", _wide),
]


@pytest.mark.parametrize("make", _BUILD_CASES, ids=lambda make: make.__name__)
def test_build_equals_reference_build(make):
    _assert_build_equals_reference(make())


@settings(max_examples=200, deadline=None)
@given(adversarial())
def test_build_equals_reference_build_on_adversarial_inputs(case):
    _assert_build_equals_reference(case[0].points)


@pytest.mark.parametrize("workload", ["blobs15-5000", "uniform-7000x2", "uniform-2000x8"])
def test_build_equals_reference_build_on_benchmark_inputs(workload):
    """Trees 11 to 13 levels deep, whose spans are partitioned many times
    over before they reach a leaf."""
    for c in _benchmark_cells(workload):
        _assert_build_equals_reference(c.data.points)


def test_build_has_no_recursion():
    """Nothing in ``kdtree`` calls itself: ``dump`` keeps explicit state, as
    the kernel's build and searches do, so depth is bounded by memory, not
    the stack."""
    source = ast.parse(inspect.getsource(kdtree))
    for fn in ast.walk(source):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
                for c in ast.walk(fn) if isinstance(c, ast.Call)
            }
            assert fn.name not in called, fn.name


@pytest.mark.parametrize("make", _BUILD_CASES, ids=lambda make: make.__name__)
def test_depth_is_fixed_by_n(make):
    """Every split leaves at most half of a subtree on either side, ties
    included, so every tree is floor(log2 n) + 1 deep."""
    points = make()
    tree = build(Dataset(points))
    assert _longest_path(tree) == tree.depth() == len(points).bit_length()


@settings(max_examples=100, deadline=None)
@given(adversarial())
def test_depth_is_fixed_by_n_on_adversarial_inputs(case):
    tree = build(case[0])
    assert _longest_path(tree) == tree.depth() == case[0].n.bit_length()


@pytest.mark.parametrize(
    "points",
    [np.full((1500, 2), 0.25), _ties(2)(), _ties(8)(), _witness(), _lattice_points()],
    ids=["identical_1500x2", "ties_2d", "ties_8d", "witness", "lattice"],
)
def test_tree_shape_on_ties_equals_shape_on_uniform_points(points):
    """The child arrays depend on n alone: a tie-heavy input gives the
    ``left`` and ``right`` of uniform random points of the same shape."""
    tree = build(Dataset(points))
    uniform = build(Dataset(np.random.default_rng(9).uniform(size=points.shape)))
    assert tree.left.tobytes() == uniform.left.tobytes()
    assert tree.right.tobytes() == uniform.right.tobytes()


def _assert_pairs_within_plain_pruning(d, k):
    """Pruning only drops work: from every query of a sample of at most
    about 200, the pairs the k-NN kernel evaluates are among those the
    plane-reach rule evaluates from the same query on the same tree, and
    those among the pairs plain hyperplane pruning evaluates; so are the
    pairs of the nearest-denser search (density ranks of the k-NN result)
    against the reference walk's under the same two rules, and every rule
    finds the same points.  Where squares do not underflow, sqrt(diff *
    diff) == |diff|, so the plane rule takes plain pruning's path and skips
    only node points that could not enter the best; the cell bound is at
    least the plane's, so it skips more, never a point that could enter."""
    tree = build(d)
    queries = np.arange(0, d.n, -(-d.n // 200))
    _, order = core.local_density(knn_all(tree, k)[0])
    rank = np.empty(d.n, dtype=np.int64)
    rank[order] = np.arange(d.n)
    walk = _CallLog(d.points)
    got_d, got_j = nearest_denser_all(tree, queries, rank, walk)
    walks = [_pairs_by_target(walk.calls)]
    for rule in ("plane", "plain"):
        log = _CallLog(d.points)
        assert list(zip(got_d.tolist(), got_j.tolist())) == reference_nearest_denser(
            tree, queries, rank, log, rule
        )
        walks.append(_pairs_by_target(log.calls))
    for i in queries.tolist():
        indices, _, keys = kdtree._knn(tree, np.array([i]), k)
        lo, hi = np.divmod(keys, d.n)
        knn = [set((lo + hi - i).tolist())]  # the other point of each pair
        for rule in ("plane", "plain"):
            log = _CallLog(d.points)
            assert reference_knn_query(tree, i, k, log, rule)[0] == indices[0].tolist()
            knn.append({j for _, j, _ in log.calls})
        for pairs in (knn, [w.get(i, set()) for w in walks]):
            assert pairs[0] <= pairs[1] <= pairs[2], i


def _pairs_by_target(calls):
    """The points each target was evaluated against, by ``_CallLog`` calls."""
    out = {}
    for i, j, _ in calls:
        out.setdefault(i, set()).add(j)
    return out


@pytest.mark.parametrize(
    "make",
    # at 2^-600 every square underflows, so |diff| is no bound and plain
    # pruning misses pairs an exact search needs (the underflow tests above)
    [make for make in _BUILD_CASES if make.__name__ != "scaled_2^-600"],
    ids=lambda make: make.__name__,
)
def test_pairs_within_plain_pruning(make):
    points = make()
    _assert_pairs_within_plain_pruning(Dataset(points), min(7, len(points) - 1))


@settings(max_examples=100, deadline=None)
@given(adversarial())
def test_pairs_within_plain_pruning_on_adversarial_inputs(case):
    _assert_pairs_within_plain_pruning(*case)


@pytest.mark.parametrize(
    "workload", ["blobs15-5000", "uniform-7000x2", "uniform-2000x8", "sweep-bundled"]
)
def test_pairs_within_plain_pruning_on_benchmark_inputs(workload):
    for c in _benchmark_cells(workload):
        _assert_pairs_within_plain_pruning(c.data, c.k)


def _benchmark_cells(workload):
    """The benchmark's cells at seed 1, from its own ``workloads`` module."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads.setup(workload, 1)


class _CallLog:
    """A ledger that also logs every ``distance(i, j)`` call and its result."""

    def __init__(self, points):
        self.ledger = SparseDistanceMatrix(points)
        self.calls = []

    def distance(self, i, j):
        d = self.ledger.distance(i, j)
        self.calls.append((i, j, d))
        return d


def _assert_nearest_denser_equals_reference(d, k):
    """From a sample of at most about 200 points, taken in density order,
    under the density ranks of the k-NN result and under a random rank,
    ``nearest_denser_all`` makes the reference walk's exact sequence of
    ``cache.distance(target, j)`` calls, gets the same results, and returns
    the walk's points and distance bits."""
    tree = build(d)
    _, order = core.local_density(knn_all(tree, k)[0])
    density_rank = np.empty(d.n, dtype=np.int64)
    density_rank[order] = np.arange(d.n)
    targets = order[:: -(-d.n // 200)]  # the densest first, with no denser point
    for rank in (density_rank, np.random.default_rng(d.n).permutation(d.n)):
        got, want = _CallLog(d.points), _CallLog(d.points)
        got_d, got_j = nearest_denser_all(tree, targets, rank, got)
        expected = reference_nearest_denser(tree, targets, rank, want)
        assert got.calls == want.calls
        assert list(zip(got_d.tolist(), got_j.tolist())) == expected
        assert got_d.tobytes() == np.array([dist for dist, _ in expected]).tobytes()
        assert got.ledger.pairs() == want.ledger.pairs()


@pytest.mark.parametrize("make", _BUILD_CASES, ids=lambda make: make.__name__)
def test_nearest_denser_all_makes_the_reference_calls(make):
    points = make()
    _assert_nearest_denser_equals_reference(Dataset(points), min(7, len(points) - 1))


@pytest.mark.parametrize("dim, scale", _UNDERFLOW, ids=_UNDERFLOW_IDS)
def test_nearest_denser_all_makes_the_reference_calls_where_squares_underflow(dim, scale):
    _assert_nearest_denser_equals_reference(_underflowing(dim, scale), 7)


@settings(max_examples=150, deadline=None)
@given(adversarial())
def test_nearest_denser_all_makes_the_reference_calls_on_adversarial_inputs(case):
    _assert_nearest_denser_equals_reference(*case)


@pytest.mark.parametrize(
    "workload", ["blobs15-5000", "uniform-7000x2", "uniform-2000x8", "sweep-bundled"]
)
def test_nearest_denser_all_makes_the_reference_calls_on_benchmark_inputs(workload):
    for c in _benchmark_cells(workload):
        _assert_nearest_denser_equals_reference(c.data, c.k)


def test_a_failing_ledger_read_stops_the_nearest_denser_search():
    """An exception raised by the third ledger read propagates out of
    ``nearest_denser_all`` after exactly three reads: the search has ended
    by then, and the pairs after the failing one are not recorded."""
    d = _lattice()
    ledger = SparseDistanceMatrix(d.points)
    calls = []

    class ThirdReadFails:
        def distance(self, i, j):
            calls.append((i, j))
            if len(calls) == 3:
                raise LookupError("third read")
            return ledger.distance(i, j)

    with pytest.raises(LookupError, match="third read"):
        nearest_denser_all(build(d), np.arange(d.n), np.arange(d.n), ThirdReadFails())
    assert len(calls) == 3


@pytest.mark.parametrize("make", _BUILD_CASES, ids=lambda make: make.__name__)
def test_rank_filter_keys_are_the_reference_pairs_target_first(make):
    """The rank filter writes the key ``t * n + j`` of each pair it
    evaluates, target first, in the order the reference walk reads the
    pairs, and of the dtype the ledger keys ``n`` points with."""
    d = Dataset(make())
    tree = build(d)
    rank = np.random.default_rng(d.n).permutation(d.n)
    targets = np.arange(0, d.n, -(-d.n // 200))  # at most about 200
    want = _CallLog(d.points)
    reference_nearest_denser(tree, targets, rank, want)
    _, _, keys = kdtree._knn(tree, targets, 1, rank)
    assert keys.dtype == key_dtype(d.n)
    assert keys.tolist() == [t * d.n + j for t, j, _ in want.calls]


def test_nearest_denser_all_with_int64_keys_equals_a_scan():
    """Above n = 46340 a key needs int64.  On 50000 uniform 2-D points
    under a random rank, the filtered keys of 300 targets are int64, some
    beyond int32, and each target's answer is the (distance, index) minimum
    of a scan of its denser points, distances summed as ``full_matrix``
    sums them; the ledger records each pair the search evaluated."""
    n = 50_000
    d = Dataset(np.random.default_rng(8).random((n, 2)))
    tree = build(d)
    rank = np.random.default_rng(9).permutation(n)
    targets = np.random.default_rng(10).choice(n, 300, replace=False)
    _, _, keys = kdtree._knn(tree, targets, 1, rank)
    assert keys.dtype == np.int64 and keys.max() >= 2**31
    ledger = SparseDistanceMatrix(d.points)
    got_d, got_j = nearest_denser_all(tree, targets, rank, ledger)
    for t, dist, j in zip(targets.tolist(), got_d.tolist(), got_j.tolist()):
        denser = np.flatnonzero(rank < rank[t])
        if not len(denser):
            assert (dist, j) == (math.inf, -1)
            continue
        square = np.zeros(len(denser))
        for h in range(2):
            diff = d.points[t, h] - d.points[denser, h]
            square += diff * diff
        scan = np.sqrt(square)
        best = int(np.argmin(scan))  # the first minimum: ties to the lower index
        assert (dist, j) == (scan[best], denser[best])
    t, j = np.divmod(keys, n)
    assert ledger.evaluations == len(np.unique(np.minimum(t, j) * n + np.maximum(t, j)))


def test_nearest_denser_all_equals_reference_search_as_keys_grow_and_resume(monkeypatch):
    """The rank filter checks its key capacity as k-NN does.  With the key
    buffer grown only to room for one more query, n - 1 free slots, and the
    targets least dense first, each query but the densest's writes a key,
    so the kernel stops before every query but the first and resumes there,
    its keys after those already written; the ledger calls and the results
    stay the reference walk's.  On identical points every distance is 0, so
    only the rank prunes, and the least dense target evaluates all n - 1
    others: it fills the buffer to its last slot."""
    calls = []

    def one_query(n_keys, done, m, n):
        calls.append((n_keys, done))
        return n_keys + n - 1

    monkeypatch.setattr(kdtree, "_key_capacity", one_query)
    for d in (random_dataset(12, n=300, dim=2), Dataset(np.full((40, 2), 0.25))):
        tree = build(d)
        rank = np.random.default_rng(d.n).permutation(d.n)
        targets = np.argsort(rank)[::-1].copy()  # the least dense first
        want = _CallLog(d.points)
        expected = reference_nearest_denser(tree, targets, rank, want)
        written = [sum(t == x for t, _, _ in want.calls) for x in targets.tolist()]
        assert min(written[:-1]) >= 1 and written[-1] == 0
        calls.clear()
        got = _CallLog(d.points)
        got_d, got_j = nearest_denser_all(tree, targets, rank, got)
        assert calls == [(sum(written[:q]), q) for q in range(d.n)]
        assert got.calls == want.calls
        assert list(zip(got_d.tolist(), got_j.tolist())) == expected
        _assert_nearest_denser_equals_reference(d, 7)
    assert written[0] == d.n - 1


def test_nearest_denser_all_skips_a_subtree_by_its_min_rank(monkeypatch):
    """A popped subtree whose smallest rank is not below the target's is
    skipped before its point is read: told that no subtree holds a smaller
    rank, the search reads no distance and finds no point."""
    d = Dataset(np.random.default_rng(23).uniform(size=(400, 2)))
    tree = build(d)
    monkeypatch.setattr(kdtree, "subtree_min_rank", lambda tree, rank: np.full(d.n, d.n))
    log = _CallLog(d.points)
    got_d, got_j = nearest_denser_all(tree, np.arange(d.n), np.arange(d.n)[::-1].copy(), log)
    assert log.calls == []
    assert got_d.tolist() == [math.inf] * d.n
    assert got_j.tolist() == [-1] * d.n


@pytest.mark.parametrize("target", [-1, 64])
def test_nearest_denser_all_rejects_a_target_outside_the_points(target):
    """The kernel reads a target's coordinates and rank by its index, so an
    index outside [0, n) is refused before the call."""
    d = _lattice()
    ledger = SparseDistanceMatrix(d.points)
    with pytest.raises(IndexError, match=r"\[0, 64\)"):
        nearest_denser_all(build(d), np.array([3, target]), np.arange(d.n), ledger)


@pytest.mark.parametrize(
    "targets, rank",
    [
        (np.array([4.7, 9.2]), None),  # would answer for points 4 and 9
        (np.array([True, False]), None),  # would answer for points 1 and 0
        (np.array([4, 9]), np.arange(64) + 0.5),  # every rank would be truncated
        (np.array([4, 9]), np.arange(64) % 2 == 0),
    ],
    ids=["float-targets", "bool-targets", "float-rank", "bool-rank"],
)
def test_nearest_denser_all_rejects_indices_that_are_not_integers(targets, rank):
    """A float or bool target or rank is refused, not cast to int64, as
    ``SparseDistanceMatrix.distances`` refuses such indices."""
    d = _lattice()
    rank = np.arange(d.n)[::-1].copy() if rank is None else rank
    ledger = SparseDistanceMatrix(d.points)
    name = "targets" if rank.dtype == np.int64 else "rank"
    with pytest.raises(TypeError, match=f"{name} must be integers"):
        nearest_denser_all(build(d), targets, rank, ledger)
    assert ledger.evaluations == 0


def test_knn_search_accepts_every_integer_dtype_of_targets():
    tree = build(_lattice())
    want = kdtree._knn(tree, np.array([4, 9]), 3)
    for dtype in (np.int32, np.uint8, np.uint64):
        got = kdtree._knn(tree, np.array([4, 9], dtype=dtype), 3)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), dtype
    with pytest.raises(TypeError, match="targets must be integers"):
        kdtree._knn(tree, np.array([4.0, 9.0]), 3)
