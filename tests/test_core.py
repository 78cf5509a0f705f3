import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adversarial, random_dataset
from sktdpc import core
from sktdpc.baseline import (
    brute_knn_all,
    brute_separation,
    dpc_original,
    full_matrix,
    sktdpc_reference,
)
from sktdpc.dataset import Dataset
from sktdpc.kdtree import _records, build, knn_all
from sktdpc.sparse import SparseDistanceMatrix


def scalar_local_density(distances):
    """The per-point loop the column sums replaced, kept as their oracle:
    each row's distances added left to right, starting from 0.0."""
    density = np.empty(len(distances))
    for i, row in enumerate(distances.tolist()):
        total = 0.0
        for d in row:
            total += d
        density[i] = 1.0 / total if total > 0.0 else np.inf
    return density


def test_local_density_direct():
    indices = np.array([[1, 2], [0, 2], [1, 0]])
    neighbors = _records(indices, np.array([[1.0, 3.0], [1.0, 2.0], [2.0, 3.0]]))
    density, order = core.local_density(neighbors)
    assert density.tolist() == [0.25, 1 / 3, 0.2]
    assert order.tolist() == [1, 0, 2]


def test_local_density_symmetric_pair_tie_break():
    neighbors = _records(np.array([[1], [0]]), np.array([[2.0], [2.0]]))
    density, order = core.local_density(neighbors)
    assert density.tolist() == [0.5, 0.5]
    assert order.tolist() == [0, 1]


@pytest.mark.parametrize("k", [8, 16, 40])
def test_local_density_bits_equal_the_scalar_loop(k):
    """Distances spread over 24 orders of magnitude, and rows of zeros: the
    column sums give the scalar loop's bits.  numpy's own row sum adds
    pairwise from 8 terms up, in other bits on over a third of these rows."""
    rng = np.random.default_rng(k)
    distances = np.sort(rng.uniform(1.0, 2.0, (400, k)) * 10.0 ** rng.uniform(-12, 12, (400, k)))
    distances[::50] = 0.0
    indices = np.tile(np.arange(1, k + 1), (400, 1))
    density, order = core.local_density(_records(indices, distances))
    want = scalar_local_density(distances)
    assert density.tobytes() == want.tobytes()
    assert order.tolist() == core._descending_order(want).tolist()
    assert np.isinf(density[::50]).all()


def test_local_density_against_brute_force(two_blobs):
    tree = build(two_blobs)
    sets, _ = knn_all(tree, 6)
    density, _ = core.local_density(sets)
    m = full_matrix(two_blobs)
    for i in range(two_blobs.n):
        row = np.sort(m[i])[1:7]  # self sits at distance 0
        assert density[i] == pytest.approx(1.0 / row.sum(), rel=1e-12)


def test_local_density_coincident_duplicates_get_infinity():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, 4.0]])
    tree = build(Dataset(pts))
    sets, _ = knn_all(tree, 2)
    density, order = core.local_density(sets)
    assert math.isinf(density[0]) and math.isinf(density[1]) and math.isinf(density[2])
    assert order.tolist()[:3] == [0, 1, 2]  # infinite densities first, index ties


def _pipeline_to_separation(d, k):
    tree = build(d)
    sets, cache = knn_all(tree, k)
    density, order = core.local_density(sets)
    return sets, cache, density, order


def test_separation_intersection_branch_zero_cost():
    # second densest point's nearest neighbor is the density maximum
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 0.0], [9.0, 0.0]])
    d = Dataset(pts)
    sets, cache, density, order = _pipeline_to_separation(d, 2)
    second = int(order[1])
    before = cache.evaluations
    separation, nearest_denser = core.relative_separation(density, order, sets, cache)
    top = int(order[0])
    assert nearest_denser[second] == top
    assert separation[second] == sets.distances[second][sets.indices[second] == top][0]


def test_separation_densest_point_takes_farthest_distance():
    pts = np.array([[0.0], [1.0], [2.0]])
    d = Dataset(pts)
    sets, cache, density, order = _pipeline_to_separation(d, 1)
    separation, _ = core.relative_separation(density, order, sets, cache)
    densest = int(order[0])
    assert densest == 0  # all densities tie at k=1, lowest index leads
    assert separation[densest] == 2.0


def test_separation_fig1_structure(fig1_fixture):
    """Exactly three points (the densest plus two) lack denser neighbors and
    fall back to scanning; everything else costs no new distance."""
    d = fig1_fixture
    k = 3
    sets, cache, density, order = _pipeline_to_separation(d, k)
    rank = np.empty(d.n, dtype=int)
    rank[order] = np.arange(d.n)
    expected_fallback = {int(order[0])}
    for i in range(d.n):
        if rank[i] > 0 and not (rank[sets.indices[i]] < rank[i]).any():
            expected_fallback.add(i)
    assert expected_fallback == {3, 10, 12}
    assert int(order[0]) == 12

    known = cache.pairs()
    simulated_new = set()
    for r, i in enumerate(int(x) for x in order):
        if r == 0:
            need = {(min(i, j), max(i, j)) for j in range(d.n) if j != i}
        elif i in expected_fallback:
            need = {(min(i, int(j)), max(i, int(j))) for j in order[:r]}
        else:
            continue
        simulated_new |= need - known - simulated_new
    before = cache.evaluations
    core.relative_separation(density, order, sets, cache)
    assert cache.evaluations - before == len(simulated_new)
    assert cache.pairs() == known | simulated_new


def test_separation_matches_brute_force_corpus():
    for seed in range(6):
        d = random_dataset(seed + 40, n=int(np.random.default_rng(seed).integers(20, 200)))
        k = min(7, d.n - 1)
        sets, cache, density, order = _pipeline_to_separation(d, k)
        separation, nearest_denser = core.relative_separation(density, order, sets, cache)
        m = full_matrix(d)
        ref_sep, ref_nhd = brute_separation(m, order)
        assert np.array_equal(nearest_denser, ref_nhd)
        assert np.array_equal(separation, ref_sep)


def test_separation_tree_query_evaluates_a_twentieth_of_the_scan():
    """Fallback points query the tree instead of scanning every denser point:
    on uniform data, where fallback points are common, separation evaluates
    at most 1/20 of the new pairs the paper's scan would, with exact results."""
    d = Dataset(np.random.default_rng(3000).uniform(size=(3000, 2)))
    sets, cache, density, order = _pipeline_to_separation(d, 7)
    rank = np.empty(d.n, dtype=int)
    rank[order] = np.arange(d.n)
    scan = set()
    for r, i in enumerate(int(x) for x in order):
        if r == 0:
            scan |= {(min(i, j), max(i, j)) for j in range(d.n) if j != i}
        elif not (rank[sets.indices[i]] < r).any():
            scan |= {(min(i, int(j)), max(i, int(j))) for j in order[:r]}
    known = cache.pairs()
    scan -= known
    before = cache.evaluations
    separation, nearest_denser = core.relative_separation(density, order, sets, cache)
    assert cache.evaluations - before <= len(scan) / 20
    assert cache.pairs() - known <= scan
    ref_sep, ref_nhd = brute_separation(full_matrix(d), order)
    assert np.array_equal(nearest_denser, ref_nhd)
    assert np.array_equal(separation, ref_sep)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_separation_integer_lattice_ties(k):
    """Equidistant denser points on both sides of split planes: the lowest
    index wins, as in the full scan."""
    grid = np.array([(x, y) for x in range(9) for y in range(9)], dtype=float)
    d = Dataset(grid[np.random.default_rng(k).permutation(81)])
    sets, cache, density, order = _pipeline_to_separation(d, k)
    separation, nearest_denser = core.relative_separation(density, order, sets, cache)
    ref_sep, ref_nhd = brute_separation(full_matrix(d), order)
    assert np.array_equal(nearest_denser, ref_nhd)
    assert np.array_equal(separation, ref_sep)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_separation_fallback_point_with_every_denser_point_at_infinity():
    """Squared distances between the two groups overflow to inf; point 5 has
    no denser neighbor, and each denser point is at inf.  It still gets the
    lowest-index denser point, as in the full scan, not -1."""
    pts = np.array([[0.0], [1.0], [2.0], [3.0], [1e155], [1e155 + 4e139], [1e155 + 8e139]])
    d = Dataset(pts)
    sets, cache, density, order = _pipeline_to_separation(d, 2)
    separation, nearest_denser = core.relative_separation(density, order, sets, cache)
    ref_sep, ref_nhd = brute_separation(full_matrix(d), order)
    assert nearest_denser[5] == 0
    assert np.array_equal(nearest_denser, ref_nhd)
    assert np.array_equal(separation, ref_sep)
    assert core.run_sktdpc(d, 2).flags == sktdpc_reference(d, 2).flags


def test_separation_needs_the_knn_cache():
    d = Dataset(np.array([[0.0], [1.0], [3.0]]))
    sets, _, density, order = _pipeline_to_separation(d, 1)
    with pytest.raises(ValueError, match="knn_all"):
        core.relative_separation(density, order, sets, SparseDistanceMatrix(d.points))


@settings(max_examples=300, deadline=None)
@given(adversarial())
def test_separation_equals_brute_force_on_adversarial_inputs(case):
    d, k = case
    sets, cache, density, order = _pipeline_to_separation(d, k)
    separation, nearest_denser = core.relative_separation(density, order, sets, cache)
    ref_sep, ref_nhd = brute_separation(full_matrix(d), order)
    assert np.array_equal(nearest_denser, ref_nhd)
    assert np.array_equal(separation, ref_sep)


def test_decision_values_product_and_ties():
    decision, order = core.decision_values(np.array([0.25]), np.array([4.0]))
    assert decision[0] == 1.0
    decision, order = core.decision_values(np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    assert order.tolist() == [0, 1, 2]


def test_decision_values_propagate_infinity():
    decision, order = core.decision_values(np.array([np.inf, 1.0]), np.array([0.0, 5.0]))
    assert math.isinf(decision[0])
    assert order.tolist() == [0, 1]


def test_mutation_point_hand_example():
    # descending decision values [100, 50, 10, 1, 1, ...] over 300 points
    decision = np.array([100.0, 50.0, 10.0] + [1.0] * 297)
    order = np.arange(300)
    m_p, flags = core.mutation_point(decision, order)
    assert m_p == 2
    assert flags == ()


def test_mutation_point_flat_window():
    decision = np.array([9.0] + [1.0] * 299)
    order = np.arange(300)
    m_p, flags = core.mutation_point(decision, order)
    assert m_p == math.isqrt(300) - 2
    assert "flat-decision-window" in flags


def test_mutation_point_small_n():
    decision = np.array([4.0, 3.0, 2.0, 1.0])
    order = np.arange(4)
    m_p, flags = core.mutation_point(decision, order)
    assert m_p == 2
    assert "mutation-window-too-small" in flags


def test_mutation_point_two_blobs(two_blobs):
    for k in range(3, 8):
        result = core.run_sktdpc(two_blobs, k)
        assert result.mutation_point == 2
        assert len(result.centers) == 2


def test_select_centers_both_pass():
    density = np.array([10.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    separation = np.array([8.0, 7.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
                           0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    order = np.arange(16)
    centers, candidates, flags = core.select_centers(density, separation, order, 2)
    assert centers == (0, 1)
    assert flags == ()


def test_select_centers_outlier_candidate_removed():
    # candidate 2 pairs tiny density with large separation: a pseudo-center
    density = np.array([10.0, 9.0, 0.01] + [1.0] * 22)
    separation = np.array([5.0, 4.0, 8.0] + [0.1] * 22)
    order = np.arange(25)
    top = order[: math.isqrt(25)]
    assert density[2] <= density[top].mean()  # threshold computed by direct means
    centers, candidates, flags = core.select_centers(density, separation, order, 3)
    assert candidates == (0, 1, 2)
    assert centers == (0, 1)


def test_select_centers_fallback_keeps_top_rank():
    density = np.array([5.0, 5.0, 5.0, 5.0])
    separation = np.array([1.0, 1.0, 1.0, 1.0])
    order = np.arange(4)
    centers, candidates, flags = core.select_centers(density, separation, order, 1)
    assert centers == (0,)
    assert "center-filter-fallback" in flags


def reference_assign_labels(density_order, nearest_denser, centers, distance_fn):
    """The per-point loop the pointer doubling replaced, kept as its oracle:
    one pass in descending-density order, each point taking the label of
    its nearest denser point, which precedes it."""
    n = len(density_order)
    labels = np.full(n, -1, dtype=np.int64)
    for cid, c in enumerate(centers):
        labels[c] = cid
    flags = ()
    for i in (int(x) for x in density_order):
        if labels[i] >= 0:
            continue
        j = int(nearest_denser[i])
        if j < 0:
            best = min((distance_fn(i, c), cid) for cid, c in enumerate(centers))
            labels[i] = best[1]
            flags = ("densest-point-not-center",)
        else:
            labels[i] = labels[j]
    return labels, flags


@st.composite
def forests(draw):
    """A density order, nearest-denser links (each -1 or a denser point,
    -1 for the densest), integer positions for ``distance_fn`` (ties
    included) and a non-empty list of distinct centers."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    link = [-1] * n
    for r in range(1, n):
        up = draw(st.integers(-1, r - 1))  # -1: one more root besides the densest
        link[order[r]] = -1 if up < 0 else order[up]
    where = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    centers = draw(st.one_of(
        st.permutations(range(n)),  # every point a center
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
    ))
    return np.array(order), np.array(link), centers, where


@settings(max_examples=300, deadline=None)
@given(forests())
@example((np.array([2, 0, 1]), np.array([2, 0, -1]), [1], [0, 3, 1]))  # densest not a center
@example((np.array([1, 0, 2]), np.array([1, -1, 0]), [2, 0, 1], [0, 0, 0]))  # all centers
def test_assign_labels_equals_reference_loop(forest):
    """Labels, flags and the ``distance_fn`` calls made equal the loop's on
    random nearest-denser forests and center sets."""
    order, link, centers, where = forest
    got_calls, want_calls = [], []

    def distance_fn(calls):
        return lambda i, c: calls.append((i, c)) or float(abs(where[i] - where[c]))

    got = core.assign_labels(order, link, centers, distance_fn(got_calls))
    want = reference_assign_labels(order, link, centers, distance_fn(want_calls))
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
    assert got_calls == want_calls
    assert got[0].min() >= 0


@pytest.mark.parametrize(
    "link",
    [[-1, 2, 1], [-1, 1, 0], [-1, 0, 2], [-1, 5, 0], [-1, 0, -2], [1, 0, 1]],
    ids=["cycle", "self-link", "self-link-last", "out-of-range", "below-minus-one",
         "link-to-less-dense"],
)
def test_assign_labels_rejects_a_link_that_is_not_denser(link):
    """Every link is -1 or points to a strictly denser point: a cycle would
    keep the doubling from ever stopping, and the loop it replaced spread -1
    or raised IndexError."""
    with pytest.raises(ValueError, match="is not a denser point"):
        core.assign_labels(np.arange(3), np.array(link), [0], lambda i, j: 1.0)


def test_assign_every_point_a_center():
    order = np.arange(4)
    nhd = np.array([-1, 0, 1, 2])
    labels, flags = core.assign_labels(order, nhd, [0, 1, 2, 3], lambda i, j: 1.0)
    assert labels.tolist() == [0, 1, 2, 3]


def test_assign_chain_propagates():
    # chain c -> b -> a with a the sole center
    order = np.array([0, 1, 2])
    nhd = np.array([-1, 0, 1])
    labels, flags = core.assign_labels(order, nhd, [0], lambda i, j: 1.0)
    assert labels.tolist() == [0, 0, 0]


def test_assign_blob_fixture_matches_truth(two_blobs):
    result = core.run_sktdpc(two_blobs, 5)
    from sktdpc.metrics import acc, contingency
    assert acc(contingency(two_blobs.labels, result.labels)) == 1.0


def test_run_sktdpc_minimal_two_points():
    d = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]))
    result = core.run_sktdpc(d, 1)
    assert result.mutation_point == 2
    assert "mutation-window-too-small" in result.flags
    assert len(result.centers) >= 1
    assert len(result.labels) == 2
    assert set(result.labels.tolist()) == set(range(len(result.centers)))


def test_run_sktdpc_equals_reference_on_corpus():
    for seed in range(8):
        d = random_dataset(seed + 300)
        k = min(int(np.random.default_rng(seed).integers(3, 11)), d.n - 1)
        fast = core.run_sktdpc(d, k)
        ref = sktdpc_reference(d, k)
        assert fast.centers == ref.centers
        assert fast.mutation_point == ref.mutation_point
        assert np.array_equal(fast.labels, ref.labels)
        assert fast.flags == ref.flags


def test_run_sktdpc_flags_match_reference_with_coincident_points():
    """Coincident points get infinite density; both pipelines flag it."""
    rng = np.random.default_rng(0)
    d = Dataset(np.vstack([np.zeros((5, 2)), rng.uniform(size=(40, 2))]))
    fast = core.run_sktdpc(d, 3)
    assert "infinite-density-sentinel" in fast.flags
    assert fast.flags == sktdpc_reference(d, 3).flags


def test_run_sktdpc_fixed_center_count(two_blobs):
    result = core.run_sktdpc(two_blobs, 5, n_centers=4)
    assert len(result.centers) == 4
    assert "fixed-center-count" in result.flags
    assert result.centers == tuple(int(x) for x in result.profile.decision_order[:4])
    assert len(set(result.labels.tolist())) == 4


def test_run_sktdpc_label_wellformedness(two_blobs):
    result = core.run_sktdpc(two_blobs, 5)
    assert sorted(set(result.labels.tolist())) == list(range(len(result.centers)))
    for cid, c in enumerate(result.centers):
        assert result.labels[c] == cid
    assert 0.0 < result.distance_ratio <= 1.0


def test_run_sktdpc_deterministic(two_blobs):
    a = core.run_sktdpc(two_blobs, 5)
    b = core.run_sktdpc(two_blobs, 5)
    assert np.array_equal(a.labels, b.labels)
    assert a.centers == b.centers
    assert a.distance_evaluations == b.distance_evaluations


def test_scaling_leaves_structure_unchanged(two_blobs):
    base = core.run_sktdpc(two_blobs, 5)
    for c in (0.1, 10.0):
        scaled = Dataset(two_blobs.points * c, two_blobs.labels, two_blobs.name)
        res = core.run_sktdpc(scaled, 5)
        assert np.array_equal(res.profile.decision_order, base.profile.decision_order)
        assert res.mutation_point == base.mutation_point
        assert res.centers == base.centers
        assert np.array_equal(res.labels, base.labels)


def test_run_sktdpc_rejects_bad_k(two_blobs):
    top = two_blobs.n - 1
    with pytest.raises(ValueError, match=rf"^k must be in \[1, {top}\], got 0$"):
        core.run_sktdpc(two_blobs, 0)
    with pytest.raises(ValueError, match=rf"^k must be in \[1, {top}\], got 300$"):
        core.run_sktdpc(two_blobs, 300)


@pytest.mark.parametrize(
    "run, k, n_centers, message",
    [
        (core.run_sktdpc, 7.5, None, "k must be an integer, got 7.5"),
        (core.run_sktdpc, True, None, "k must be an integer, got True"),
        (core.run_sktdpc, np.float64(5), None, "k must be an integer, got np.float64(5.0)"),
        (core.run_sktdpc, 5, True, "n_centers must be an integer, got True"),
        (core.run_sktdpc, 5, 2.0, "n_centers must be an integer, got 2.0"),
        (sktdpc_reference, 3.5, None, "k must be an integer, got 3.5"),
        (sktdpc_reference, 5, np.True_, "n_centers must be an integer, got np.True_"),
        pytest.param(lambda d, k, n_centers: knn_all(build(d), k), 2.5, None,
                     "k must be an integer, got 2.5", id="knn_all"),
        pytest.param(lambda d, k, n_centers: brute_knn_all(full_matrix(d), k), False, None,
                     "k must be an integer, got False", id="brute_knn_all"),
        pytest.param(lambda d, k, n_centers: dpc_original(d, 1.0, n_centers), None, True,
                     "n_centers must be an integer, got True", id="dpc_original-bool"),
        pytest.param(lambda d, k, n_centers: dpc_original(d, 1.0, n_centers), None, 1.5,
                     "n_centers must be an integer, got 1.5", id="dpc_original-float"),
    ],
)
def test_k_and_n_centers_must_be_integers(two_blobs, run, k, n_centers, message):
    """A bool or a float is no count: a ValueError names the parameter."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(two_blobs, k, n_centers=n_centers)


def test_numpy_integer_counts_are_accepted(two_blobs):
    res = core.run_sktdpc(two_blobs, np.int64(5), n_centers=np.int32(2))
    assert np.array_equal(res.labels, core.run_sktdpc(two_blobs, 5, n_centers=2).labels)
    assert dpc_original(two_blobs, 1.0, np.int64(2)).centers == dpc_original(two_blobs, 1.0, 2).centers
    with pytest.raises(ValueError, match=r"^n_centers must be in \[1, 300\], got 301$"):
        dpc_original(two_blobs, 1.0, np.int64(301))


def test_run_sktdpc_identical_points_equals_reference():
    """1500 coincident points: every pair ties at distance 0, the tree is
    still 11 nodes deep, and no stage recurses."""
    d = Dataset(np.full((1500, 2), 3.0))
    fast = core.run_sktdpc(d, 7)
    ref = sktdpc_reference(d, 7)
    assert fast.centers == ref.centers
    assert fast.mutation_point == ref.mutation_point
    assert np.array_equal(fast.labels, ref.labels)
    assert fast.flags == ref.flags


@pytest.mark.parametrize(
    "dim, scale",
    [(2, 1e-170), (1, 1e-200), (3, 2.0**-600)],
    ids=["2d-1e-170", "1d-1e-200", "3d-2^-600"],
)
def test_run_sktdpc_equals_reference_where_squares_underflow(dim, scale):
    """Every squared difference underflows to 0, so every distance is 0 while
    every split plane lies a nonzero ``|diff|`` away: the tree searches must
    bound by ``sqrt(diff * diff)``.  Every field but the counts and timings
    equals the full-matrix pipeline's, bits included."""
    d = Dataset(np.random.default_rng(1).random((200, dim)) * scale)
    fast = core.run_sktdpc(d, 7)
    ref = sktdpc_reference(d, 7)
    assert fast.centers == ref.centers
    assert fast.candidate_centers == ref.candidate_centers
    assert fast.mutation_point == ref.mutation_point
    assert np.array_equal(fast.labels, ref.labels)
    assert fast.flags == ref.flags
    for name in ("density", "density_order", "separation", "nearest_denser", "decision",
                 "decision_order"):
        assert getattr(fast.profile, name).tobytes() == getattr(ref.profile, name).tobytes(), name
