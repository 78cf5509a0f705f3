import math

import numpy as np
import pytest

from conftest import random_dataset
from sktdpc import core, registry
from sktdpc.baseline import (
    brute_knn_all,
    cutoff_distance,
    dpc_original,
    full_matrix,
    sktdpc_reference,
)
from sktdpc.dataset import Dataset, normalize
from sktdpc.kdtree import build, knn_all
from sktdpc.metrics import acc, contingency


def test_full_matrix_three_four_five():
    m = full_matrix(Dataset(np.array([[0.0, 0.0], [3.0, 4.0]])))
    assert m[0, 1] == 5.0 and m[1, 0] == 5.0
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0


def test_full_matrix_single_point():
    m = full_matrix(Dataset(np.array([[7.0, 7.0]])))
    assert m.shape == (1, 1) and m[0, 0] == 0.0


def test_full_matrix_symmetric_and_triangle():
    d = random_dataset(12, n=60, dim=4)
    m = full_matrix(d)
    assert np.array_equal(m, m.T)
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j, k = rng.integers(0, 60, size=3)
        assert m[i, j] <= m[i, k] + m[k, j] + 1e-9


def test_brute_knn_examples():
    m = full_matrix(Dataset(np.array([[0.0], [2.0], [5.0]])))
    neighbors = brute_knn_all(m, 1)
    assert neighbors.indices.tolist() == [[1], [0], [1]]
    assert neighbors.distances.tolist() == [[2.0], [2.0], [3.0]]
    assert brute_knn_all(m, 2).indices[1].tolist() == [0, 2]
    with pytest.raises(ValueError, match=r"^k must be in \[1, 2\], got 3$"):
        brute_knn_all(m, 3)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 2\], got 0$"):
        brute_knn_all(m, 0)
    # coincident points of lower index sort before a point's own zero, so
    # the point itself may lie past the k-th column of its sorted row
    m = full_matrix(Dataset(np.array([[1.0], [1.0], [1.0], [1.0], [3.0]])))
    assert brute_knn_all(m, 2).indices.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1], [0, 1]]
    assert brute_knn_all(m, 4).indices[4].tolist() == [0, 1, 2, 3]


def test_dpc_density_collinear():
    d = Dataset(np.array([[0.0], [1.0], [2.0]]))
    res = dpc_original(d, dc=1.5, n_centers=1)
    assert res.profile.density.tolist() == [1.0, 2.0, 1.0]


def test_dpc_density_saturates():
    d = random_dataset(6, n=30, dim=2)
    res = dpc_original(d, dc=1e9, n_centers=2)
    assert (res.profile.density == 29.0).all()


def test_dpc_density_integer_bounded():
    d = random_dataset(7, n=40, dim=2)
    res = dpc_original(d, dc=2.0, n_centers=3)
    assert np.array_equal(res.profile.density, res.profile.density.astype(int))
    assert res.profile.density.max() <= 39


def test_dpc_spiral_gaussian_kernel_reproduces_published_score():
    # the circulated reference implementation of the classic algorithm uses
    # the smooth kernel; the raw cut-off count ties too heavily on chains
    d = registry.load_named("spiral")
    res = dpc_original(d, dc=2.0, n_centers=3, kernel="gaussian")
    assert acc(contingency(d.labels, res.labels)) == 1.0


def test_dpc_rejects_bad_params():
    d = Dataset(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        dpc_original(d, dc=0.0, n_centers=1)
    with pytest.raises(ValueError):
        dpc_original(d, dc=1.0, n_centers=3)
    with pytest.raises(ValueError):
        dpc_original(d, dc=1.0, n_centers=1, kernel="sombrero")


@pytest.mark.parametrize("dc", [math.nan, math.inf, -math.inf, -1.0])
def test_dpc_rejects_dc_that_is_not_positive_and_finite(dc):
    d = Dataset(np.array([[0.0], [1.0], [3.0]]))
    with pytest.raises(ValueError, match="dc must be a positive finite number"):
        dpc_original(d, dc=dc, n_centers=1)


def test_cutoff_distance_percentile():
    d = Dataset(np.array([[0.0], [1.0], [3.0]]))
    m = full_matrix(d)
    # sorted pair distances: 1, 2, 3
    assert cutoff_distance(m, 34.0) == 2.0
    assert cutoff_distance(m, 100.0) == 3.0


def test_reference_equals_fast_pipeline_short_corpus():
    for seed in range(5):
        d = random_dataset(seed + 500)
        k = min(6, d.n - 1)
        fast = core.run_sktdpc(d, k)
        ref = sktdpc_reference(d, k)
        assert fast.centers == ref.centers
        assert fast.mutation_point == ref.mutation_point
        assert np.array_equal(fast.labels, ref.labels)
        assert np.array_equal(fast.profile.density_order, ref.profile.density_order)
        assert np.array_equal(fast.profile.decision_order, ref.profile.decision_order)
        assert np.allclose(fast.profile.density, ref.profile.density, rtol=1e-12)
        assert np.allclose(fast.profile.separation, ref.profile.separation, rtol=1e-12)


def test_reference_degenerate_two_points():
    d = Dataset(np.array([[0.0, 0.0], [2.0, 2.0]]))
    fast = core.run_sktdpc(d, 1)
    ref = sktdpc_reference(d, 1)
    assert fast.centers == ref.centers
    assert np.array_equal(fast.labels, ref.labels)


def test_reference_flame_reproduces_published_score():
    d = registry.load_named("flame")
    res = sktdpc_reference(normalize(d, "min-max"), 3)
    assert acc(contingency(d.labels, res.labels)) == 1.0


def test_full_matrix_matches_tree_cache():
    d = random_dataset(9, n=120, dim=3)
    m = full_matrix(d)
    tree = build(d)
    _, cache = knn_all(tree, 5)
    for i, j in cache.pairs():
        assert cache.get(i, j) == m[i, j]
