"""Exact full-matrix reference implementations used as oracles.

Everything here scans the complete pairwise distance matrix: brute-force
k-NN, the classic cut-off-density peaks algorithm, and a full-matrix twin of
the sparse pipeline for equivalence testing.  Nothing is approximated.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import core
from .dataset import Dataset
from .kdtree import _check_count, _records


def full_matrix(d: Dataset) -> np.ndarray:
    """All n(n-1)/2 pairwise Euclidean distances as a symmetric matrix.

    Accumulates squared differences dimension by dimension so entries are
    bit-identical to a scalar left-to-right evaluation of the same formula.
    """
    pts = d.points
    n = pts.shape[0]
    sq = np.zeros((n, n))
    for h in range(pts.shape[1]):
        diff = pts[:, h, None] - pts[None, :, h]
        sq += diff * diff
    return np.sqrt(sq)


def brute_knn_all(m: np.ndarray, k: int) -> np.recarray:
    """Exact k nearest neighbors of every point by one stable argsort of the
    matrix rows, as :func:`sktdpc.kdtree.knn_all` returns them.

    Same tie rule as the tree search: equal distances order by ascending
    point index.  A point is at 0.0 from itself, but coincident points of
    lower index sort before it, so it may fall past the k-th column: the
    first k + 1 columns hold the k nearest others either way.
    """
    n = m.shape[0]
    _check_count("k", k, n - 1)
    order = np.argsort(m, axis=1, kind="stable")[:, : k + 1]
    keep = order != np.arange(n)[:, None]
    keep[:, k] = ~keep[:, :k].all(axis=1)  # drop the point itself, else the (k+1)-th
    indices = order[keep].reshape(n, k)
    return _records(indices, np.take_along_axis(m, indices, axis=1))


def brute_separation(
    m: np.ndarray, density_order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relative separation by direct scans of the full matrix.

    The densest point takes its farthest distance; every other point takes
    the minimum distance to the points preceding it in the density order,
    ties by ascending index.
    """
    n = m.shape[0]
    separation = np.empty(n)
    nearest_denser = np.full(n, -1, dtype=np.int64)
    for r, i in enumerate(int(x) for x in density_order):
        if r == 0:
            separation[i] = float(m[i].max())
            continue
        preceding = density_order[:r]
        vals = m[i, preceding]
        best = vals.min()
        separation[i] = float(best)
        nearest_denser[i] = int(preceding[vals == best].min())
    return separation, nearest_denser


def cutoff_distance(m: np.ndarray, percent: float) -> float:
    """Cut-off distance at the given percentage of sorted pairwise distances.

    The usual 1-2 percent heuristic for the cut-off-density algorithm.
    """
    n = m.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    iu = np.triu_indices(n, k=1)
    flat = np.sort(m[iu])
    pos = int(np.ceil(percent / 100.0 * len(flat))) - 1
    return float(flat[min(max(pos, 0), len(flat) - 1)])


def dpc_original(
    d: Dataset, dc: float, n_centers: int, kernel: str = "cutoff"
) -> core.ClusteringResult:
    """Classic density-peaks clustering with a cut-off radius.

    ``cutoff`` density is the count of points within the radius; ``gaussian``
    is the smooth variant the widely circulated reference implementation
    uses, which behaves much better when counts tie heavily (chained shapes).
    Centers are the top ``n_centers`` decision values, standing in for the
    manual pick off the decision graph.
    """
    if not (math.isfinite(dc) and dc > 0):
        raise ValueError(f"dc must be a positive finite number, got {dc}")
    _check_count("n_centers", n_centers, d.n)
    t0 = time.perf_counter()
    m = full_matrix(d)
    if kernel == "cutoff":
        density = (m < dc).sum(axis=1).astype(np.float64) - 1.0  # drop self
    elif kernel == "gaussian":
        density = np.exp(-((m / dc) ** 2)).sum(axis=1) - 1.0  # drop self term
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    density_order = core._descending_order(density)
    separation, nearest_denser = brute_separation(m, density_order)
    decision, decision_order = core.decision_values(density, separation)
    centers = tuple(int(x) for x in decision_order[:n_centers])
    labels, flags = core.assign_labels(
        density_order, nearest_denser, centers, lambda i, j: float(m[i, j])
    )
    elapsed = time.perf_counter() - t0
    n_pairs = d.n * (d.n - 1) // 2
    return core.ClusteringResult(
        centers=centers,
        labels=labels,
        mutation_point=None,
        candidate_centers=centers,
        distance_evaluations=n_pairs,
        distance_ratio=1.0,
        timings={"total": elapsed},
        flags=flags,
        profile=core.DpcProfile(
            density, density_order, separation, nearest_denser, decision, decision_order
        ),
        algorithm="dpc",
        dataset_name=d.name,
        params={"dc": dc, "n_centers": n_centers, "kernel": kernel},
    )


def sktdpc_reference(d: Dataset, k: int, n_centers: int | None = None) -> core.ClusteringResult:
    """Full-matrix twin of the sparse pipeline, for equivalence testing.

    k-NN, density and separation all come from direct scans of the complete
    distance matrix; the center detection and label assignment stages are
    the ones :func:`sktdpc.core.run_sktdpc` runs.
    """
    params = core._checked_params(d, k, n_centers)
    timings: dict[str, float] = {}
    m = core._timed(timings, "matrix", full_matrix, d)
    neighbors = core._timed(timings, "knn", brute_knn_all, m, k)
    density, density_order = core._timed(timings, "density", core.local_density, neighbors)
    separation, nearest_denser = core._timed(
        timings, "separation", brute_separation, m, density_order
    )
    n_pairs = d.n * (d.n - 1) // 2
    return core._finish(
        d, params, "sktdpc-reference", timings, density, density_order, separation,
        nearest_denser, lambda i, j: float(m[i, j]), lambda: (n_pairs, 1.0),
    )
