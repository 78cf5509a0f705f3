"""The sparse density-peaks clustering pipeline.

Stages: k-NN local density, sparse relative-separation search, decision
values, mutation-point center detection with pseudo-center filtering, and
label propagation along nearest-denser-point links.  Every stage is a pure
function; :func:`run_sktdpc` chains them and collects instrumentation.  The
stages after separation are shared with the full-matrix
:func:`sktdpc.baseline.sktdpc_reference`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset
from .kdtree import _check_count, build, knn_all, nearest_denser_all
from .sparse import SparseDistanceMatrix


@dataclass(frozen=True)
class DpcProfile:
    """Per-point quantities the center search runs on.

    ``density_order`` and ``decision_order`` sort descending with ascending
    index as tie break.  ``nearest_denser[i]`` is -1 for the densest point.
    """

    density: np.ndarray
    density_order: np.ndarray
    separation: np.ndarray
    nearest_denser: np.ndarray
    decision: np.ndarray
    decision_order: np.ndarray

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class ClusteringResult:
    """Centers, per-point labels and instrumentation for one clustering run."""

    centers: tuple[int, ...]
    labels: np.ndarray
    mutation_point: int | None
    candidate_centers: tuple[int, ...]
    distance_evaluations: int
    distance_ratio: float
    timings: dict[str, float]
    flags: tuple[str, ...]
    profile: DpcProfile
    algorithm: str = "sktdpc"
    dataset_name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels.setflags(write=False)

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting values descending, equal values by ascending index."""
    return np.lexsort((np.arange(len(values)), -values))


def local_density(neighbors: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """Local density of every point: reciprocal of its summed k-NN distances.

    ``neighbors.distances`` is the (n, k) array :func:`~sktdpc.kdtree.knn_all`
    returns; its columns are added left to right, starting from 0.0, the
    order of a scalar loop along each row.  A point whose k nearest
    neighbors are all coincident with it gets an infinite-density sentinel
    and sorts first.
    """
    total = np.zeros(len(neighbors))
    for column in neighbors.distances.T:
        total += column
    density = np.full(len(total), np.inf)
    np.divide(1.0, total, out=density, where=total > 0.0)
    return density, _descending_order(density)


def relative_separation(
    density: np.ndarray,
    density_order: np.ndarray,
    neighbors: np.recarray,
    cache: SparseDistanceMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to its nearest denser point, found sparsely.

    For the densest point the separation is its distance to the farthest
    point.  For any other point, if some k-nearest neighbor is denser, the
    first such neighbor is the answer and no new distance is computed: that
    is the first True of ``rank[indices] < rank[:, None]`` along its row.
    The rest (the fallback points) go, in density order, to one exact
    nearest-denser search on the k-d tree the cache was filled from
    (``cache.tree``, set by :func:`~sktdpc.kdtree.knn_all`), which prunes
    subtrees with no denser point; the paper scans every denser point here
    instead, and the search's pairs are a subset of that scan's.  Ties break
    on ascending index.
    """
    tree = cache.tree
    if tree is None:
        raise ValueError("relative_separation needs the cache returned by knn_all")
    n = len(density)
    rank = np.empty(n, dtype=np.int64)  # inverse of the density order
    rank[density_order] = np.arange(n)
    denser = rank[neighbors.indices] < rank[:, None]
    hit = denser.any(axis=1)
    first = denser.argmax(axis=1)
    rows = np.arange(n)
    separation = neighbors.distances[rows, first]
    nearest_denser = np.where(hit, neighbors.indices[rows, first], -1)

    densest = int(density_order[0])
    separation[densest] = cache.distances(densest, np.flatnonzero(rows != densest)).max(initial=0.0)
    fallback = density_order[1:][~hit[density_order[1:]]]
    separation[fallback], nearest_denser[fallback] = nearest_denser_all(tree, fallback, rank, cache)
    return separation, nearest_denser


def decision_values(density: np.ndarray, separation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decision value of each point: density times separation.

    Infinite-density sentinels propagate to an infinite decision value and
    sort first.
    """
    with np.errstate(invalid="ignore"):
        decision = density * separation
    infinite = np.isinf(density)
    if infinite.any():
        decision = np.where(infinite, np.inf, decision)
    return decision, _descending_order(decision)


def mutation_point(
    decision: np.ndarray, decision_order: np.ndarray
) -> tuple[int, tuple[str, ...]]:
    """Rank separating center candidates from the rest of the decision curve.

    Scored second-order differences of the descending decision values over
    ranks [2, floor(sqrt(n))]; the winner is the largest rank attaining the
    maximum score.  Degenerate windows fall back deterministically and are
    flagged.
    """
    n = len(decision)
    m = math.isqrt(n)
    if m - 2 < 2:
        return 2, ("mutation-window-too-small",)
    ranked = decision[decision_order]

    def gs(rank: int) -> float:
        return float(ranked[rank - 1])

    window = ranked[1:m]
    lo, hi = float(window.min()), float(window.max())
    if hi == lo:
        return m - 2, ("flat-decision-window",)
    spread = hi - lo

    def mu(i: int) -> float:
        return gs(i) - gs(i + 1)

    best_score = -math.inf
    best_rank = 2
    for i in range(2, m - 1):
        xi = mu(i) - mu(i + 1)
        score = ((i + 1) / i) ** 2 * xi / spread
        if not math.isfinite(score):
            continue
        if score >= best_score:  # ties resolve to the largest rank
            best_score = score
            best_rank = i
    if best_score == -math.inf:
        return m - 2, ("non-finite-decision-window",)
    return best_rank, ()


def select_centers(
    density: np.ndarray,
    separation: np.ndarray,
    decision_order: np.ndarray,
    m_p: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[str, ...]]:
    """Filter candidate centers (top decision ranks) against density and
    separation means taken over the top floor(sqrt(n)) decision ranks.

    Candidates must exceed both means; an emptied set falls back to the
    top-ranked point.
    """
    n = len(density)
    candidates = tuple(int(x) for x in decision_order[: min(m_p, n)])
    top = decision_order[: min(math.isqrt(n), n)]
    density_mean = float(density[top].mean())
    separation_mean = float(separation[top].mean())
    centers = tuple(
        c
        for c in candidates
        if density[c] > density_mean and separation[c] > separation_mean
    )
    if centers:
        return centers, candidates, ()
    return (candidates[0],), candidates, ("center-filter-fallback",)


def assign_labels(
    density_order: np.ndarray,
    nearest_denser: np.ndarray,
    centers: Sequence[int],
    distance_fn: Callable[[int, int], float],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Propagate cluster ids from centers along nearest-denser links.

    The roots are the centers and every other point whose link is -1; such
    a point (the densest, when it is not a center) first joins the nearest
    center's cluster, ties to the lower cluster id, through ``distance_fn``
    (flagged).  Every other point takes the label of the root its chain of
    links ends at, found for all points together by pointer doubling.
    ValueError unless every link is -1 or points to a strictly denser point
    (earlier in ``density_order``), so every chain ends at a root.
    """
    n = len(density_order)
    link = np.asarray(nearest_denser, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[density_order] = np.arange(n)
    valid = link == -1
    inside = (link >= 0) & (link < n)
    valid[inside] = rank[link[inside]] < rank[inside]
    if not valid.all():
        i = int(np.flatnonzero(~valid)[0])
        raise ValueError(f"nearest_denser[{i}] = {link[i]} is not a denser point")
    labels = np.full(n, -1, dtype=np.int64)
    labels[list(centers)] = np.arange(len(centers))
    flags: tuple[str, ...] = ()
    for i in density_order[(link[density_order] == -1) & (labels[density_order] < 0)].tolist():
        labels[i] = min((distance_fn(i, c), cid) for cid, c in enumerate(centers))[1]
        flags = ("densest-point-not-center",)
    up = np.where(labels >= 0, np.arange(n), link)  # the roots are labelled now
    while not np.array_equal(further := up[up], up):  # doubles the links followed
        up = further
    return labels[up], flags


def _checked_params(d: Dataset, k: int, n_centers: int | None) -> dict:
    """Validate k and n_centers against the dataset; the result's params dict."""
    _check_count("k", k, d.n - 1)
    if n_centers is not None:
        _check_count("n_centers", n_centers, d.n)
    return {"k": k} if n_centers is None else {"k": k, "n_centers": n_centers}


def _timed(timings: dict[str, float], stage: str, fn: Callable, *args):
    """``fn(*args)``, its wall time recorded under ``stage``."""
    t0 = time.perf_counter()
    out = fn(*args)
    timings[stage] = time.perf_counter() - t0
    return out


def _finish(
    d: Dataset, params: dict, algorithm: str, timings: dict[str, float],
    density: np.ndarray, density_order: np.ndarray,
    separation: np.ndarray, nearest_denser: np.ndarray,
    distance_fn: Callable[[int, int], float],
    evaluations: Callable[[], tuple[int, float]],
) -> ClusteringResult:
    """Stages every k-NN density variant shares: decision values, centers
    (adaptive, or the top ``params["n_centers"]`` ranks) and label
    assignment, then the result.  ``evaluations`` gives the distance
    evaluation count and ratio; it is read after assignment, which may
    compute distances through ``distance_fn``.
    """
    n_centers = params.get("n_centers")
    t0 = time.perf_counter()
    decision, decision_order = decision_values(density, separation)
    m_p, flags_m = mutation_point(decision, decision_order)
    if n_centers is None:
        centers, candidates, flags_c = select_centers(
            density, separation, decision_order, m_p
        )
    else:
        centers = candidates = tuple(int(x) for x in decision_order[:n_centers])
        flags_c = ("fixed-center-count",)
    timings["centers"] = time.perf_counter() - t0
    labels, flags_a = _timed(
        timings, "assign", assign_labels, density_order, nearest_denser, centers, distance_fn
    )
    timings["total"] = sum(timings.values())

    flags = flags_m + flags_c + flags_a
    if np.isinf(density).any():
        flags = flags + ("infinite-density-sentinel",)
    distance_evaluations, distance_ratio = evaluations()
    return ClusteringResult(
        centers=centers,
        labels=labels,
        mutation_point=m_p,
        candidate_centers=candidates,
        distance_evaluations=distance_evaluations,
        distance_ratio=distance_ratio,
        timings=timings,
        flags=flags,
        profile=DpcProfile(
            density, density_order, separation, nearest_denser, decision, decision_order
        ),
        algorithm=algorithm,
        dataset_name=d.name,
        params=params,
    )


def run_sktdpc(d: Dataset, k: int, n_centers: int | None = None) -> ClusteringResult:
    """Cluster a dataset with the tree-accelerated sparse pipeline.

    With ``n_centers=None`` the center count is detected adaptively from the
    decision curve (mutation point plus pseudo-center filter).  Passing an
    explicit ``n_centers`` takes the top that many decision-value ranks as
    centers instead, the usual benchmark convention when the class count is
    known; the detected mutation point is still reported.

    Deterministic for a fixed input; per-phase wall times and the distance
    evaluation counter are reported alongside the labels.
    """
    params = _checked_params(d, k, n_centers)
    timings: dict[str, float] = {}
    tree = _timed(timings, "build", build, d)
    neighbors, cache = _timed(timings, "knn", knn_all, tree, k)
    density, density_order = _timed(timings, "density", local_density, neighbors)
    separation, nearest_denser = _timed(
        timings, "separation", relative_separation, density, density_order, neighbors, cache
    )
    return _finish(
        d, params, "sktdpc", timings, density, density_order, separation,
        nearest_denser, cache.distance, lambda: (cache.evaluations, cache.ratio()),
    )
