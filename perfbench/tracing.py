"""The traced run: the public stage functions chained by hand, with spans.

``traced_unit`` does what ``workloads.run_unit`` does, but calls the stages
of ``run_sktdpc`` one by one (``kdtree.build``, ``kdtree.knn_all``,
``core.local_density``, ``core.relative_separation``, the three center
stages, ``core.assign_labels``) plus ``metrics.score_all`` where the cell
scores.  Each call sits in a span, and distance-evaluation counts are taken
as deltas of the shared cache around it.  The chain rebuilds the
``ClusteringResult`` so it can be held to ``run_sktdpc``'s bit for bit: if
the stage API changes, the benchmark fails instead of timing something else.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from sktdpc import core, kdtree, metrics
from sktdpc.sparse import SparseDistanceMatrix

STAGES = ("kdtree.build", "kdtree.knn", "core.density", "core.separation",
          "core.centers", "core.assign", "metrics.score")


class Tracer:
    """In-memory span recorder: (name, unit id, parent index, start, end)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, self.unit, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def self_times(self, unit: int) -> dict[str, float]:
        """Summed self time per span name within one unit: each span's
        duration minus the part covered by its children."""
        own = {}
        for i, (name, u, parent, start, end) in enumerate(self.spans):
            if u == unit:
                own[i] = end - start
        for i in own:
            parent = self.spans[i][2]
            if parent in own:
                own[parent] -= self.spans[i][4] - self.spans[i][3]
        out: dict[str, float] = {}
        for i, t in own.items():
            name = self.spans[i][0]
            out[name] = out.get(name, 0.0) + t
        return out


class LookupProbe:
    """Counts calls to ``SparseDistanceMatrix.distance`` while active.

    The public method is swapped at class level for the duration of a
    ``with`` block, so every cache the stages create is counted.  ``callers``
    collects the first argument of each call, which is the querying point.
    """

    def __init__(self):
        self.lookups = 0
        self.cached = 0
        self.callers: set[int] = set()

    def __enter__(self):
        original = self._original = SparseDistanceMatrix.distance
        probe = self

        def distance(cache, i, j):
            before = cache.evaluations
            d = original(cache, i, j)
            probe.lookups += 1
            probe.cached += cache.evaluations == before
            probe.callers.add(i)
            return d

        SparseDistanceMatrix.distance = distance
        return self

    def __exit__(self, *exc):
        SparseDistanceMatrix.distance = self._original


def _traced_cell(c, tracer: Tracer, probe: LookupProbe | None):
    d, k, n = c.data, c.k, c.data.n
    with tracer.span("kdtree.build"):
        tree = kdtree.build(d)
    with tracer.span("kdtree.knn"):
        neighbor_sets, cache = kdtree.knn_all(tree, k)
    evals_knn = cache.evaluations
    with tracer.span("core.density"):
        density, density_order = core.local_density(neighbor_sets)

    # The densest point's scan evaluates every pair of it not yet cached.
    densest = int(density_order[0])
    densest_cached = sum(cache.get(densest, j) is not None for j in range(n) if j != densest)
    if probe is not None:
        probe.callers = set()
    before = cache.evaluations
    with tracer.span("core.separation"):
        separation, nearest_denser = core.relative_separation(
            density, density_order, neighbor_sets, cache
        )
    evals_separation = cache.evaluations - before
    fallback = None if probe is None else len(probe.callers - {densest})

    with tracer.span("core.centers"):
        decision, decision_order = core.decision_values(density, separation)
        m_p, flags_m = core.mutation_point(decision, decision_order)
        if c.n_centers is None:
            centers, candidates, flags_c = core.select_centers(
                density, separation, decision_order, m_p
            )
        else:
            centers = tuple(int(x) for x in decision_order[: c.n_centers])
            candidates = centers
            flags_c = ("fixed-center-count",)
    before = cache.evaluations
    with tracer.span("core.assign"):
        labels, flags_a = core.assign_labels(density_order, nearest_denser, centers, cache.distance)
    evals_assign = cache.evaluations - before
    # Entered for every cell, so the layer always reports a measured time.
    with tracer.span("metrics.score"):
        scores = metrics.score_all(c.raw.labels, labels) if c.score else None

    flags = flags_m + flags_c + flags_a
    if np.isinf(density).any():
        flags = flags + ("infinite-density-sentinel",)
    result = core.ClusteringResult(
        centers=centers,
        labels=labels,
        mutation_point=m_p,
        candidate_centers=candidates,
        distance_evaluations=cache.evaluations,
        distance_ratio=cache.ratio(),
        timings={},
        flags=flags,
        profile=core.DpcProfile(
            density, density_order, separation, nearest_denser, decision, decision_order
        ),
        algorithm="sktdpc",
        dataset_name=d.name,
        params={"k": k} if c.n_centers is None else {"k": k, "n_centers": c.n_centers},
    )

    rank = np.empty(n, dtype=np.int64)
    rank[density_order] = np.arange(n)
    neighbors = np.array([ns.indices for ns in neighbor_sets], dtype=np.int64)
    counts = {
        "n": n,
        "k": k,
        "depth": tree.depth(),
        "evals_knn": evals_knn,
        "evals_densest": n - 1 - densest_cached,
        "evals_fallback": evals_separation - (n - 1 - densest_cached),
        "evals_assign": evals_assign,
        # the intersection branch: some k-nearest neighbor ranks denser
        "intersection_hits": int((rank[neighbors] < rank[:, None]).any(axis=1).sum()),
        "fallback_points": fallback,
        "pairs_stored": len(cache),
    }
    return result, scores, counts


def traced_unit(cells, tracer: Tracer, probe: LookupProbe | None = None):
    """One unit of work through the hand-chained stages, inside a ``unit``
    span with one ``cell`` span per cell.  Returns one (result, scores,
    counters) triple per cell, led by what ``workloads.run_unit`` returns."""
    outputs = []
    with tracer.span("unit"):
        for c in cells:
            with tracer.span("cell"):
                outputs.append(_traced_cell(c, tracer, probe))
    tracer.unit += 1
    return outputs


def invariant_errors(outputs) -> list[str]:
    """Counter identities that must hold for every cell of a probed unit."""
    errors = []
    for result, _, cnt in outputs:
        total = cnt["evals_knn"] + cnt["evals_densest"] + cnt["evals_fallback"] + cnt["evals_assign"]
        if total != result.distance_evaluations:
            errors.append(f"stage evaluations sum to {total}, run_sktdpc reports "
                          f"{result.distance_evaluations}")
        if cnt["intersection_hits"] + cnt["fallback_points"] != cnt["n"] - 1:
            errors.append(f"intersection hits {cnt['intersection_hits']} + fallback points "
                          f"{cnt['fallback_points']} != n - 1 = {cnt['n'] - 1}")
    return errors
