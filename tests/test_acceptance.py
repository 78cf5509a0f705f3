"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Reproduction criteria try the documented configurations (normalization
on/off, adaptive or class-count centers) and record which one matches the
published score.
"""

import time

import numpy as np
import pytest

from conftest import random_dataset
from sktdpc import core, registry
from sktdpc.baseline import (
    brute_knn_all,
    brute_separation,
    full_matrix,
    sktdpc_reference,
)
from sktdpc.dataset import Dataset, normalize
from sktdpc.kdtree import build, knn_all
from sktdpc.metrics import ContingencyTable, acc, ami, ari, contingency, fmi, nmi, score_all


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """Shared corpus for criteria 1 and 2: 100 seeded datasets, one k-d tree
    pass and one full-matrix pass each, with all cross-checks recorded."""
    failures = {"knn": [], "pipeline": [], "delta": [], "intersection": []}
    rng = np.random.default_rng(20240001)
    for case in range(100):
        seed = int(rng.integers(0, 2**31))
        d = random_dataset(seed)
        k = min(int(rng.integers(3, 11)), d.n - 1)

        tree = build(d)
        sets, cache = knn_all(tree, k)
        m = full_matrix(d)
        ref_sets = brute_knn_all(m, k)
        if sets != ref_sets:
            failures["knn"].append(seed)
            continue

        density, order = core.local_density(sets)
        rank = np.empty(d.n, dtype=int)
        rank[order] = np.arange(d.n)
        fallback = {int(order[0])}
        for i in range(d.n):
            if rank[i] > 0 and not any(rank[j] < rank[i] for j, _ in sets[i].neighbors):
                fallback.add(i)
        known = cache.pairs()
        simulated = set()
        for r, i in enumerate(int(x) for x in order):
            if r == 0:
                need = {(min(i, j), max(i, j)) for j in range(d.n) if j != i}
            elif i in fallback:
                need = {(min(i, int(j)), max(i, int(j))) for j in order[:r]}
            else:
                continue
            simulated |= need - known
        # `simulated` holds the new pairs of the paper's scan: the densest
        # point against all, each fallback point against every denser point.
        # The tree query evaluates a subset of them, never more, and the
        # intersection branch evaluates none.
        densest = int(order[0])
        densest_pairs = {(min(densest, j), max(densest, j)) for j in range(d.n) if j != densest}
        before = cache.evaluations
        separation, nearest_denser = core.relative_separation(density, order, sets, cache)
        new = cache.pairs() - known
        evaluated = cache.evaluations - before
        if not (new <= simulated and densest_pairs <= cache.pairs()
                and evaluated == len(new) <= len(simulated)):
            failures["intersection"].append(seed)

        ref_sep, ref_nhd = brute_separation(m, order)
        if not (np.array_equal(separation, ref_sep) and np.array_equal(nearest_denser, ref_nhd)):
            failures["delta"].append(seed)

        decision, decision_order = core.decision_values(density, separation)
        m_p, _ = core.mutation_point(decision, decision_order)
        centers, _, _ = core.select_centers(density, separation, decision_order, m_p)
        labels, _ = core.assign_labels(order, nearest_denser, centers, cache.distance)
        ref = sktdpc_reference(d, k)
        if not (centers == ref.centers and m_p == ref.mutation_point
                and np.array_equal(labels, ref.labels)):
            failures["pipeline"].append(seed)
    return failures


def test_criterion_1_oracle_equivalence(corpus):
    bad = corpus["knn"] + corpus["pipeline"]
    _report(
        "1 (oracle equivalence)", not bad,
        f"100 seeded datasets, knn failures={corpus['knn']}, pipeline failures={corpus['pipeline']}",
    )


def test_criterion_2_sparse_separation_exactness(corpus):
    bad = corpus["delta"] + corpus["intersection"]
    _report(
        "2 (sparse separation exactness)", not bad,
        f"delta mismatches={corpus['delta']}, intersection-branch violations={corpus['intersection']}",
    )


def _best_configuration(name: str, k: int, bar):
    """Try normalization on/off and adaptive/class-count centers; return the
    first configuration meeting the bar plus the full score table."""
    raw = registry.load_named(name)
    clusters = registry.REGISTRY[name].clusters
    table = {}
    best = None
    for mode in ("min-max", "none"):
        d = normalize(raw, mode)
        for centers_mode, n_centers in (("adaptive", None), ("class-count", clusters)):
            result = core.run_sktdpc(d, k, n_centers=n_centers)
            scores = score_all(raw.labels, result.labels)
            table[(mode, centers_mode)] = scores
            if best is None and bar(scores):
                best = (mode, centers_mode, scores)
    return best, table


def test_criterion_3_synthetic_reproduction():
    cases = [
        ("flame", 3, lambda s: s["acc"] == 1.0),
        ("spiral", 4, lambda s: s["acc"] == 1.0 and s["ami"] == 1.0 and s["ari"] == 1.0),
        ("aggregation", 6, lambda s: s["acc"] >= 0.99),
        ("r15", 5, lambda s: s["acc"] >= 0.99),
    ]
    details = []
    ok = True
    for name, k, bar in cases:
        best, table = _best_configuration(name, k, bar)
        if best is None:
            ok = False
            details.append(f"{name}: UNMET, best acc={max(s['acc'] for s in table.values()):.3f}")
        else:
            mode, centers_mode, scores = best
            details.append(f"{name}: acc={scores['acc']:.3f} [{mode}/{centers_mode}]")
    _report("3 (synthetic reproduction)", ok, "; ".join(details))


def test_criterion_4_real_data_reproduction():
    cases = [("iris", 2, 0.960, 0.02), ("seeds", 3, 0.914, 0.03), ("wine", 6, 0.893, 0.05)]
    details = []
    ok = True
    for name, k, target, tol in cases:
        best, table = _best_configuration(
            name, k, lambda s, t=target, w=tol: abs(s["acc"] - t) <= w
        )
        if best is None:
            ok = False
            details.append(f"{name}: UNMET target {target}+-{tol}")
        else:
            mode, centers_mode, scores = best
            details.append(f"{name}: acc={scores['acc']:.3f} (target {target}+-{tol}) [{mode}/{centers_mode}]")
    _report("4 (real-data reproduction)", ok, "; ".join(details))


def test_criterion_5_mutation_point_two_cluster_fixture():
    d = registry.load_named("ss2")
    results = {}
    for k in range(3, 8):
        res = core.run_sktdpc(d, k)
        results[k] = (res.mutation_point, len(res.centers))
    ok = all(v == (2, 2) for v in results.values())
    _report("5 (mutation point on two-cluster fixture)", ok, f"k->(m_p, centers): {results}")


def test_criterion_6_efficiency_ratio():
    d = registry.load_named("blobs15-5000")
    t0 = time.perf_counter()
    fast = core.run_sktdpc(d, 7)
    fast_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = sktdpc_reference(d, 7)
    ref_wall = time.perf_counter() - t0
    n_pairs = d.n * (d.n - 1) // 2
    ratio = fast_wall / ref_wall
    eval_fraction = fast.distance_evaluations / n_pairs
    ok = (
        ratio <= 2.0 / 3.0
        and eval_fraction < 0.5
        and np.array_equal(fast.labels, ref.labels)
    )
    _report(
        "6 (efficiency ratio)", ok,
        f"wall {fast_wall:.2f}s vs {ref_wall:.2f}s (ratio {ratio:.2f}, need <=0.67); "
        f"evaluations {eval_fraction:.1%} of full matrix (need <50%)",
    )


def test_criterion_7_metric_suite_properties():
    checks = []
    t = contingency([0, 0, 1, 1, 2], [2, 2, 0, 0, 1])
    checks.append(all(abs(fn(t) - 1.0) < 1e-12 for fn in (acc, ami, ari, nmi, fmi)))
    checks.append(abs(ari(contingency([0, 0, 1, 1], [0, 1, 0, 1])) - (-0.5)) < 1e-12)
    checks.append(abs(acc(ContingencyTable(np.array([[2, 1], [1, 2]]))) - 4.0 / 6.0) < 1e-12)
    rng = np.random.default_rng(7)
    relabel_ok = True
    for _ in range(20):
        truth = rng.integers(0, 4, size=30)
        pred = rng.integers(0, 4, size=30)
        perm = rng.permutation(4)
        renamed = perm[pred]
        for fn in (acc, ami, ari, nmi, fmi):
            if abs(fn(contingency(truth, pred)) - fn(contingency(truth, renamed))) > 1e-9:
                relabel_ok = False
    checks.append(relabel_ok)
    _report(
        "7 (metric suite properties)", all(checks),
        f"identical=1: {checks[0]}, ARI=-0.5: {checks[1]}, Acc=4/6: {checks[2]}, relabel: {checks[3]}",
    )


def test_criterion_8_scaling_argmax_invariance():
    bad = []
    for seed in range(20):
        d = random_dataset(9000 + seed, n=150)
        k = 5
        base = core.run_sktdpc(d, k)
        for c in (0.1, 10.0):
            scaled = Dataset(d.points * c, d.labels, d.name)
            res = core.run_sktdpc(scaled, k)
            if not (
                np.array_equal(res.profile.decision_order, base.profile.decision_order)
                and res.mutation_point == base.mutation_point
                and res.centers == base.centers
                and np.array_equal(res.labels, base.labels)
            ):
                bad.append((seed, c))
    _report("8 (scaling invariance)", not bad, f"20 fixtures x c in {{0.1, 10}}; violations: {bad}")


def test_criterion_9_robustness_sweep():
    cases = [
        ("flame", lambda s: s >= 1.0),
        ("spiral", lambda s: s >= 1.0),
        ("aggregation", lambda s: s >= 0.99),
        ("r15", lambda s: s >= 0.99),
    ]
    details = []
    ok = True
    for name, bar in cases:
        raw = registry.load_named(name)
        clusters = registry.REGISTRY[name].clusters
        hits = []
        for k in range(2, 11):
            for centers_mode, n_centers in (("adaptive", None), ("class-count", clusters)):
                res = core.run_sktdpc(normalize(raw, "min-max"), k, n_centers=n_centers)
                if bar(acc(contingency(raw.labels, res.labels))):
                    hits.append((k, centers_mode))
                    break
        if hits:
            details.append(f"{name}: k={sorted(set(h[0] for h in hits))}")
        else:
            ok = False
            details.append(f"{name}: no k in [2,10] attains the bar")
    _report("9 (robustness sweep)", ok, "; ".join(details))
