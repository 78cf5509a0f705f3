import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from sktdpc import normalize, registry, run_sktdpc
from sktdpc.metrics import (
    INDICES,
    ContingencyTable,
    _expected_mutual_information,
    _mutual_information,
    _pair_counts,
    acc,
    ami,
    ari,
    contingency,
    fmi,
    nmi,
    score_all,
)

labelings = st.lists(st.integers(0, 3), min_size=2, max_size=40)


def test_contingency_examples():
    t = contingency([0, 0, 1, 1], [1, 1, 0, 0])
    assert t.counts.tolist() == [[0, 2], [2, 0]]
    t = contingency([0, 0, 1, 1], [0, 0, 1, 1])
    assert t.counts.tolist() == [[2, 0], [0, 2]]
    t = contingency([0, 0, 1, 1], [0, 1, 0, 1])
    assert t.counts.tolist() == [[1, 1], [1, 1]]


def test_contingency_length_mismatch():
    with pytest.raises(ValueError):
        contingency([0, 1], [0])


def test_contingency_sums():
    t = contingency([0, 1, 2, 0], [1, 1, 0, 0])
    assert t.n == 4
    assert t.row_sums.sum() == 4 and t.col_sums.sum() == 4


def test_acc_identical_and_permuted():
    assert acc(contingency([0, 0, 1, 1], [0, 0, 1, 1])) == 1.0
    assert acc(contingency([0, 0, 1, 1], [1, 1, 0, 0])) == 1.0


def test_acc_optimal_matching_example():
    # [[2,1],[1,2]]: identity matching gives 4 of 6, the swap only 2
    t = ContingencyTable(np.array([[2, 1], [1, 2]]))
    assert abs(acc(t) - 4.0 / 6.0) < 1e-12


def test_acc_extra_clusters_contribute_zero():
    t = contingency([0, 0, 0, 1], [0, 1, 2, 3])
    assert acc(t) == 0.5


def test_identical_partitions_score_one_everywhere():
    truth = [0, 0, 1, 1, 2, 2, 2]
    pred = [5, 5, 9, 9, 1, 1, 1]
    scores = score_all(truth, pred)
    for name, value in scores.items():
        assert abs(value - 1.0) < 1e-12, name


@pytest.mark.parametrize(
    "truth, pred",
    [([0, 0, 1, 1], [5, 5, -1, -1]), ([0, 0, 0, 1, 1, 1, 2, 2], [1, 1, 1, 0, 0, 0, 2, 2])],
)
def test_fmi_of_relabelled_identical_partitions_is_exactly_one(truth, pred):
    assert fmi(contingency(truth, pred)) == 1.0


def test_ari_hand_example():
    t = contingency([0, 0, 1, 1], [0, 1, 0, 1])
    assert abs(ari(t) - (-0.5)) < 1e-12


def test_single_cluster_degenerate_rules():
    # identical single-cluster partitions are perfect, mismatched ones are not
    both_single = contingency([0, 0, 0], [1, 1, 1])
    assert ari(both_single) == 1.0
    assert nmi(both_single) == 1.0
    assert fmi(both_single) == 1.0
    one_single = contingency([0, 0, 1], [1, 1, 1])
    assert nmi(one_single) == 0.0


@settings(max_examples=60, deadline=None)
@given(labelings, labelings, st.permutations(range(4)))
def test_relabel_invariance(truth, pred, perm):
    if len(truth) != len(pred):
        truth = (truth * 40)[: min(len(truth), len(pred))]
        pred = (pred * 40)[: len(truth)]
    if len(truth) < 2:
        return
    renamed = [perm[p] for p in pred]
    for fn in (acc, ami, ari, nmi, fmi):
        assert fn(contingency(truth, pred)) == pytest.approx(
            fn(contingency(truth, renamed)), abs=1e-9
        )


@settings(max_examples=60, deadline=None)
@given(labelings, labelings)
def test_symmetry_and_ranges(truth, pred):
    if len(truth) != len(pred):
        truth = (truth * 40)[: min(len(truth), len(pred))]
        pred = (pred * 40)[: len(truth)]
    if len(truth) < 2:
        return
    t = contingency(truth, pred)
    t_swapped = contingency(pred, truth)
    for fn in (ari, nmi, ami, fmi):
        assert fn(t) == pytest.approx(fn(t_swapped), abs=1e-9)
    assert 0.0 <= acc(t) <= 1.0
    assert 0.0 <= nmi(t) <= 1.0
    assert 0.0 <= fmi(t) <= 1.0
    assert -1.0 < ari(t) <= 1.0
    assert -1.0 < ami(t) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(labelings, labelings)
def test_ami_at_most_nmi(truth, pred):
    if len(truth) != len(pred):
        truth = (truth * 40)[: min(len(truth), len(pred))]
        pred = (pred * 40)[: len(truth)]
    if len(truth) < 2:
        return
    t = contingency(truth, pred)
    assert ami(t) <= nmi(t) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_cross_check_against_sklearn(seed):
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    truth = rng.integers(0, 4, size=n)
    pred = rng.integers(0, 3, size=n)
    if len(set(truth.tolist())) < 2 or len(set(pred.tolist())) < 2:
        return
    t = contingency(truth, pred)
    assert ari(t) == pytest.approx(sklearn_metrics.adjusted_rand_score(truth, pred), abs=1e-9)
    assert nmi(t) == pytest.approx(
        sklearn_metrics.normalized_mutual_info_score(truth, pred, average_method="geometric"),
        abs=1e-9,
    )
    assert ami(t) == pytest.approx(
        sklearn_metrics.adjusted_mutual_info_score(truth, pred, average_method="arithmetic"),
        abs=1e-9,
    )
    assert fmi(t) == pytest.approx(sklearn_metrics.fowlkes_mallows_score(truth, pred), abs=1e-9)


def reference_expected_mutual_information(t):
    """The scalar triple loop the table-driven sum replaced, kept as its
    oracle: nine ``gammaln`` calls per term, terms added in order."""
    n = t.n
    log_n_fact = gammaln(n + 1)
    emi = 0.0
    for ai in t.row_sums.tolist():
        for bj in t.col_sums.tolist():
            for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                log_prob = (
                    gammaln(ai + 1)
                    + gammaln(bj + 1)
                    + gammaln(n - ai + 1)
                    + gammaln(n - bj + 1)
                    - log_n_fact
                    - gammaln(nij + 1)
                    - gammaln(ai - nij + 1)
                    - gammaln(bj - nij + 1)
                    - gammaln(n - ai - bj + nij + 1)
                )
                emi += (nij / n) * (np.log(n * nij) - np.log(ai * bj)) * np.exp(log_prob)
    return float(emi)


def _emi_tables():
    rng = np.random.default_rng(9)
    tables = [
        [[1]],  # n = 1
        [[5, 0, 3]],  # a single class
        [[4], [2], [7]],  # a single cluster
        [[3, 1, 0, 2, 5], [0, 4, 1, 1, 0]],  # more clusters than classes
        [[0, 0], [0, 9]],
    ]
    for _ in range(100):
        rows, cols = rng.integers(1, 8, size=2)
        counts = rng.integers(0, int(rng.choice([2, 10, 60])), size=(rows, cols))
        counts[0, 0] += 1
        tables.append(counts)
    return tables


def test_expected_mutual_information_equals_scalar_loop():
    for counts in _emi_tables():
        t = ContingencyTable(np.array(counts))
        assert _expected_mutual_information(t) == reference_expected_mutual_information(t), counts


def reference_mutual_information(t):
    """The nested loop over the table's cells the in-order array sum
    replaced, kept as its oracle: terms in row-major order, added to 0.0."""
    n = t.n
    a = t.row_sums
    b = t.col_sums
    mi = 0.0
    for i in range(t.counts.shape[0]):
        for j in range(t.counts.shape[1]):
            nij = t.counts[i, j]
            if nij > 0:
                mi += (nij / n) * np.log(n * nij / (a[i] * b[j]))
    return float(mi)


def _comb2(x) -> int:
    x = int(x)
    return x * (x - 1) // 2


def reference_pair_counts(t):
    """The pair count per numpy scalar the ``.tolist()`` sums replaced."""
    return (
        sum(_comb2(v) for v in t.counts.ravel()),
        sum(_comb2(a) for a in t.row_sums),
        sum(_comb2(b) for b in t.col_sums),
    )


DEGENERATE_TABLES = {
    "n = 1": [[1]],
    "one class": [[5, 0, 3]],
    "one cluster": [[4], [2], [7]],
    "identical partitions": [[0, 3, 0], [2, 0, 0], [0, 0, 1]],
    "one class, one cluster": [[6]],
}


def _sweep_bundled_pairs():
    """(truth, labels) of every bundled fixture at k = 2..10 with its class
    count as the center count, min-max normalised: the scored cells of the
    benchmark's ``sweep-bundled`` workload."""
    pairs = []
    for name, info in registry.REGISTRY.items():
        if info.bundled_file:
            raw = registry.load_named(name)
            data = normalize(raw, "min-max")
            pairs += [(raw.labels, run_sktdpc(data, k, n_centers=info.clusters).labels)
                      for k in range(2, 11)]
    return pairs


def _oracle_tables():
    return ([ContingencyTable(np.array(c)) for c in _emi_tables()]
            + [ContingencyTable(np.array(c)) for c in DEGENERATE_TABLES.values()]
            + [contingency(truth, pred) for truth, pred in _sweep_bundled_pairs()])


def test_mutual_information_and_pair_counts_equal_the_scalar_loops():
    tables = _oracle_tables()
    assert len(tables) == 105 + 5 + 63
    for t in tables:
        assert _mutual_information(t) == reference_mutual_information(t), t.counts
        assert _pair_counts(t) == reference_pair_counts(t), t.counts
        assert all(type(c) is int for c in _pair_counts(t))


@pytest.mark.parametrize("name", DEGENERATE_TABLES)
def test_degenerate_tables_score_one_only_for_identical_partitions(name):
    t = ContingencyTable(np.array(DEGENERATE_TABLES[name]))
    if name in ("one class", "one cluster"):  # one entropy is 0, and the pair counts are not
        assert nmi(t) == 0.0 and ari(t) == 0.0 and 0.0 < fmi(t) < 1.0
    else:
        assert ari(t) == nmi(t) == ami(t) == fmi(t) == 1.0
    assert _expected_mutual_information(t) == reference_expected_mutual_information(t)


def test_ari_at_one_point_is_one():
    assert ari(ContingencyTable(np.array([[1]]))) == 1.0
    assert ari(contingency([7], [3])) == 1.0


@pytest.mark.parametrize("counts", [np.zeros((0, 2)), np.zeros((2, 0)), [[]], [1, 2]])
def test_contingency_table_rejects_an_empty_or_flat_table(counts):
    with pytest.raises(ValueError, match="non-empty 2-D"):
        ContingencyTable(np.array(counts))


def test_contingency_table_rejects_negative_counts():
    with pytest.raises(ValueError, match="non-negative"):
        ContingencyTable(np.array([[3, -1], [0, 2]]))


def test_contingency_table_sums_are_computed_once_and_read_only():
    t = ContingencyTable(np.array([[3, 1], [0, 2]]))
    assert t.row_sums.tolist() == [4, 2] and t.col_sums.tolist() == [3, 3] and t.n == 6
    assert t.row_sums is t.row_sums and type(t.n) is int
    for array in (t.counts, t.row_sums, t.col_sums):
        with pytest.raises(ValueError):
            array[0] = 9


def test_score_all_keys_are_the_indices_in_report_order():
    assert INDICES == ("acc", "ami", "ari", "nmi", "fmi")
    assert tuple(score_all([0, 0, 1], [1, 1, 1])) == INDICES
