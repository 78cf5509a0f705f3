"""External clustering-quality indices computed from a contingency table.

Accuracy uses exact optimal one-to-one matching between clusters and
classes; the information-theoretic indices use natural-log entropies and the
exact hypergeometric expected mutual information for the adjustment.  All
five indices are 1 for a perfect match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts between true classes (rows) and clusters (columns)."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.size == 0:
            raise ValueError("contingency table must be a non-empty 2-D matrix")
        if (counts < 0).any():
            raise ValueError("contingency counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def contingency(truth, pred) -> ContingencyTable:
    """Build the contingency table, classes and clusters in sorted label order."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1 or len(truth) < 1:
        raise ValueError(
            f"label vectors must have equal nonzero length, got {truth.shape} and {pred.shape}"
        )
    t_values, rows = np.unique(truth, return_inverse=True)
    p_values, cols = np.unique(pred, return_inverse=True)
    counts = np.zeros((len(t_values), len(p_values)), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return ContingencyTable(counts)


def _identical_partitions(t: ContingencyTable) -> bool:
    nonzero = t.counts > 0
    return bool((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all())


def acc(t: ContingencyTable) -> float:
    """Clustering accuracy: best one-to-one cluster-to-class matching over n."""
    rows, cols = linear_sum_assignment(t.counts, maximize=True)
    return float(t.counts[rows, cols].sum()) / t.n


def _comb2(x) -> int:
    x = int(x)
    return x * (x - 1) // 2


def _pair_counts(t: ContingencyTable) -> tuple[int, int, int]:
    index = sum(_comb2(v) for v in t.counts.ravel())
    sum_rows = sum(_comb2(a) for a in t.row_sums)
    sum_cols = sum(_comb2(b) for b in t.col_sums)
    return index, sum_rows, sum_cols


def ari(t: ContingencyTable) -> float:
    """Adjusted Rand index under the permutation null model."""
    index, sum_rows, sum_cols = _pair_counts(t)
    total = _comb2(t.n)
    if total == 0:
        return 1.0 if _identical_partitions(t) else 0.0
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2.0
    denom = maximum - expected
    if denom == 0.0:
        return 1.0 if _identical_partitions(t) else 0.0
    return (index - expected) / denom


def _entropy(sums: np.ndarray, n: int) -> float:
    p = sums[sums > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(t: ContingencyTable) -> float:
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


def nmi(t: ContingencyTable) -> float:
    """Normalized mutual information with geometric-mean normalization."""
    hu = _entropy(t.row_sums, t.n)
    hv = _entropy(t.col_sums, t.n)
    denom = np.sqrt(hu * hv)
    if denom == 0.0:
        return 1.0 if _identical_partitions(t) else 0.0
    return float(min(max(_mutual_information(t) / denom, 0.0), 1.0))


def _expected_mutual_information(t: ContingencyTable) -> float:
    """Exact expectation of mutual information under the hypergeometric model.

    ``lg[x]`` is ``gammaln(x)``.  The terms of every (row, column) pair are
    one array, in the order of the scalar triple loop (rows, then columns,
    then ``nij`` ascending), each computed with the operands in that loop's
    order; ``np.cumsum`` adds them to 0.0 one at a time, in order, so the
    result keeps the loop's bits (``np.sum`` would add them pairwise).
    """
    n = t.n
    lg = gammaln(np.arange(n + 2.0))
    ai, bj = (a.ravel() for a in np.meshgrid(t.row_sums, t.col_sums, indexing="ij"))
    lo = np.maximum(1, ai + bj - n)
    count = np.maximum(np.minimum(ai, bj) - lo + 1, 0)  # none when ai or bj is 0
    first = np.cumsum(count) - count
    nij = np.arange(count.sum()) + np.repeat(lo - first, count)
    ai, bj = np.repeat(ai, count), np.repeat(bj, count)
    log_prob = (
        lg[ai + 1] + lg[bj + 1] + lg[n - ai + 1] + lg[n - bj + 1] - lg[n + 1]
        - lg[nij + 1]
        - lg[ai - nij + 1]
        - lg[bj - nij + 1]
        - lg[n - ai - bj + nij + 1]
    )
    term = (nij / n) * (np.log(n * nij) - np.log(ai * bj)) * np.exp(log_prob)
    return float(np.cumsum(np.concatenate(([0.0], term)))[-1])


def ami(t: ContingencyTable) -> float:
    """Adjusted mutual information, arithmetic-mean normalization."""
    hu = _entropy(t.row_sums, t.n)
    hv = _entropy(t.col_sums, t.n)
    mi = _mutual_information(t)
    emi = _expected_mutual_information(t)
    denom = 0.5 * (hu + hv) - emi
    if denom == 0.0:
        return 1.0 if _identical_partitions(t) else 0.0
    return float(min((mi - emi) / denom, 1.0))


def fmi(t: ContingencyTable) -> float:
    """Fowlkes-Mallows index: matched pairs over the geometric mean of pair counts."""
    index, sum_rows, sum_cols = _pair_counts(t)
    denom = np.sqrt(sum_rows) * np.sqrt(sum_cols)
    if denom == 0.0:
        return 1.0 if _identical_partitions(t) else 0.0
    return float(min(index / denom, 1.0))


def score_all(truth, pred) -> dict[str, float]:
    """All five indices for one labeling pair."""
    t = contingency(truth, pred)
    return {
        "acc": acc(t),
        "ami": ami(t),
        "ari": ari(t),
        "nmi": nmi(t),
        "fmi": fmi(t),
    }
