"""External clustering-quality indices computed from a contingency table.

Accuracy uses exact optimal one-to-one matching between clusters and
classes; the information-theoretic indices use natural-log entropies and the
exact hypergeometric expected mutual information for the adjustment.  All
five indices are 1 for a perfect match.  Where the denominator of ARI, NMI,
AMI or FMI is zero, as at n = 1, the index is 1 for identical partitions and
0 otherwise (:func:`_degenerate`).  Pair counts are exact
Python integers, and the terms of the mutual information and of its
expectation are added in order (:func:`_in_order_sum`), so every index has
the bits of a scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts between true classes (rows) and clusters
    (columns), with their row sums, column sums and total, all read-only."""

    counts: np.ndarray
    row_sums: np.ndarray = field(init=False, repr=False, compare=False)
    col_sums: np.ndarray = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.size == 0:
            raise ValueError("contingency table must be a non-empty 2-D matrix")
        if (counts < 0).any():
            raise ValueError("contingency counts must be non-negative")
        for name, value in (("counts", counts), ("row_sums", counts.sum(axis=1)),
                            ("col_sums", counts.sum(axis=0))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", int(counts.sum()))


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


def _degenerate(t: ContingencyTable) -> float:
    """The value of ARI, NMI, AMI and FMI where their denominator is zero:
    1.0 if the partitions are identical (every class is one cluster), else
    0.0."""
    nonzero = t.counts > 0
    return float((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all())


def _in_order_sum(terms: np.ndarray) -> float:
    """``terms`` added to 0.0 one at a time, in order, as a scalar loop adds
    them; ``np.cumsum`` does so, where ``np.sum`` would add them pairwise."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def acc(t: ContingencyTable) -> float:
    """Clustering accuracy: best one-to-one cluster-to-class matching over n."""
    rows, cols = linear_sum_assignment(t.counts, maximize=True)
    return float(t.counts[rows, cols].sum()) / t.n


def _pair_counts(t: ContingencyTable) -> tuple[int, int, int]:
    """Pairs of points sharing a cell, a class and a cluster, as Python
    integers, so no count overflows or rounds."""
    return tuple(sum(x * (x - 1) // 2 for x in a.tolist())
                 for a in (t.counts.ravel(), t.row_sums, t.col_sums))


def ari(t: ContingencyTable) -> float:
    """Adjusted Rand index under the permutation null model."""
    index, sum_rows, sum_cols = _pair_counts(t)
    total = t.n * (t.n - 1) // 2
    expected = sum_rows * sum_cols / total if total else 0.0
    maximum = (sum_rows + sum_cols) / 2.0
    denom = maximum - expected
    if denom == 0.0:
        return _degenerate(t)
    return (index - expected) / denom


def _entropy(sums: np.ndarray, n: int) -> float:
    p = sums[sums > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(t: ContingencyTable) -> float:
    """Mutual information: one term per nonzero cell, in row-major order."""
    n = t.n
    rows, cols = np.nonzero(t.counts)
    nij = t.counts[rows, cols]
    return _in_order_sum((nij / n) * np.log(n * nij / (t.row_sums[rows] * t.col_sums[cols])))


def nmi(t: ContingencyTable) -> float:
    """Normalized mutual information with geometric-mean normalization."""
    hu = _entropy(t.row_sums, t.n)
    hv = _entropy(t.col_sums, t.n)
    denom = np.sqrt(hu * hv)
    if denom == 0.0:
        return _degenerate(t)
    return float(min(max(_mutual_information(t) / denom, 0.0), 1.0))


def _expected_mutual_information(t: ContingencyTable) -> float:
    """Exact expectation of mutual information under the hypergeometric model.

    ``lg[x]`` is ``gammaln(x)``.  The terms of every (row, column) pair are
    one array, in the order of the scalar triple loop (rows, then columns,
    then ``nij`` ascending), each computed with the operands in that loop's
    order, and added in that order.
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
    return _in_order_sum((nij / n) * (np.log(n * nij) - np.log(ai * bj)) * np.exp(log_prob))


def ami(t: ContingencyTable) -> float:
    """Adjusted mutual information, arithmetic-mean normalization."""
    hu = _entropy(t.row_sums, t.n)
    hv = _entropy(t.col_sums, t.n)
    mi = _mutual_information(t)
    emi = _expected_mutual_information(t)
    denom = 0.5 * (hu + hv) - emi
    if denom == 0.0:
        return _degenerate(t)
    return float(min((mi - emi) / denom, 1.0))


def fmi(t: ContingencyTable) -> float:
    """Fowlkes-Mallows index: matched pairs over the geometric mean of pair counts."""
    index, sum_rows, sum_cols = _pair_counts(t)
    denom = math.sqrt(sum_rows * sum_cols)  # exact integer product, one rounding
    if denom == 0.0:
        return _degenerate(t)
    return float(min(index / denom, 1.0))


_INDICES = (acc, ami, ari, nmi, fmi)  # in the order reports list them
INDICES = tuple(index.__name__ for index in _INDICES)  # the keys of score_all


def score_all(truth, pred) -> dict[str, float]:
    """All five indices for one labeling pair, keyed and ordered as :data:`INDICES`."""
    t = contingency(truth, pred)
    return {index.__name__: index(t) for index in _INDICES}
