"""Dataset loading, validation, normalization, synthesis and PCA reduction.

A :class:`Dataset` is an immutable bundle of an ``n x K`` float matrix,
optional ground-truth labels, and a name tag.  All functions here are pure:
they return new Dataset instances and never mutate their inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np


class ParseError(ValueError):
    """Raised when a delimited text file cannot be parsed into a Dataset."""


@dataclass(frozen=True)
class Dataset:
    """Points in K-dimensional feature space with optional class labels."""

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a non-empty 2-D matrix, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or infinite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labs = np.asarray(self.labels, dtype=np.int64)
            if labs.shape != (pts.shape[0],):
                raise ValueError(
                    f"labels length {labs.shape} does not match point count {pts.shape[0]}"
                )
            labs.setflags(write=False)
            object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _detect_delimiter(first_line: str) -> str:
    return "comma" if "," in first_line else "whitespace"


def _split_row(line: str, delimiter: str) -> list[str]:
    if delimiter == "comma":
        return [f.strip() for f in line.split(",")]
    return line.split()


def load(
    path: str | os.PathLike,
    delimiter: str = "auto",
    label_column: int | None = None,
    has_header: bool = False,
    name: str | None = None,
) -> Dataset:
    """Load a delimited text file into a Dataset.

    ``delimiter`` is one of ``auto``, ``comma`` or ``whitespace``; ``auto``
    tries comma first and falls back to runs of whitespace.  ``label_column``
    selects the ground-truth column by index (negative counts from the end).
    Label tokens may be arbitrary strings; they are mapped to dense integer
    ids in first-occurrence order.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()

    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if has_header and lines:
        lines = lines[1:]
    if not lines:
        raise ParseError(f"{path}: file contains no data rows")

    if delimiter == "auto":
        delimiter = _detect_delimiter(lines[0][1])
    elif delimiter not in ("comma", "whitespace"):
        raise ValueError(f"unknown delimiter mode {delimiter!r}")

    rows: list[list[float]] = []
    label_tokens: list[str] = []
    width = None
    for lineno, line in lines:
        fields = _split_row(line, delimiter)
        if width is None:
            width = len(fields)
            ncols = width - (1 if label_column is not None else 0)
            if ncols < 1:
                raise ParseError(f"{path}: line {lineno}: no feature columns")
        elif len(fields) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} fields, found {len(fields)}"
            )
        if label_column is not None:
            try:
                label_tokens.append(fields[label_column])
            except IndexError:
                raise ParseError(
                    f"{path}: line {lineno}: label column {label_column} out of range"
                ) from None
            lc = label_column if label_column >= 0 else width + label_column
            values = [f for i, f in enumerate(fields) if i != lc]
        else:
            values = fields
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            bad = next(v for v in values if not _is_float(v))
            raise ParseError(
                f"{path}: line {lineno}: non-numeric field {bad!r}"
            ) from None

    labels = None
    if label_column is not None:
        seen: dict[str, int] = {}
        labels = np.array([seen.setdefault(t, len(seen)) for t in label_tokens])

    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(np.array(rows, dtype=np.float64), labels, name)


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def save(d: Dataset, path: str | os.PathLike, delimiter: str = "whitespace") -> None:
    """Write a Dataset as delimited text, labels (if any) in the last column.

    Feature values are written with 17 significant digits so that a
    load/save round trip reproduces the matrix exactly.
    """
    sep = "," if delimiter == "comma" else " "
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(d.n):
            fields = [f"{v:.17g}" for v in d.points[i]]
            if d.labels is not None:
                fields.append(str(int(d.labels[i])))
            fh.write(sep.join(fields) + "\n")


def normalize(d: Dataset, mode: str = "min-max") -> Dataset:
    """Rescale each feature independently to [0, 1] (``min-max``) or pass through (``none``).

    A constant feature maps to all zeros.
    """
    if mode == "none":
        return d
    if mode != "min-max":
        raise ValueError(f"unknown normalize mode {mode!r}")
    lo = d.points.min(axis=0)
    hi = d.points.max(axis=0)
    span = hi - lo
    span[span == 0.0] = 1.0
    scaled = (d.points - lo) / span
    return replace(d, points=scaled)


def pca_reduce(d: Dataset, target_dim: int) -> Dataset:
    """Project onto the leading eigenvectors of the sample covariance matrix.

    Components are taken by descending eigenvalue, equal eigenvalues by
    ascending index; each eigenvector's sign is fixed so its largest-magnitude
    entry is positive, making the projection deterministic.
    """
    if not 1 <= target_dim <= d.dim:
        raise ValueError(f"target_dim must be in [1, {d.dim}], got {target_dim}")
    centered = d.points - d.points.mean(axis=0)
    if d.n > 1:
        cov = centered.T @ centered / (d.n - 1)
    else:
        cov = np.zeros((d.dim, d.dim))
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.lexsort((np.arange(len(eigvals)), -eigvals))
    basis = eigvecs[:, order[:target_dim]]
    for j in range(basis.shape[1]):
        col = basis[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, j] = -col
    projected = centered @ basis
    return replace(d, points=projected, name=f"{d.name}-pca{target_dim}" if d.name else f"pca{target_dim}")


def generate_gaussian_blobs(
    centers: list | np.ndarray,
    spread: float | list = 1.0,
    points_per_cluster: int | list = 100,
    seed: int = 0,
    name: str = "blobs",
) -> Dataset:
    """Sample isotropic Gaussian clusters around the given centers.

    Deterministic for a fixed seed; labels record the generating cluster.
    ``spread`` and ``points_per_cluster`` may be scalars or per-cluster lists.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    n_clusters = centers.shape[0]
    spreads = np.broadcast_to(np.asarray(spread, dtype=np.float64), (n_clusters,))
    if np.any(spreads <= 0):
        raise ValueError("spread must be positive")
    counts = np.broadcast_to(np.asarray(points_per_cluster, dtype=np.int64), (n_clusters,))
    rng = np.random.default_rng(seed)
    chunks = []
    labels = []
    for c in range(n_clusters):
        chunks.append(centers[c] + rng.normal(0.0, spreads[c], size=(counts[c], centers.shape[1])))
        labels.extend([c] * counts[c])
    return Dataset(np.vstack(chunks), np.array(labels), name)
