"""Correctness checks: full-matrix oracle digests and exact result equality.

A run's output is judged by ``baseline.sktdpc_reference`` on the same input:
labels, centers, mutation point, and the separation and nearest-denser bits
must match.  Reference digests are cached on disk, keyed by the input bytes,
the cell parameters and the source of the package and of this file, so a
change to any of them recomputes the reference.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

import sktdpc
from sktdpc import baseline


def digest(result) -> str:
    """Hash of the quantities the oracle pins for one clustering result."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.labels, dtype=np.int64).tobytes())
    h.update(repr((tuple(result.centers), result.mutation_point)).encode())
    h.update(np.ascontiguousarray(result.profile.separation, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(result.profile.nearest_denser, dtype=np.int64).tobytes())
    return h.hexdigest()


def fingerprint(result) -> tuple:
    """Every field of a ClusteringResult except its timings, arrays as bytes,
    for exact equality between two runs of the same pipeline."""
    p = result.profile
    arrays = (result.labels, p.density, p.density_order, p.separation,
              p.nearest_denser, p.decision, p.decision_order)
    return (
        result.centers, result.mutation_point, result.candidate_centers,
        result.distance_evaluations, result.distance_ratio, result.flags,
        result.algorithm, result.dataset_name, sorted(result.params.items()),
        tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays),
    )


def _source_hash() -> str:
    h = hashlib.sha256()
    files = sorted(Path(sktdpc.__file__).parent.glob("*.py")) + [Path(__file__)]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference_digests(cells, cache_dir: Path) -> list[str]:
    """Oracle digest for every cell, computed once per distinct input."""
    source = _source_hash()
    cache_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for c in cells:
        key = hashlib.sha256()
        key.update(source.encode())
        key.update(repr((c.data.points.shape, c.k, c.n_centers)).encode())
        key.update(np.ascontiguousarray(c.data.points).tobytes())
        path = cache_dir / f"{key.hexdigest()}.txt"
        if path.exists():
            out.append(path.read_text().strip())
            continue
        value = digest(baseline.sktdpc_reference(c.data, c.k, n_centers=c.n_centers))
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(value + "\n")
        os.replace(tmp, path)
        out.append(value)
    return out


def unit_error(outputs, cells, want: list[str]) -> str | None:
    """Why a unit's outputs are wrong, or None when every cell matches.
    Each output starts with the cell's ClusteringResult and scores."""
    for (result, scores, *_), c, ref in zip(outputs, cells, want):
        if digest(result) != ref:
            return f"{c.data.name} k={c.k}: result differs from sktdpc_reference"
        if c.reference_acc is not None and round(scores["acc"], 3) != c.reference_acc:
            return (f"{c.data.name} k={c.k}: acc {scores['acc']:.4f} "
                    f"!= registry reference {c.reference_acc}")
    return None
