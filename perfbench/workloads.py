"""Benchmark workloads: seeded inputs and the unit of work timed on them.

A workload turns a seed into a list of cells.  A cell is one clustering
problem: a min-max normalised dataset, ``k``, the center mode, and whether
the unit scores the labels against the ground truth.  One unit of work runs
every cell of a workload once, in order, through the public API.  Why each
workload was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sktdpc import Dataset, normalize, registry, run_sktdpc, score_all


@dataclass(frozen=True)
class Cell:
    raw: Dataset
    data: Dataset
    k: int
    n_centers: int | None
    score: bool
    reference_acc: float | None  # checked against the unit's acc when set


@dataclass(frozen=True)
class Workload:
    load: Callable[[int], list[Dataset]]  # seed -> raw datasets
    cells: Callable[[list[tuple[Dataset, Dataset]], int], list[Cell]]  # (raw, normalised) pairs, seed


def _single(k: int):
    def cells(pairs, seed):
        ((raw, data),) = pairs
        return [Cell(raw, data, k, None, False, None)]

    return cells


def _uniform(n: int, dim: int):
    def load(seed):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, dim))
        return [Dataset(pts, None, f"uniform-{n}x{dim}")]

    return load


BUNDLED = [name for name, info in registry.REGISTRY.items() if info.bundled_file]


def _sweep_cells(pairs, seed):
    """Every bundled fixture at k = 2..10 with its class count as the center
    count, scored.  The fixtures are fixed data and the order is fixed too,
    so the seed changes nothing here: a unit keeps every cell's result, and
    a shuffled order moved the unit's peak memory by 12 % between seeds."""
    cells = []
    for raw, data in pairs:
        info = registry.REGISTRY[raw.name]
        for k in range(2, 11):
            ref = info.reference_acc if k == info.default_k else None
            cells.append(Cell(raw, data, k, info.clusters, True, ref))
    return cells


WORKLOADS = {
    "blobs15-5000": Workload(lambda seed: [registry.load_named("blobs15-5000", seed)], _single(7)),
    "uniform-7000x2": Workload(_uniform(7000, 2), _single(7)),
    "uniform-2000x8": Workload(_uniform(2000, 8), _single(7)),
    "sweep-bundled": Workload(
        lambda seed: [registry.load_named(name) for name in BUNDLED], _sweep_cells
    ),
}


def setup(name: str, seed: int, span=lambda _name: nullcontext()) -> list[Cell]:
    """Generate or load the inputs (bundled fixtures are hash-checked) and
    normalise them.  ``span`` wraps the two steps for the traced run."""
    w = WORKLOADS[name]
    with span("dataset.load"):
        raws = w.load(seed)
    with span("dataset.normalize"):
        pairs = [(raw, normalize(raw, "min-max")) for raw in raws]
    return w.cells(pairs, seed)


def run_unit(cells: list[Cell]) -> list[tuple]:
    """One unit of work: cluster every cell, scoring where the cell asks for it."""
    out = []
    for c in cells:
        result = run_sktdpc(c.data, c.k, n_centers=c.n_centers)
        scores = score_all(c.raw.labels, result.labels) if c.score else None
        out.append((result, scores))
    return out
