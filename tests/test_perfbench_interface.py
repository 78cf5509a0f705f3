"""The benchmark's traced run, held to the library from the tier-1 suite.

``perfbench/tracing.py`` chains the public stages by hand: it unpacks
``knn_all`` into neighbors and cache, hands the neighbors to density and
separation, reads their ``indices`` row by row, and counts fallback points
as the callers of ``SparseDistanceMatrix.distance``.  A change to any of
that should fail here, not only when the benchmark runs.  The benchmark's
modules are imported as they are, never edited.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import oracle
        import tracing
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return oracle, tracing, workloads


def test_traced_run_reproduces_run_unit_on_sweep_cells(perfbench):
    oracle, tracing, workloads = perfbench
    cells = workloads.setup("sweep-bundled", 1)[:3]
    with tracing.LookupProbe() as probe:
        outputs = tracing.traced_unit(cells, tracing.Tracer(), probe)
    plain = workloads.run_unit(cells)
    assert [oracle.fingerprint(r) for r, *_ in outputs] == [oracle.fingerprint(r) for r, _ in plain]
    assert [s for _, s, _ in outputs] == [s for _, s in plain]
    assert tracing.invariant_errors(outputs) == []
    assert all(counts["fallback_points"] > 0 for *_, counts in outputs)
