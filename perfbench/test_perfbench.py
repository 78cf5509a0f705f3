"""Checks of the benchmark itself, on every workload at its real size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import hostspeed
from oracle import digest, fingerprint, unit_error
from sktdpc import baseline
from tracing import LookupProbe, Tracer, invariant_errors, traced_unit
from workloads import WORKLOADS, run_unit, setup


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def probed(request):
    cells = setup(request.param, 1)
    with LookupProbe() as probe:
        outputs = traced_unit(cells, Tracer(), probe)
    return request.param, cells, outputs, probe


def test_traced_chain_reproduces_run_sktdpc(probed):
    _, cells, outputs, _ = probed
    plain = run_unit(cells)
    assert [fingerprint(r) for r, *_ in outputs] == [fingerprint(r) for r, _ in plain]
    assert [s for _, s, _ in outputs] == [s for _, s in plain]


def test_counter_invariants(probed):
    _, _, outputs, probe = probed
    assert invariant_errors(outputs) == []
    assert 0 < probe.cached < probe.lookups


def test_each_workload_stresses_its_layer(probed):
    name, cells, outputs, _ = probed
    counts = [cnt for *_, cnt in outputs]

    def total(key):
        return sum(c[key] for c in counts)

    separation = total("evals_densest") + total("evals_fallback")
    if name == "uniform-2000x8":
        assert total("evals_knn") > 0.8 * cells[0].data.n * (cells[0].data.n - 1) / 2
        assert total("evals_knn") > 20 * separation
    elif name == "uniform-7000x2":
        assert total("evals_fallback") > 3 * total("evals_knn")
    elif name == "blobs15-5000":
        assert total("intersection_hits") > 0.9 * (cells[0].data.n - 1)
    else:
        assert len(cells) == 63 and all(c.score for c in cells)
        assert sum(c.reference_acc is not None for c in cells) == 7


def test_oracle_check_rejects_a_changed_result():
    cells = setup("sweep-bundled", 3)[:2]
    outputs = run_unit(cells)
    want = [digest(baseline.sktdpc_reference(c.data, c.k, n_centers=c.n_centers)) for c in cells]
    assert unit_error(outputs, cells, want) is None
    result, scores = outputs[1]
    labels = np.array(result.labels)
    labels[0] = labels[0] + 1
    outputs[1] = (dataclasses.replace(result, labels=labels), scores)
    assert "differs from sktdpc_reference" in unit_error(outputs, cells, want)


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        a, b = setup(name, 7), setup(name, 7)
        assert [c.data.points.tobytes() for c in a] == [c.data.points.tobytes() for c in b]


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("unit"):
        with tracer.span("cell"):
            with tracer.span("kdtree.build"):
                pass
    own = tracer.self_times(0)
    spans = {s[0]: s[4] - s[3] for s in tracer.spans}
    assert own["kdtree.build"] == spans["kdtree.build"]
    assert own["cell"] == pytest.approx(spans["cell"] - spans["kdtree.build"])
    assert sum(own.values()) == pytest.approx(spans["unit"])


def test_reference_loop_shares_no_code_with_sktdpc():
    source = Path(hostspeed.__file__).read_text().splitlines()
    imports = [line for line in source if line.startswith(("import ", "from "))]
    assert imports and not any("sktdpc" in line for line in imports)
    assert hostspeed.reference_s() > 0
