"""sktdpc benchmark: one workload, one seed, a fixed measuring window.

Usage (from the repository root):

    python3 perfbench/run.py --workload blobs15-5000 --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Load is a closed loop: one caller in one process; the next
unit of work starts when the previous one has returned.

``--trace 0`` times units of work through the public API and reports the
end-to-end metrics; its times are rescaled to a reference host speed
measured by a fixed loop run between units (see ``hostspeed.py``).
``--trace 1`` alternates those units with traced units that chain the stage
functions by hand (see ``tracing.py``), runs one more traced unit that
counts cache lookups, and reports the per-layer metrics as plain wall times.
Either way every unit is checked against the full-matrix oracle outside the
timed regions, readable lines go to stdout, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit status
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sktdpc  # noqa: E402  (must come from ROOT/src, checked in main)
from scipy.spatial import cKDTree  # noqa: E402

from hostspeed import REFERENCE_S, reference_s  # noqa: E402
from oracle import fingerprint, reference_digests, unit_error  # noqa: E402
from tracing import STAGES, LookupProbe, Tracer, invariant_errors, traced_unit  # noqa: E402
from workloads import WORKLOADS, run_unit, setup  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 51
REFERENCE_SHARE = 0.25  # reference passes take at least this share of the units' time
CKDTREE_REPEATS = 5


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"no percentile has >=10 of {n} samples beyond it"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s of {n} samples"


def _timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Run:
    """Attempted and failed units of one benchmark run.

    Outputs are kept and checked against the oracle only after the measuring
    is done, so neither the check nor the reference's memory shows in it."""

    def __init__(self, cells):
        self.cells = cells
        self.attempted = 0
        self.failed = 0
        self._outputs = []

    def unit(self, fn, *args):
        """One timed unit of work: (outputs, seconds), or (None, None) if it raised."""
        self.attempted += 1
        try:
            outputs, seconds = _timed(fn, self.cells, *args)
        except Exception:  # a unit that raises is a failed unit; keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        self._outputs.append(outputs)
        return outputs, seconds

    def check(self, reference: list[str]) -> None:
        for outputs in self._outputs:
            error = unit_error(outputs, self.cells, reference)
            if error:
                print(f"FAILED unit: {error}", file=sys.stderr)
                self.failed += 1
        self._outputs = []


def end_to_end(run: Run, args) -> dict:
    """Units back to back until ``args.seconds`` have passed, with set-up
    timed ``SETUP_REPEATS`` times after the first unit.  Passes of the
    reference loop run before the set-ups and after every timed phase, at
    least ``REFERENCE_SHARE`` of the units' time, and both medians are
    rescaled by ``REFERENCE_S`` over the mean pass (see ``hostspeed.py``),
    which cancels the host's drift between runs; the mean, because the
    passes sample the host's speed across the whole window.  Peak memory is
    read around the first unit, before any reference pass."""
    times, ratio, refs, mem = [], math.nan, [], None
    start = time.perf_counter()
    while True:
        rss = _maxrss_mb()
        outputs, t = run.unit(run_unit)
        if mem is None:  # in a process that has run nothing but one set-up
            mem = _maxrss_mb() - rss
            refs.append(reference_s())
            setup_times = [_timed(setup, args.workload, args.seed)[1]
                           for _ in range(SETUP_REPEATS)]
        refs.append(reference_s())
        while sum(refs) < REFERENCE_SHARE * sum(times + [t or 0.0]):
            refs.append(reference_s())
        if outputs is not None:
            times.append(t)
            results = [r for r, _ in outputs]
            ratio = (sum(r.distance_evaluations for r in results)
                     / sum(r.labels.size * (r.labels.size - 1) // 2 for r in results))
        if time.perf_counter() - start >= args.seconds:
            break
    scale = REFERENCE_S / statistics.mean(refs)
    setup_s = statistics.median(setup_times) * scale
    run_s = statistics.median(times) * scale if times else math.nan
    print(f"reference loop: mean {statistics.mean(refs):.4f} s of {len(refs)} passes, "
          f"so wall times are scaled by {scale:.4f}; passes {' '.join(f'{r:.3f}' for r in refs)}")
    print(f"setup_s {setup_s:.6f} s: median of {SETUP_REPEATS} set-ups, scaled")
    print(f"run_s {run_s:.4f} s: median of {len(times)} units, scaled; "
          f"{_tail([t * scale for t in times])}; wall times {' '.join(f'{t:.3f}' for t in times)}")
    return {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"), "peak_mem_mb": (mem, "MB"),
            "distance_ratio": (ratio, "fraction")}


def per_layer(run: Run, args) -> tuple[dict, list[str]]:
    loading = Tracer()
    for _ in range(SETUP_REPEATS):
        setup(args.workload, args.seed, loading.span)
    load_s = statistics.median(s[4] - s[3] for s in loading.spans if s[0] == "dataset.load")

    tracer = Tracer()
    errors: list[str] = []
    plain, traced, want = [], [], None
    start = time.perf_counter()
    while True:
        outputs, t = run.unit(run_unit)
        if outputs is not None:
            plain.append(t)
            want = want or [fingerprint(r) for r, _ in outputs]
        unit_id = tracer.unit
        outputs, _ = run.unit(traced_unit, tracer)
        if outputs is not None:
            if want is not None and [fingerprint(r) for r, *_ in outputs] != want:
                errors.append("traced stage chain differs from run_sktdpc")
            traced.append(tracer.self_times(unit_id))
        if time.perf_counter() - start >= args.seconds:
            break
    with LookupProbe() as probe:
        probed, _ = run.unit(traced_unit, Tracer(), probe)
    if not plain or not traced or probed is None:
        return {}, errors + ["no successful untraced, traced and probed units"]
    errors += invariant_errors(probed)

    ckdtree_s = 0.0
    for c in run.cells:
        samples = [_timed(lambda p: cKDTree(p).query(p, c.k + 1), c.data.points)[1]
                   for _ in range(CKDTREE_REPEATS)]
        ckdtree_s += statistics.median(samples)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "unit", "parent", "start", "end"], "spans": tracer.spans}))

    def med(name):
        return statistics.median(t.get(name, 0.0) for t in traced)

    counts = [cnt for *_, cnt in probed]

    def total(key):
        return sum(c[key] for c in counts)

    traced_run = statistics.median(sum(t.values()) for t in traced)
    metrics = {f"{s}_s": (med(s), "s") for s in STAGES}
    metrics.update({
        "kdtree.depth": (max(c["depth"] for c in counts), "count"),
        "kdtree.evals_knn": (total("evals_knn"), "count"),
        "kdtree.knn_yield": (sum(c["n"] * c["k"] for c in counts) / total("evals_knn"), "fraction"),
        "kdtree.ckdtree_knn_s": (ckdtree_s, "s"),
        "sparse.pairs_stored": (total("pairs_stored"), "count"),
        "sparse.lookups": (probe.lookups, "count"),
        "sparse.hit_rate": (probe.cached / probe.lookups, "fraction"),
        "core.evals_densest": (total("evals_densest"), "count"),
        "core.evals_fallback": (total("evals_fallback"), "count"),
        "core.evals_assign": (total("evals_assign"), "count"),
        "core.fallback_points": (total("fallback_points"), "count"),
        "core.intersection_hits": (total("intersection_hits"), "count"),
        "core.intersection_hit_rate": (total("intersection_hits") / sum(c["n"] - 1 for c in counts),
                                       "fraction"),
        "dataset.load_s": (load_s, "s"),
        "trace.unit_self_s": (statistics.median(t["unit"] + t["cell"] for t in traced), "s"),
        "trace.traced_run_s": (traced_run, "s"),
        "trace.overhead_s": (traced_run - statistics.median(plain), "s"),
    })
    shares = sorted(((med(s) / traced_run, s) for s in STAGES), reverse=True)
    print("stage share of the traced unit: "
          + ", ".join(f"{s} {100 * f:.1f}%" for f, s in shares))
    print(f"untraced unit {statistics.median(plain):.4f} s (median of {len(plain)}), "
          f"traced unit {traced_run:.4f} s (median of {len(traced)})")
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(sktdpc.__file__).resolve().parents:
        print(f"sktdpc was imported from {sktdpc.__file__}, not from {src}", file=sys.stderr)
        return 2

    cells = setup(args.workload, args.seed)
    sizes = sorted({f"{c.data.n}x{c.data.dim}" for c in cells})
    print(f"workload {args.workload} seed {args.seed}: {len(cells)} cells, inputs {' '.join(sizes)}")
    run = Run(cells)
    if args.trace:
        metrics, errors = per_layer(run, args)
    else:
        metrics, errors = end_to_end(run, args), []
    t0 = time.perf_counter()
    run.check(reference_digests(cells, OUT_DIR / "oracle"))
    print(f"oracle check took {time.perf_counter() - t0:.1f} s, after the measuring")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.4g} fraction "
          f"({run.failed} of {run.attempted} units)")
    correct = run.failed == 0 and not errors and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
