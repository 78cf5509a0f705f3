"""Command-line front end: cluster files, benchmark, sweep k, emit plots.

Datasets are file paths or registry names; reports are flat key-value text
with timings quarantined in their own section.  Exit status 0 means all
requested work succeeded, 1 means a bench cell failed, 2 means a usage or
input problem, 3 means an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from . import baseline, core, metrics, plots, registry, report
from .dataset import Dataset, ParseError, load, normalize


def _resolve_dataset(name_or_path: str, label_col: int | None, seed: int) -> Dataset:
    if os.path.exists(name_or_path):
        return load(name_or_path, label_column=label_col)
    if name_or_path in registry.REGISTRY or name_or_path in registry.GENERATED:
        return registry.load_named(name_or_path, seed=seed)
    raise FileNotFoundError(f"no such file or registry dataset: {name_or_path}")


def _write(path: str | None, text: str) -> None:
    """Write text to the named file, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_input(args) -> tuple[Dataset, str, Dataset]:
    """The input as read, the normalize mode, and the normalized input."""
    raw = _resolve_dataset(args.input, args.label_col, args.seed)
    mode = "min-max" if args.normalize == "on" else "none"
    return raw, mode, normalize(raw, mode)


DEFAULT_ALGORITHM = "sktdpc"  # of a bench cell, or a command, that names none


def _run_algorithm(d: Dataset, opts: dict) -> core.ClusteringResult:
    """Run the algorithm named in a bench cell or in ``vars(args)``."""
    algorithm = opts.get("algorithm", DEFAULT_ALGORITHM)
    k, n_centers = opts.get("k"), opts.get("n_centers")
    if algorithm in ("sktdpc", "reference"):
        if k is None:
            raise ValueError(f"k is required for the {algorithm} algorithm")
        run = core.run_sktdpc if algorithm == "sktdpc" else baseline.sktdpc_reference
        return run(d, k, n_centers=n_centers)
    if algorithm == "dpc":
        dc = opts.get("dc")
        if dc is None or n_centers is None:
            raise ValueError("dc and n_centers are required for the dpc algorithm")
        return baseline.dpc_original(d, dc, n_centers, kernel=opts.get("kernel", "cutoff"))
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _scores(raw: Dataset, result: core.ClusteringResult) -> dict[str, float] | None:
    """External indices of the run against the input's ground truth, if any."""
    return None if raw.labels is None else metrics.score_all(raw.labels, result.labels)


def cmd_cluster(args) -> int:
    raw, mode, d = _load_input(args)
    result = _run_algorithm(d, vars(args))
    scores = _scores(raw, result)
    if args.output:
        _write(args.output, "\n".join(str(int(v)) for v in result.labels) + "\n")
    if args.report:
        _write(args.report, report.to_text(result, scores, mode, raw.dim, ()))
    acc = f" acc={scores['acc']:.3f}" if scores else ""
    print(
        f"{raw.name or args.input}: {len(result.centers)} clusters, "
        f"{result.distance_evaluations} distance evaluations "
        f"({result.distance_ratio:.1%} of full matrix){acc}"
    )
    return 0


BUILTIN_SUITES = {
    "synthetic": [
        {"dataset": name, "algorithm": "sktdpc", "k": registry.REGISTRY[name].default_k,
         "n_centers": registry.REGISTRY[name].clusters}
        for name in ("flame", "spiral", "aggregation", "r15")
    ],
    "real": [
        {"dataset": name, "algorithm": "sktdpc", "k": registry.REGISTRY[name].default_k,
         "n_centers": registry.REGISTRY[name].clusters}
        for name in ("iris", "seeds", "wine")
    ],
    "efficiency": [
        {"dataset": "blobs15-5000", "algorithm": "sktdpc", "k": 7},
        {"dataset": "blobs15-5000", "algorithm": "reference", "k": 7},
    ],
}


def _load_suite(name_or_path: str) -> list[dict]:
    if name_or_path in BUILTIN_SUITES:
        return BUILTIN_SUITES[name_or_path]
    with open(name_or_path, "r", encoding="utf-8") as fh:
        cells = json.load(fh)
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ValueError("suite file must hold a JSON list of run cells")
    return cells


def _run_cell(cell: dict, repeats: int, seed: int) -> str:
    raw = _resolve_dataset(cell["dataset"], cell.get("label_col"), seed)
    mode = cell.get("normalize", "min-max")
    d = normalize(raw, mode)
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        previous, result = result, _run_algorithm(d, cell)
        times.append(time.perf_counter() - t0)
        if previous is not None and not np.array_equal(previous.labels, result.labels):
            raise RuntimeError(f"nondeterministic labels for cell {cell}")
    return report.to_text(result, _scores(raw, result), mode, raw.dim, tuple(times))


def cmd_bench(args) -> int:
    texts, failures = [], []
    for cell in _load_suite(args.suite):
        try:
            texts.append(_run_cell(cell, args.repeats, args.seed))
        except Exception as exc:  # record and continue with the rest of the suite
            name = str(cell.get("dataset", "?"))
            algorithm = str(cell.get("algorithm", DEFAULT_ALGORITHM))
            error = f"{type(exc).__name__}: {exc}"
            texts.append(report.error_text(name, algorithm, error))
            failures.append(f"FAILED {name}/{algorithm}: {error}")
    _write(args.output, "".join(texts))
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    raw, mode, d = _load_input(args)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError("need 1 <= k-min <= k-max")
    header = ["k", "centers", "mutation_point", "evaluation_ratio"]
    has_truth = raw.labels is not None
    if has_truth:
        header += metrics.INDICES
    rows = ["\t".join(header)]
    for k in range(args.k_min, args.k_max + 1):
        result = core.run_sktdpc(d, k, n_centers=args.n_centers)
        row = [str(k), str(len(result.centers)), str(result.mutation_point),
               f"{result.distance_ratio:.6f}"]
        if has_truth:
            scores = metrics.score_all(raw.labels, result.labels)
            row += [f"{scores[m]:.6f}" for m in metrics.INDICES]
        rows.append("\t".join(row))
    text = "\n".join(rows) + "\n"
    _write(args.output, text)
    return 0


def cmd_plot(args) -> int:
    raw, mode, d = _load_input(args)
    if args.kind == "scatter" and d.dim != 2:
        raise ValueError(f"scatter plots need 2-D data, got {d.dim} features")
    result = _run_algorithm(d, vars(args))
    title = raw.name or os.path.basename(args.input)
    if args.kind == "scatter":
        svg = plots.scatter_svg(d.points, result.labels, result.centers, title=title)
    elif args.kind == "decision-graph":
        svg = plots.decision_graph_svg(
            result.profile.density, result.profile.separation, result.centers,
            title=f"{title} decision graph",
        )
    else:
        ranked = result.profile.decision[result.profile.decision_order]
        svg = plots.decision_series_svg(
            ranked, result.mutation_point, len(result.centers),
            title=f"{title} decision values",
        )
    _write(args.output, svg)
    print(f"wrote {args.output}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sktdpc",
        description="Density peaks clustering with k-d tree and sparse separation search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_algorithm=True):
        p.add_argument("--k", type=_positive_int, default=None,
                       help="number of nearest neighbors")
        p.add_argument("--n-centers", type=_positive_int, default=None,
                       help="fix the number of cluster centers (default: adaptive)")
        p.add_argument("--normalize", choices=["on", "off"], default="on",
                       help="min-max feature scaling (default on)")
        p.add_argument("--label-col", type=int, default=None,
                       help="ground-truth column index in input files (negative = from end)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for generated registry datasets")
        if with_algorithm:
            p.add_argument("--algorithm", choices=["sktdpc", "reference", "dpc"],
                           default=DEFAULT_ALGORITHM)
            p.add_argument("--dc", type=float, default=None,
                           help="cut-off distance for the dpc algorithm")
            p.add_argument("--kernel", choices=["cutoff", "gaussian"], default="cutoff",
                           help="density kernel for the dpc algorithm")

    p = sub.add_parser("cluster", help="cluster one dataset and write labels")
    p.add_argument("input", help="dataset file or registry name")
    add_common(p)
    p.add_argument("--output", default=None, help="labels file (one id per line)")
    p.add_argument("--report", default=None, help="structured report file")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", required=True,
                   help=f"suite JSON file or builtin: {', '.join(BUILTIN_SUITES)}")
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="report file (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="cluster across a range of k")
    p.add_argument("input", help="dataset file or registry name")
    add_common(p, with_algorithm=False)
    p.add_argument("--k-min", type=_positive_int, default=2)
    p.add_argument("--k-max", type=_positive_int, default=10)
    p.add_argument("--output", default=None, help="delimited table file (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="write an SVG diagnostic plot")
    p.add_argument("kind", choices=["decision-graph", "gamma", "scatter"])
    p.add_argument("input", help="dataset file or registry name")
    add_common(p, with_algorithm=False)
    p.add_argument("--output", required=True, help="output .svg path")
    p.set_defaults(func=cmd_plot)

    return parser


_INPUT_ERRORS = (FileNotFoundError, ParseError, ValueError, KeyError, RuntimeError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # a RecursionError is a RuntimeError, but a fault of ours, not of the input
        if isinstance(exc, _INPUT_ERRORS) and not isinstance(exc, RecursionError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
