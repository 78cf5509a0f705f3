"""Flat key-value run reports.

One ``[run]`` section per clustering run with everything deterministic, and
a ``[timings]`` section holding the wall-clock numbers, so golden comparisons
can mask timing noise by dropping that section.
"""

from __future__ import annotations

from .core import ClusteringResult


def _head(dataset: str, algorithm: str, params: dict, n: int, dim: int,
          normalize: str) -> list[str]:
    return [
        "[run]", f"dataset = {dataset}", f"algorithm = {algorithm}",
        *(f"param_{key} = {params[key]}" for key in sorted(params)),
        f"n = {n}", f"features = {dim}", f"normalize = {normalize}",
    ]


def to_text(result: ClusteringResult, scores: dict[str, float] | None,
            normalize: str, dim: int, repeat_times: tuple[float, ...]) -> str:
    """Report of one run.

    ``scores`` are the external indices against the ground truth (None
    without one), ``normalize`` the feature scaling and ``dim`` the feature
    count of the input.  A bench cell passes the wall time of each repeat;
    their mean is reported as ``time_mean_run``.
    """
    mutation_point = "-" if result.mutation_point is None else result.mutation_point
    lines = _head(result.dataset_name, result.algorithm, result.params,
                  len(result.labels), dim, normalize) + [
        f"centers = {len(result.centers)}",
        f"center_indices = {' '.join(str(c) for c in result.centers)}",
        f"mutation_point = {mutation_point}",
        f"candidates = {len(result.candidate_centers)}",
        f"distance_evaluations = {result.distance_evaluations}",
        f"distance_ratio = {result.distance_ratio:.6f}",
        f"flags = {' '.join(result.flags)}",
    ]
    if scores is not None:
        lines += [f"{key} = {scores[key]:.6f}" for key in ("acc", "ami", "ari", "nmi", "fmi")]
    timings = dict(result.timings)
    if repeat_times:
        timings["mean_run"] = sum(repeat_times) / len(repeat_times)
    lines += ["[timings]", f"repeats = {max(1, len(repeat_times))}"]
    lines += [f"time_{key} = {timings[key]:.6f}" for key in sorted(timings)]
    if repeat_times:
        lines.append("repeat_times = " + " ".join(f"{t:.6f}" for t in repeat_times))
    return "\n".join(lines) + "\n"


def error_text(dataset: str, algorithm: str, error: str) -> str:
    """Report of a bench cell that raised ``error`` instead of finishing."""
    return "\n".join(_head(dataset, algorithm, {}, 0, 0, "") + [f"error = {error}"]) + "\n"


def parse_text(text: str) -> list[dict[str, dict[str, str]]]:
    """Parse report text back into per-run section dictionaries."""
    runs: list[dict[str, dict[str, str]]] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "[run]":
            runs.append({"run": {}, "timings": {}})
            section = "run"
            continue
        if line == "[timings]":
            section = "timings"
            continue
        if "=" in line and runs and section:
            key, _, value = line.partition("=")
            runs[-1][section][key.strip()] = value.strip()
    return runs


def strip_timings(text: str) -> str:
    """Report text with every [timings] section removed (golden comparisons)."""
    out = []
    in_timings = False
    for line in text.splitlines():
        if line.strip() == "[timings]":
            in_timings = True
            continue
        if line.strip() == "[run]":
            in_timings = False
        if not in_timings:
            out.append(line)
    return "\n".join(out) + "\n"
