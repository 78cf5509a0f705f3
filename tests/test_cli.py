from pathlib import Path

import pytest

import numpy as np

from sktdpc import core, plots, registry, report
from sktdpc.cli import main
from sktdpc.dataset import save

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def flame_file(tmp_path):
    p = tmp_path / "flame.txt"
    save(registry.load_named("flame"), p)
    return p


def test_cluster_writes_labels_and_report(flame_file, tmp_path, capsys):
    labels_out = tmp_path / "labels.txt"
    report_out = tmp_path / "report.txt"
    rc = main([
        "cluster", str(flame_file), "--k", "3", "--label-col", "-1",
        "--output", str(labels_out), "--report", str(report_out),
    ])
    assert rc == 0
    labels = [int(x) for x in labels_out.read_text().split()]
    assert len(labels) == 240
    assert len(set(labels)) == 2
    runs = report.parse_text(report_out.read_text())
    assert len(runs) == 1
    assert runs[0]["run"]["acc"] == "1.000000"
    assert runs[0]["run"]["centers"] == "2"


def test_cluster_missing_file_exit_2(capsys):
    rc = main(["cluster", "/nonexistent/mystery.csv", "--k", "3"])
    assert rc == 2
    assert "mystery.csv" in capsys.readouterr().err


def test_cluster_k_zero_usage_error(flame_file):
    with pytest.raises(SystemExit) as err:
        main(["cluster", str(flame_file), "--k", "0"])
    assert err.value.code == 2


def test_cluster_internal_error_exit_3(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(core, "run_sktdpc", overflow)
    assert main(["cluster", "flame", "--k", "3"]) == 3
    assert capsys.readouterr().err.startswith("internal error: maximum recursion depth")


def test_cluster_unexpected_exception_exit_3(monkeypatch, capsys):
    """Status 1 is a failed bench cell; any other exception of ours is 3."""
    def stage_bug(*args, **kwargs):
        raise IndexError("index 7 is out of bounds for axis 0 with size 7")

    monkeypatch.setattr(core, "run_sktdpc", stage_bug)
    assert main(["cluster", "flame", "--k", "3"]) == 3
    first, *trace = capsys.readouterr().err.splitlines()
    assert first == "internal error: index 7 is out of bounds for axis 0 with size 7"
    assert trace[0] == "Traceback (most recent call last):" and "stage_bug" in "".join(trace)


def test_cluster_identical_points_exit_0(tmp_path, capsys):
    """1500 identical points cluster, and nothing recurses."""
    p = tmp_path / "same.txt"
    p.write_text("0.5 0.5\n" * 1500)
    labels_out = tmp_path / "labels.txt"
    assert main(["cluster", str(p), "--k", "7", "--output", str(labels_out)]) == 0
    assert len(labels_out.read_text().split()) == 1500


def test_cluster_empty_file_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    rc = main(["cluster", str(p), "--k", "3"])
    assert rc == 2


def test_sweep_flame_k_range(tmp_path):
    out = tmp_path / "sweep.tsv"
    rc = main(["sweep", "flame", "--k-min", "2", "--k-max", "10", "--output", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 10  # header + 9 rows
    header = rows[0].split("\t")
    accs = [float(r.split("\t")[header.index("acc")]) for r in rows[1:]]
    assert max(accs) == 1.0


def test_sweep_single_k(tmp_path):
    out = tmp_path / "sweep.tsv"
    rc = main(["sweep", "flame", "--k-min", "3", "--k-max", "3", "--output", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_sweep_iris_normalized_best_row(tmp_path):
    out = tmp_path / "iris.tsv"
    rc = main([
        "sweep", "iris", "--k-min", "2", "--k-max", "10",
        "--n-centers", "3", "--output", str(out),
    ])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    header = rows[0].split("\t")
    accs = [float(r.split("\t")[header.index("acc")]) for r in rows[1:]]
    assert max(accs) >= 0.94


def test_sweep_rejects_an_empty_k_range(capsys):
    assert main(["sweep", "flame", "--k-min", "5", "--k-max", "3"]) == 2
    assert capsys.readouterr().err == "error: need 1 <= k-min <= k-max\n"


def test_plot_gamma_marks_mutation_point(tmp_path):
    out = tmp_path / "gamma.svg"
    rc = main(["plot", "gamma", "ss2", "--k", "5", "--output", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "mutation point = 2" in svg


def test_plot_scatter_colors_two_clusters(tmp_path, flame_file):
    out = tmp_path / "flame.svg"
    rc = main([
        "plot", "scatter", str(flame_file), "--k", "3", "--label-col", "-1",
        "--output", str(out),
    ])
    assert rc == 0
    svg = out.read_text()
    fills = {line.split('fill="')[1].split('"')[0]
             for line in svg.splitlines()
             if "<circle" in line and 'fill-opacity' in line}
    assert len(fills) == 2


def test_plot_decision_graph(tmp_path):
    out = tmp_path / "dg.svg"
    rc = main(["plot", "decision-graph", "ss2", "--k", "5", "--output", str(out)])
    assert rc == 0
    assert "<svg" in out.read_text()


def test_plot_scatter_rejects_high_dim(tmp_path, capsys):
    out = tmp_path / "bad.svg"
    rc = main(["plot", "scatter", "iris", "--k", "3", "--output", str(out)])
    assert rc == 2


def test_scatter_svg_rejects_points_that_are_not_2d():
    with pytest.raises(ValueError, match="scatter plots need 2-D points"):
        plots.scatter_svg(np.zeros((4, 3)))


def test_scatter_svg_maps_a_zero_span_axis_to_its_low_edge():
    """Points on one vertical line: the x axis has no span, and every point
    is drawn at the plot's left edge, not at a division by zero."""
    svg = plots.scatter_svg(np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 3.0]]), np.array([0, 0, 1]))
    xs = [line.split('cx="')[1].split('"')[0] for line in svg.splitlines() if "<circle" in line]
    assert xs == [f"{plots.MARGIN:.2f}"] * 3


def test_parse_text_skips_blank_lines():
    text = "\n[run]\n\ndataset = flame\n  \n[timings]\n\ntime_knn = 0.5\n\n"
    assert report.parse_text(text) == [{"run": {"dataset": "flame"}, "timings": {"time_knn": "0.5"}}]


def test_bench_builtin_suite_deterministic_reports(tmp_path):
    """Timings aside, every run of a builtin suite matches the committed
    golden report.  The synthetic and real suites run twice, two repeats
    each; the efficiency suite, whose full-matrix cell takes seconds, once."""
    for suite, cells, runs, repeats in (
        ("synthetic", 4, 2, 2), ("real", 3, 2, 2), ("efficiency", 2, 1, 1)
    ):
        texts = []
        for r in range(runs):
            out = tmp_path / f"{suite}-{r}.txt"
            argv = ["bench", "--suite", suite, "--repeats", str(repeats), "--output", str(out)]
            assert main(argv) == 0
            texts.append(out.read_text())
        golden = (GOLDEN / f"bench_{suite}.txt").read_text()
        assert [report.strip_timings(t) for t in texts] == [golden] * runs
        parsed = report.parse_text(texts[0])
        assert len(parsed) == cells
        assert all(p["timings"]["repeats"] == str(repeats) for p in parsed)


def test_bench_custom_suite_and_failure_recording(tmp_path, capsys):
    """A failed cell prints its name, empty input fields and the error, and no
    [timings]; the suite still completes, and the cell beside it is whole."""
    suite = tmp_path / "suite.json"
    suite.write_text(
        '[{"dataset": "flame", "algorithm": "sktdpc", "k": 3},\n'
        ' {"dataset": "no-such-dataset", "algorithm": "sktdpc", "k": 3}]'
    )
    out = tmp_path / "rep.txt"
    assert main(["bench", "--suite", str(suite), "--output", str(out)]) == 1
    failed = (
        "[run]\n"
        "dataset = no-such-dataset\n"
        "algorithm = sktdpc\n"
        "n = 0\n"
        "features = 0\n"
        "normalize = \n"
        "error = FileNotFoundError: no such file or registry dataset: no-such-dataset\n"
    )
    text = out.read_text()
    assert text.endswith(failed)
    assert report.strip_timings(text) == (
        "[run]\n"
        "dataset = flame\n"
        "algorithm = sktdpc\n"
        "param_k = 3\n"
        "n = 240\n"
        "features = 2\n"
        "normalize = min-max\n"
        "centers = 2\n"
        "center_indices = 229 72\n"
        "mutation_point = 2\n"
        "candidates = 2\n"
        "distance_evaluations = 1976\n"
        "distance_ratio = 0.068898\n"
        "flags = \n"
        "acc = 1.000000\n"
        "ami = 1.000000\n"
        "ari = 1.000000\n"
        "nmi = 1.000000\n"
        "fmi = 1.000000\n"
    ) + failed
    assert capsys.readouterr().err == (
        "FAILED no-such-dataset/sktdpc: "
        "FileNotFoundError: no such file or registry dataset: no-such-dataset\n"
    )


def test_bench_cell_without_algorithm_reports_the_one_it_ran(tmp_path, capsys):
    """A cell that names no algorithm runs sktdpc, and a failure of it is
    recorded as sktdpc too; a float k is rejected by name."""
    suite = tmp_path / "suite.json"
    suite.write_text('[{"dataset": "flame", "k": 3.5}, {"dataset": "flame", "k": 3}]')
    out = tmp_path / "rep.txt"
    assert main(["bench", "--suite", str(suite), "--output", str(out)]) == 1
    text = out.read_text()
    assert text.startswith(
        "[run]\n"
        "dataset = flame\n"
        "algorithm = sktdpc\n"
        "n = 0\n"
        "features = 0\n"
        "normalize = \n"
        "error = ValueError: k must be an integer, got 3.5\n"
        "[run]\n"
        "dataset = flame\n"
        "algorithm = sktdpc\n"
        "param_k = 3\n"
    )
    assert capsys.readouterr().err == (
        "FAILED flame/sktdpc: ValueError: k must be an integer, got 3.5\n"
    )


def test_bench_suite_of_non_objects_exit_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text('["flame"]')
    assert main(["bench", "--suite", str(suite)]) == 2
    assert "JSON list of run cells" in capsys.readouterr().err


def test_bench_without_output_writes_the_report_to_stdout(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text('[{"dataset": "flame", "k": 3}]')
    assert main(["bench", "--suite", str(suite)]) == 0
    runs = report.parse_text(capsys.readouterr().out)
    assert [(r["run"]["dataset"], r["run"]["acc"]) for r in runs] == [("flame", "1.000000")]


def test_bench_records_cells_without_k_or_with_an_unknown_algorithm(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text('[{"dataset": "flame", "algorithm": "reference"},'
                     ' {"dataset": "flame", "algorithm": "kmeans", "k": 3}]')
    out = tmp_path / "rep.txt"
    assert main(["bench", "--suite", str(suite), "--output", str(out)]) == 1
    errors = [r["run"]["error"] for r in report.parse_text(out.read_text())]
    assert errors == ["ValueError: k is required for the reference algorithm",
                      "ValueError: unknown algorithm 'kmeans'"]
    assert capsys.readouterr().err.count("FAILED flame/") == 2


def test_bench_repeat_times_recorded(tmp_path):
    out = tmp_path / "rep.txt"
    rc = main(["bench", "--suite", "real", "--repeats", "3", "--output", str(out)])
    assert rc == 0
    runs = report.parse_text(out.read_text())
    for r in runs:
        assert len(r["timings"]["repeat_times"].split()) == 3


def test_bench_twenty_repeats_deterministic(tmp_path):
    # label determinism across repeats is asserted inside the runner
    suite = tmp_path / "suite.json"
    suite.write_text('[{"dataset": "ss2", "algorithm": "sktdpc", "k": 5}]')
    out = tmp_path / "rep.txt"
    rc = main(["bench", "--suite", str(suite), "--repeats", "20", "--output", str(out)])
    assert rc == 0
    runs = report.parse_text(out.read_text())
    assert runs[0]["timings"]["repeats"] == "20"


def test_cluster_classic_dpc_algorithm(tmp_path, capsys):
    """The whole report of a classic-DPC run, timings aside: no mutation
    point, no fixed-center-count flag, full-matrix evaluation count."""
    report_out = tmp_path / "dpc.txt"
    rc = main([
        "cluster", "spiral", "--algorithm", "dpc", "--dc", "2.0", "--n-centers", "3",
        "--kernel", "gaussian", "--normalize", "off", "--report", str(report_out),
    ])
    assert rc == 0
    text = report_out.read_text()
    assert report.strip_timings(text) == (
        "[run]\n"
        "dataset = spiral\n"
        "algorithm = dpc\n"
        "param_dc = 2.0\n"
        "param_kernel = gaussian\n"
        "param_n_centers = 3\n"
        "n = 312\n"
        "features = 2\n"
        "normalize = none\n"
        "centers = 3\n"
        "center_indices = 95 301 197\n"
        "mutation_point = -\n"
        "candidates = 3\n"
        "distance_evaluations = 48516\n"
        "distance_ratio = 1.000000\n"
        "flags = \n"
        "acc = 1.000000\n"
        "ami = 1.000000\n"
        "ari = 1.000000\n"
        "nmi = 1.000000\n"
        "fmi = 1.000000\n"
    )
    timings = report.parse_text(text)[0]["timings"]
    assert sorted(timings) == ["repeats", "time_total"] and timings["repeats"] == "1"
    assert capsys.readouterr().out == (
        "spiral: 3 clusters, 48516 distance evaluations (100.0% of full matrix) acc=1.000\n"
    )


def test_cluster_dpc_requires_dc(capsys):
    rc = main(["cluster", "spiral", "--algorithm", "dpc", "--n-centers", "3"])
    assert rc == 2


@pytest.mark.parametrize("dc", ["nan", "inf", "0", "-1"])
def test_cluster_dpc_rejects_dc_that_is_not_positive_and_finite(dc, capsys):
    rc = main(["cluster", "flame", "--algorithm", "dpc", "--dc", dc, "--n-centers", "2"])
    assert rc == 2
    assert "dc must be a positive finite number" in capsys.readouterr().err
