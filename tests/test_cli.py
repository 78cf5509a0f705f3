from pathlib import Path

import pytest

from sktdpc import core, registry, report
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


def test_cluster_identical_points_exit_0(tmp_path, capsys):
    """1500 identical points make a 1500-deep tree; nothing recurses."""
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


def test_bench_builtin_suite_deterministic_reports(tmp_path):
    """Timings aside, two runs of a builtin suite match each other and the
    committed golden report."""
    for suite, cells in (("synthetic", 4), ("real", 3)):
        out_a = tmp_path / f"{suite}-a.txt"
        out_b = tmp_path / f"{suite}-b.txt"
        assert main(["bench", "--suite", suite, "--repeats", "2", "--output", str(out_a)]) == 0
        assert main(["bench", "--suite", suite, "--repeats", "2", "--output", str(out_b)]) == 0
        stripped = report.strip_timings(out_a.read_text())
        assert stripped == report.strip_timings(out_b.read_text())
        assert stripped == (GOLDEN / f"bench_{suite}.txt").read_text()
        runs = report.parse_text(out_a.read_text())
        assert len(runs) == cells
        assert all(r["timings"]["repeats"] == "2" for r in runs)


def test_bench_custom_suite_and_failure_recording(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(
        '[{"dataset": "flame", "algorithm": "sktdpc", "k": 3},\n'
        ' {"dataset": "no-such-dataset", "algorithm": "sktdpc", "k": 3}]'
    )
    out = tmp_path / "rep.txt"
    rc = main(["bench", "--suite", str(suite), "--output", str(out)])
    assert rc == 1  # one cell failed, suite still completed
    runs = report.parse_text(out.read_text())
    assert len(runs) == 2
    assert "error" in runs[1]["run"]


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


def test_cluster_classic_dpc_algorithm(tmp_path):
    report_out = tmp_path / "dpc.txt"
    rc = main([
        "cluster", "spiral", "--algorithm", "dpc", "--dc", "2.0", "--n-centers", "3",
        "--kernel", "gaussian", "--normalize", "off", "--report", str(report_out),
    ])
    assert rc == 0
    runs = report.parse_text(report_out.read_text())
    assert runs[0]["run"]["algorithm"] == "dpc"
    assert runs[0]["run"]["acc"] == "1.000000"


def test_cluster_dpc_requires_dc(capsys):
    rc = main(["cluster", "spiral", "--algorithm", "dpc", "--n-centers", "3"])
    assert rc == 2
