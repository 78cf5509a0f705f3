import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sktdpc import registry
from sktdpc.dataset import (
    Dataset,
    ParseError,
    generate_gaussian_blobs,
    load,
    normalize,
    pca_reduce,
    save,
)


def test_load_flame_fixture():
    d = registry.load_named("flame")
    assert d.n == 240
    assert d.dim == 2
    assert len(set(d.labels.tolist())) == 2


def _prepare_ecoli(directory, dim):
    """A stand-in for the prepared ecoli file: 336 rows, ``dim`` features, a label."""
    rng = np.random.default_rng(3)
    d = Dataset(rng.random((336, dim)), rng.integers(0, 8, 336), "ecoli")
    save(d, directory / "ecoli.txt")
    return d


def test_load_named_reads_a_prepared_file(tmp_path, monkeypatch):
    monkeypatch.setenv("SKTDPC_DATA_DIR", str(tmp_path))
    want = _prepare_ecoli(tmp_path, 7)
    d = registry.load_named("ecoli")
    assert (d.name, d.n, d.dim) == ("ecoli", 336, 7)
    assert np.array_equal(d.points, want.points)
    # labels are recoded on load; the partition stays
    pairs = set(zip(d.labels.tolist(), want.labels.tolist()))
    assert len(pairs) == len(set(want.labels.tolist())) == len(set(d.labels.tolist()))


def test_load_named_missing_prepared_file(tmp_path, monkeypatch):
    monkeypatch.setenv("SKTDPC_DATA_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError, match=f"at {re.escape(str(tmp_path / 'ecoli.txt'))}$"):
        registry.load_named("ecoli")


def test_load_named_rejects_a_prepared_file_of_the_wrong_shape(tmp_path, monkeypatch):
    monkeypatch.setenv("SKTDPC_DATA_DIR", str(tmp_path))
    _prepare_ecoli(tmp_path, 6)
    with pytest.raises(RuntimeError, match=r"^dataset ecoli: expected 336x7, got 336x6$"):
        registry.load_named("ecoli")


def test_load_named_rejects_a_bundled_fixture_with_the_wrong_hash(monkeypatch):
    info = dataclasses.replace(registry.REGISTRY["flame"], sha256="0" * 64)
    monkeypatch.setitem(registry.REGISTRY, "flame", info)
    with pytest.raises(RuntimeError, match=r"^bundled fixture for flame failed its hash check$"):
        registry.load_named("flame")


def test_load_single_row_no_label(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("1.0,2.0\n")
    d = load(p)
    assert d.n == 1 and d.dim == 2
    assert d.labels is None


def test_load_non_numeric_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,abc\n")
    with pytest.raises(ParseError, match="line 1"):
        load(p)


def test_load_ragged_row_names_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0,4.0,5.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load(p)


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load(p)


def test_load_header_and_negative_label_column(tmp_path):
    p = tmp_path / "with_header.csv"
    p.write_text("x,y,class\n0.5,1.5,apple\n2.5,3.5,pear\n4.5,5.5,apple\n")
    d = load(p, label_column=-1, has_header=True)
    assert d.n == 3 and d.dim == 2
    assert d.labels.tolist() == [0, 1, 0]  # first-occurrence dense ids


def test_load_whitespace_autodetect(tmp_path):
    p = tmp_path / "ws.txt"
    p.write_text("1.0 2.0 0\n3.0 4.0 1\n")
    d = load(p, label_column=-1)
    assert d.n == 2 and d.dim == 2
    assert d.labels.tolist() == [0, 1]


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("points", [[1.0, 2.0], [[[1.0]]], np.zeros((0, 2)), np.zeros((2, 0))],
                         ids=["1-D", "3-D", "no-points", "no-features"])
def test_dataset_rejects_points_that_are_not_a_non_empty_matrix(points):
    with pytest.raises(ValueError, match="non-empty 2-D matrix"):
        Dataset(np.array(points))


def test_dataset_rejects_a_labels_length_mismatch():
    with pytest.raises(ValueError, match="does not match point count 3"):
        Dataset(np.zeros((3, 2)), np.array([0, 1]))


def test_load_rejects_an_unknown_delimiter(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="unknown delimiter mode 'tab'"):
        load(p, delimiter="tab")


def test_load_rejects_a_file_whose_only_column_is_the_label(tmp_path):
    p = tmp_path / "labels-only.csv"
    p.write_text("a\nb\n")
    with pytest.raises(ParseError, match="line 1: no feature columns"):
        load(p, label_column=0)


def test_load_rejects_a_label_column_out_of_range(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    with pytest.raises(ParseError, match="line 1: label column 3 out of range"):
        load(p, label_column=3)


def test_normalize_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown normalize mode 'z-score'"):
        normalize(Dataset(np.eye(2)), "z-score")


def test_load_named_rejects_an_unknown_name():
    with pytest.raises(KeyError, match="unknown dataset 'no-such-dataset'"):
        registry.load_named("no-such-dataset")


def test_normalize_affine_map():
    d = Dataset(np.array([[0.0], [5.0], [10.0]]))
    out = normalize(d, "min-max")
    assert out.points[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_normalize_constant_column():
    d = Dataset(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
    out = normalize(d, "min-max")
    assert (out.points[:, 0] == 0.0).all()


def test_normalize_none_is_identity():
    d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert normalize(d, "none") is d


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_range_and_roundtrip(seed):
    rng = np.random.default_rng(seed)
    d = Dataset(rng.normal(0, 100, size=(int(rng.integers(1, 30)), int(rng.integers(1, 5)))))
    out = normalize(d, "min-max")
    assert (out.points >= 0.0).all() and (out.points <= 1.0).all()


def test_save_load_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    d = Dataset(rng.normal(0, 1e6, size=(40, 3)) * rng.uniform(1e-8, 1e8),
                labels=rng.integers(0, 4, size=40))
    p = tmp_path / "roundtrip.txt"
    save(d, p)
    back = load(p, label_column=-1)
    assert np.array_equal(back.points, d.points)
    # labels come back as dense first-occurrence ids: same partition
    pairs = set(zip(d.labels.tolist(), back.labels.tolist()))
    assert len(pairs) == len(set(d.labels.tolist()))


def test_pca_full_dim_preserves_distances():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(0, 2, size=(60, 5)))
    out = pca_reduce(d, 5)
    orig = np.linalg.norm(d.points[:, None] - d.points[None, :], axis=-1)
    proj = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=-1)
    mask = orig > 0
    assert np.max(np.abs(proj[mask] - orig[mask]) / orig[mask]) < 1e-9


def test_pca_rank_one_data():
    x = np.linspace(-2, 2, 25)
    d = Dataset(np.column_stack([x, 2 * x]))
    out = pca_reduce(d, 1)
    total_var = d.points.var(axis=0).sum()
    proj_var = out.points.var(axis=0).sum()
    assert proj_var == pytest.approx(total_var, rel=1e-12)
    # distances along the line survive the 1-D projection
    orig = np.abs(np.sqrt(5.0) * (x - x[:, None]))
    proj = np.abs(out.points[:, 0] - out.points[:, 0][:, None])
    assert np.allclose(proj, orig, rtol=1e-12, atol=1e-12)


def test_pca_of_one_point_is_the_origin():
    """One point has no sample covariance; it is centred onto the origin."""
    out = pca_reduce(Dataset(np.array([[3.0, -1.0, 2.0]]), name="one"), 2)
    assert out.points.tolist() == [[0.0, 0.0]]
    assert out.name == "one-pca2"


def test_pca_out_of_range():
    d = Dataset(np.eye(3))
    with pytest.raises(ValueError):
        pca_reduce(d, 0)
    with pytest.raises(ValueError):
        pca_reduce(d, 4)


def test_pca_deterministic_sign():
    rng = np.random.default_rng(11)
    d = Dataset(rng.normal(0, 1, size=(30, 4)))
    a = pca_reduce(d, 2)
    b = pca_reduce(d, 2)
    assert np.array_equal(a.points, b.points)


def test_generate_two_blob_fixture(two_blobs):
    assert two_blobs.n == 300
    assert two_blobs.dim == 2
    assert sorted(set(two_blobs.labels.tolist())) == [0, 1]


def test_generate_single_point():
    d = generate_gaussian_blobs([[1.0, 2.0, 3.0]], spread=1.0, points_per_cluster=1, seed=0)
    assert d.n == 1 and d.dim == 3


def test_generate_deterministic():
    a = generate_gaussian_blobs([[0, 0], [5, 5]], 1.0, 10, seed=9)
    b = generate_gaussian_blobs([[0, 0], [5, 5]], 1.0, 10, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_generate_rejects_bad_spread():
    with pytest.raises(ValueError):
        generate_gaussian_blobs([[0, 0]], spread=0.0, points_per_cluster=3, seed=0)


def test_pendigits_reduction_pipeline():
    """16-dimensional digits reduced to 4 components, clustered at k=7.

    Needs the manually prepared pendigits file; skipped when absent.
    """
    try:
        d = registry.load_named("pendigits")
    except FileNotFoundError:
        pytest.skip("pendigits data file not prepared")
    from sktdpc.core import run_sktdpc
    from sktdpc.metrics import acc, contingency

    reduced = pca_reduce(normalize(d, "min-max"), 4)
    assert reduced.dim == 4
    result = run_sktdpc(reduced, 7, n_centers=10)
    assert acc(contingency(d.labels, result.labels)) >= 0.6
