"""Named benchmark datasets: bundled fixtures, prepared files, generated fixtures.

The small benchmark datasets ship with the package as hash-pinned delimited
text fixtures (features then a label column).  Larger ones record their
original source as provenance and are read from a prepared copy in the data
directory.  Generated fixtures are deterministic functions of a seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dataset import Dataset, generate_gaussian_blobs, load


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    n: int
    dim: int
    clusters: int
    default_k: int
    reference_acc: float | None = None
    bundled_file: str | None = None
    sha256: str | None = None
    url: str | None = None


REGISTRY: dict[str, DatasetInfo] = {
    info.name: info
    for info in [
        DatasetInfo(
            "flame", 240, 2, 2, 3, 1.000,
            "flame.txt",
            "734036b12a268a4acad68961279cff0793d5901f574298d4d62a32fca28f2774",
            "http://cs.joensuu.fi/sipu/datasets/flame.txt",
        ),
        DatasetInfo(
            "spiral", 312, 2, 3, 4, 1.000,
            "spiral.txt",
            "2f751ac73ce1f66ab74ed61d22595faeb7a0dda585a79f4ebbce0b940a29caad",
            "http://cs.joensuu.fi/sipu/datasets/spiral.txt",
        ),
        DatasetInfo(
            "aggregation", 788, 2, 7, 6, 0.997,
            "aggregation.txt",
            "c7c3f30ff9929a309de7f99b55cb022da23f9180e88ce59a8d8b62538448b833",
            "http://cs.joensuu.fi/sipu/datasets/Aggregation.txt",
        ),
        DatasetInfo(
            "r15", 600, 2, 15, 5, 0.997,
            "r15.txt",
            "38e6d04b605ddf2c44d9dc4ab1f70e3e078c9e203df4af3028dbc00ad35f54f4",
            "http://cs.joensuu.fi/sipu/datasets/R15.txt",
        ),
        DatasetInfo(
            "iris", 150, 4, 3, 2, 0.960,
            "iris.txt",
            "a483bc6dba512a18ecda143cf92948cec3899bd4c2689ab6ca2118c026b80d34",
            "https://archive.ics.uci.edu/ml/machine-learning-databases/iris/iris.data",
        ),
        DatasetInfo(
            "seeds", 210, 7, 3, 3, 0.914,
            "seeds.txt",
            "2e64904236d8e4f12a7b36564fa00ab9ba81a880b4381052a2ade614a78a1e31",
            "https://archive.ics.uci.edu/ml/machine-learning-databases/00236/seeds_dataset.txt",
        ),
        DatasetInfo(
            "wine", 178, 13, 3, 6, 0.893,
            "wine.txt",
            "4acb560cdec19b276a3367749bea588c4900090eb1d4fc85d97a99c3de15e352",
            "https://archive.ics.uci.edu/ml/machine-learning-databases/wine/wine.data",
        ),
        DatasetInfo(
            "s1", 5000, 2, 15, 7, 0.997,
            url="http://cs.joensuu.fi/sipu/datasets/s1.txt",
        ),
        DatasetInfo(
            "s3", 5000, 2, 15, 3, 0.901,
            url="http://cs.joensuu.fi/sipu/datasets/s3.txt",
        ),
        DatasetInfo(
            "a1", 3000, 2, 20, 6, 0.998,
            url="http://cs.joensuu.fi/sipu/datasets/a1.txt",
        ),
        DatasetInfo(
            "a3", 7500, 2, 50, 7, 0.996,
            url="http://cs.joensuu.fi/sipu/datasets/a3.txt",
        ),
        DatasetInfo(
            "banknote", 1372, 4, 2, 2, 0.683,
            url="https://archive.ics.uci.edu/ml/machine-learning-databases/00267/data_banknote_authentication.txt",
        ),
        DatasetInfo(
            "ecoli", 336, 7, 8, 2, 0.807,
            url="https://archive.ics.uci.edu/ml/machine-learning-databases/ecoli/ecoli.data",
        ),
        DatasetInfo(
            "parking-birmingham", 35501, 5, 3, 4, 0.575,
            url="https://archive.ics.uci.edu/ml/machine-learning-databases/00482/dataset.zip",
        ),
        DatasetInfo(
            "pendigits", 10992, 16, 10, 7, 0.707,
            url="https://archive.ics.uci.edu/ml/machine-learning-databases/pendigits/",
        ),
    ]
}


# Generated fixtures: name -> builder(seed).  "ss2" mimics the 300-point
# two-cluster demonstration shape; "blobs15-5000" is the efficiency fixture.
def _ss2(seed: int) -> Dataset:
    return generate_gaussian_blobs(
        [[0.0, 0.0], [6.0, 6.0]], spread=0.8, points_per_cluster=150,
        seed=seed, name="ss2",
    )


def _blobs15_5000(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 100.0, size=(15, 2))
    counts = [334] * 5 + [333] * 10
    return generate_gaussian_blobs(
        centers, spread=2.0, points_per_cluster=counts, seed=seed + 1,
        name="blobs15-5000",
    )


GENERATED = {"ss2": _ss2, "blobs15-5000": _blobs15_5000}


def data_dir() -> str:
    """Directory searched for non-bundled dataset files."""
    return os.environ.get("SKTDPC_DATA_DIR", os.path.join(os.getcwd(), "data"))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def load_named(name: str, seed: int = 0) -> Dataset:
    """Load a registry dataset by name (bundled, prepared in the data directory, or generated)."""
    if name in GENERATED:
        return GENERATED[name](seed)
    info = REGISTRY.get(name)
    if info is None:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(REGISTRY) + sorted(GENERATED)}")
    if info.bundled_file is not None:
        ref = resources.files("sktdpc").joinpath("data", info.bundled_file)
        with resources.as_file(ref) as path:
            if info.sha256 and sha256_file(os.fspath(path)) != info.sha256:
                raise RuntimeError(f"bundled fixture for {name} failed its hash check")
            d = load(path, label_column=-1, name=name)
    else:
        path = os.path.join(data_dir(), f"{name}.txt")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"dataset {name!r} is not bundled; prepare a delimited copy with a "
                f"trailing label column at {path}"
            )
        d = load(path, label_column=-1, name=name)
    if d.n != info.n or d.dim != info.dim:
        raise RuntimeError(
            f"dataset {name}: expected {info.n}x{info.dim}, got {d.n}x{d.dim}"
        )
    return d
