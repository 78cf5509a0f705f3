import numpy as np
import pytest
from hypothesis import strategies as st

from sktdpc.dataset import Dataset, generate_gaussian_blobs


@pytest.fixture
def two_blobs():
    """300-point two-cluster fixture with widely separated centers."""
    return generate_gaussian_blobs(
        [[0.0, 0.0], [6.0, 6.0]], spread=0.8, points_per_cluster=150,
        seed=42, name="ss2",
    )


@pytest.fixture
def fig1_fixture():
    """16-point, k=3 fixture where exactly three points (including the
    densest) have no denser point among their nearest neighbors."""
    return generate_gaussian_blobs(
        np.random.default_rng(4).uniform(0, 10, size=(4, 2)),
        spread=0.45, points_per_cluster=4, seed=4, name="fig1",
    )


def random_dataset(seed: int, n=None, dim=None) -> Dataset:
    """Seeded random dataset for oracle-equivalence corpora."""
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(20, 501))
    dim = dim if dim is not None else int(rng.integers(2, 6))
    n_clusters = int(rng.integers(2, 6))
    centers = rng.uniform(0, 20, size=(n_clusters, dim))
    counts = np.full(n_clusters, n // n_clusters)
    counts[: n % n_clusters] += 1
    return generate_gaussian_blobs(
        centers, spread=float(rng.uniform(0.5, 1.5)),
        points_per_cluster=counts.tolist(), seed=seed, name=f"rand{seed}",
    )


# Coordinates are multiples of 1/16 or of 1/10 in a small range, so squared
# differences never underflow (the 2^+-600 scales are a separate, open defect).
_coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-800, 800).map(lambda v: v / 16),
    st.integers(-800, 800).map(lambda v: v / 10),
)


@st.composite
def adversarial(draw):
    """Small point sets that stress ties: duplicate-heavy, collinear or with
    constant columns; n down to 2 and k up to n - 1."""
    n = draw(st.one_of(st.integers(2, 3), st.integers(2, 60)))
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["duplicates", "collinear", "constant-columns", "free"]))
    if kind == "duplicates":
        pool = draw(st.lists(st.lists(_coordinate, min_size=dim, max_size=dim),
                             min_size=1, max_size=4))
        pts = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    elif kind == "collinear":
        t = np.array(draw(st.lists(_coordinate, min_size=n, max_size=n)))
        direction = np.array(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        pts = t[:, None] * direction[None, :] + 1.0
    else:
        pts = np.array(draw(st.lists(st.lists(_coordinate, min_size=dim, max_size=dim),
                                     min_size=n, max_size=n)))
        if kind == "constant-columns":
            constant = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
            pts[:, constant] = 0.5
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    return Dataset(pts.reshape(n, dim)), k
