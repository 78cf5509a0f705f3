"""Density peaks clustering with k-d tree acceleration and sparse separation search."""

from .baseline import (
    brute_knn_all,
    cutoff_distance,
    dpc_original,
    full_matrix,
    sktdpc_reference,
)
from .core import ClusteringResult, DpcProfile, run_sktdpc
from .dataset import (
    Dataset,
    ParseError,
    generate_gaussian_blobs,
    load,
    normalize,
    pca_reduce,
    save,
)
from .kdtree import KdTree, build, knn_all
from .metrics import ContingencyTable, acc, ami, ari, contingency, fmi, nmi, score_all
from .sparse import SparseDistanceMatrix

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "ContingencyTable",
    "Dataset",
    "DpcProfile",
    "KdTree",
    "ParseError",
    "SparseDistanceMatrix",
    "acc",
    "ami",
    "ari",
    "brute_knn_all",
    "build",
    "contingency",
    "cutoff_distance",
    "dpc_original",
    "fmi",
    "full_matrix",
    "generate_gaussian_blobs",
    "knn_all",
    "load",
    "nmi",
    "normalize",
    "pca_reduce",
    "run_sktdpc",
    "save",
    "score_all",
    "sktdpc_reference",
]
