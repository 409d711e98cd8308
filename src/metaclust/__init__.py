"""Meta-unsupervised-learning toolkit.

Learns, from a repository of labeled clustering problems, how to cluster new
unlabeled data: which algorithm to run, which threshold / number of clusters /
outlier fraction to use, and a learned pairwise same-cluster predictor.
"""

from metaclust.data_model import (
    Dataset,
    MetaRepository,
    Partition,
    WeightedGraph,
    labels_to_partition,
    load_dataset_csv,
    make_synthetic_repository,
    normalize_dataset,
    split_repository,
    write_dataset_csv,
)
from metaclust.metrics import (
    adjusted_rand_index,
    clustering_loss,
    rand_index,
    silhouette_score,
)

__all__ = [
    "Dataset",
    "MetaRepository",
    "Partition",
    "WeightedGraph",
    "adjusted_rand_index",
    "clustering_loss",
    "labels_to_partition",
    "load_dataset_csv",
    "make_synthetic_repository",
    "normalize_dataset",
    "rand_index",
    "silhouette_score",
    "split_repository",
    "write_dataset_csv",
]

__version__ = "0.1.0"
