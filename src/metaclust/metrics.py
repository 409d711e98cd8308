"""Clustering quality measures.

The pairwise loss counts ordered pairs of distinct points on which two
partitions disagree about co-membership; an invalid partition (not covering
all items, or fewer than two parts) is charged loss exactly 1.  Pair counting
is done in exact integer arithmetic and divided once, so independent
recomputations agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from metaclust.data_model import Partition

__all__ = [
    "ContingencyTable",
    "clustering_loss",
    "rand_index",
    "adjusted_rand_index",
    "pairwise_distances",
    "silhouette_score",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Pair-part co-occurrence counts n_ij with row/column sums."""

    counts: np.ndarray  # (K_Y, K_Z) int
    row_sums: np.ndarray  # a_i
    col_sums: np.ndarray  # b_j
    n: int

    @staticmethod
    def from_partitions(y: Partition, z: Partition) -> "ContingencyTable":
        """Counts over two partitions that both cover the same items."""
        if y.n_items != z.n_items:
            raise ValueError(f"partitions of {y.n_items} and {z.n_items} items cannot be compared")
        if y.n_covered != y.n_items or z.n_covered != z.n_items:
            raise ValueError("a contingency table needs partitions that cover every item")
        ky, kz = y.n_parts, z.n_parts
        counts = np.bincount(y.labels * kz + z.labels, minlength=ky * kz).reshape(ky, kz)
        return ContingencyTable(
            counts=counts,
            row_sums=counts.sum(axis=1),
            col_sums=counts.sum(axis=0),
            n=int(counts.sum()),
        )


def _pairs2(counts) -> int:
    """Sum of C(c, 2) over the given integer counts, exactly."""
    arr = np.asarray(counts, dtype=np.int64).ravel()
    return int((arr * (arr - 1) // 2).sum())


def _check_valid(n_items: int, part: Partition, name: str) -> None:
    if part.n_items != n_items or not part.is_valid():
        raise ValueError(f"{name} is not a valid partition of {n_items} items")


def disagreement_pairs(y: Partition, z: Partition) -> int:
    """Unordered distinct pairs on which y and z disagree about co-membership."""
    table = ContingencyTable.from_partitions(y, z)
    same_both = _pairs2(table.counts)
    same_y = _pairs2(table.row_sums)
    same_z = _pairs2(table.col_sums)
    return (same_y - same_both) + (same_z - same_both)


def clustering_loss(n_items: int, y: Partition, z: Partition) -> float:
    """Fraction of ordered distinct pairs where y and z disagree; 1 if invalid.

    The invalid branch is a defined value, not an error: a partition that does
    not cover all items, or has a single part, loses on every comparison.
    """
    if n_items < 2:
        raise ValueError("need at least 2 items")
    valid = (
        y.n_items == n_items
        and z.n_items == n_items
        and y.is_valid()
        and z.is_valid()
    )
    if not valid:
        return 1.0
    return 2 * disagreement_pairs(y, z) / (n_items * (n_items - 1))


def rand_index(n_items: int, y: Partition, z: Partition) -> float:
    """Fraction of unordered distinct pairs on which y and z agree."""
    _check_valid(n_items, y, "Y")
    _check_valid(n_items, z, "Z")
    return 1.0 - clustering_loss(n_items, y, z)


def adjusted_rand_index(n_items: int, y: Partition, z: Partition) -> float:
    """Chance-corrected Rand index from the contingency table.

    With index = sum_ij C(n_ij,2), expected = sum_i C(a_i,2) * sum_j C(b_j,2)
    / C(n,2) and max = (sum_i C(a_i,2) + sum_j C(b_j,2)) / 2, returns
    (index - expected) / (max - expected).  The degenerate max = expected case
    returns 1 when the two co-membership relations coincide and 0 otherwise.
    """
    _check_valid(n_items, y, "Y")
    _check_valid(n_items, z, "Z")
    table = ContingencyTable.from_partitions(y, z)
    index = _pairs2(table.counts)
    sum_a = _pairs2(table.row_sums)
    sum_b = _pairs2(table.col_sums)
    total_pairs = n_items * (n_items - 1) // 2
    # Work with the exact numerator/denominator of (index - E) / (M - E)
    # scaled by 2 * C(n,2) to stay in integers until the final division.
    num = 2 * (index * total_pairs - sum_a * sum_b)
    den = total_pairs * (sum_a + sum_b) - 2 * sum_a * sum_b
    if den == 0:
        return 1.0 if disagreement_pairs(y, z) == 0 else 0.0
    return num / den


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of ``points``."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def silhouette_score(points: np.ndarray, c: Partition, dist: Optional[np.ndarray] = None) -> float:
    """Mean silhouette (b - a) / max(a, b) with Euclidean distances.

    a(x) is the average distance to the other points of x's own cluster and
    b(x) the smallest average distance to another cluster.  Singleton-cluster
    points contribute 0, as does the 0/0 case of coincident points.

    ``dist`` is ``pairwise_distances(points)``, computed here when omitted;
    callers scoring many partitions of the same points pass it once.  The
    per-point terms are summed sequentially in point order, so the result
    is bit-identical to a scalar loop and does not depend on part order.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    _check_valid(n, c, "C")
    if c.n_parts < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    if dist is None:
        dist = pairwise_distances(points)

    labels = c.labels
    k = c.n_parts
    sizes = c.sizes
    # Summed distance from each point to each cluster (own cluster includes self at 0).
    cluster_sum = np.zeros((n, k))
    for j in range(k):
        cluster_sum[:, j] = dist[:, labels == j].sum(axis=1)

    rows = np.arange(n)
    own_size = sizes[labels]
    alone = own_size == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        a = cluster_sum[rows, labels] / (own_size - 1)
        other = cluster_sum / sizes
        other[rows, labels] = np.inf
        b = other.min(axis=1)
        denom = np.maximum(a, b)
        s = np.where(alone | ~(denom > 0), 0.0, (b - a) / denom)
    # cumsum adds in point order; s.sum() would add pairwise and round differently.
    return float(np.cumsum(s)[-1]) / n
