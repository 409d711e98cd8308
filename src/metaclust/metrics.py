"""Clustering quality measures.

The pairwise loss counts ordered pairs of distinct points on which two
partitions disagree about co-membership; an invalid partition (not covering
all items, or fewer than two parts) is charged loss exactly 1.  Pair counting
is done in exact integer arithmetic and divided once, so independent
recomputations agree bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from metaclust.data_model import Partition, squared_distances

__all__ = [
    "clustering_loss",
    "rand_index",
    "adjusted_rand_index",
    "pairwise_distances",
    "silhouette_score",
]


def _pairs2(counts) -> int:
    """Sum of C(c, 2) over the given integer counts, exactly."""
    arr = np.asarray(counts, dtype=np.int64).ravel()
    return int(arr @ (arr - 1)) // 2  # exact: every c * (c - 1) is even


def _pair_counts(y: Partition, z: Partition) -> tuple:
    """Exact (pairs together in both, together in y, together in z) over the
    unordered distinct pairs of two partitions that cover the same items.

    The joint counts are one bincount of the (y part, z part) cells; with
    every item covered, each partition's ``sizes`` are its marginal counts.
    """
    if y.n_items != z.n_items:
        raise ValueError(f"partitions of {y.n_items} and {z.n_items} items cannot be compared")
    if y.n_covered != y.n_items or z.n_covered != z.n_items:
        raise ValueError("pair counts need partitions that cover every item")
    joint = np.bincount(y.labels * z.n_parts + z.labels)
    return _pairs2(joint), _pairs2(y.sizes), _pairs2(z.sizes)


def _check_valid(n_items: int, part: Partition, name: str) -> None:
    if part.n_items != n_items or not part.is_valid():
        raise ValueError(f"{name} is not a valid partition of {n_items} items")


def disagreement_pairs(y: Partition, z: Partition) -> int:
    """Unordered distinct pairs on which y and z disagree about co-membership."""
    same_both, same_y, same_z = _pair_counts(y, z)
    return (same_y - same_both) + (same_z - same_both)


def clustering_loss(y: Partition, z: Partition) -> float:
    """Fraction of ordered distinct pairs where y and z disagree; 1 if invalid.

    The item count n is ``y``'s.  The invalid branch is a defined value, not
    an error: a partition of another item count, one that does not cover all
    items, or one with a single part, loses on every comparison.
    """
    n = y.n_items
    if n < 2:
        raise ValueError("need at least 2 items")
    if z.n_items != n or not (y.is_valid() and z.is_valid()):
        return 1.0
    return 2 * disagreement_pairs(y, z) / (n * (n - 1))


def rand_index(y: Partition, z: Partition) -> float:
    """Fraction of unordered distinct pairs on which y and z agree."""
    _check_valid(y.n_items, y, "Y")
    _check_valid(y.n_items, z, "Z")
    return 1.0 - clustering_loss(y, z)


def adjusted_rand_index(y: Partition, z: Partition) -> float:
    """Chance-corrected Rand index from the exact pair counts.

    With index = sum_ij C(n_ij,2), expected = sum_i C(a_i,2) * sum_j C(b_j,2)
    / C(n,2) and max = (sum_i C(a_i,2) + sum_j C(b_j,2)) / 2, returns
    (index - expected) / (max - expected), where n is ``y``'s item count.  The
    degenerate max = expected case returns 1 when the two co-membership
    relations coincide and 0 otherwise.
    """
    n = y.n_items
    _check_valid(n, y, "Y")
    _check_valid(n, z, "Z")
    index, sum_a, sum_b = _pair_counts(y, z)
    total_pairs = n * (n - 1) // 2
    # Work with the exact numerator/denominator of (index - E) / (M - E)
    # scaled by 2 * C(n,2) to stay in integers until the final division.
    num = 2 * (index * total_pairs - sum_a * sum_b)
    den = total_pairs * (sum_a + sum_b) - 2 * sum_a * sum_b
    if den == 0:
        return 1.0 if disagreement_pairs(y, z) == 0 else 0.0
    return num / den


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of ``points``."""
    return np.sqrt(squared_distances(points))


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
    if dist is None:
        dist = pairwise_distances(points)
    elif np.shape(dist) != (n, n):
        raise ValueError(f"dist must be an ({n}, {n}) matrix, got shape {np.shape(dist)}")

    labels = c.labels
    sizes = c.sizes
    # Summed distance from each point to each cluster (own cluster includes
    # self at 0).  The columns are gathered once in stable part order, so
    # each part's slice holds the entries of dist[:, labels == j] in the same
    # order and sums to the same bits.
    grouped = dist[:, np.argsort(labels, kind="stable")]
    ends = np.cumsum(sizes).tolist()
    cluster_sum = np.empty((n, c.n_parts))
    for j, (lo, hi) in enumerate(zip([0] + ends, ends)):
        cluster_sum[:, j] = grouped[:, lo:hi].sum(axis=1)

    rows = np.arange(n)
    own_size = sizes[labels]
    a = cluster_sum[rows, labels] / np.maximum(own_size - 1, 1)
    other = cluster_sum / sizes
    other[rows, labels] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.divide(b - a, denom, out=np.zeros(n), where=(own_size > 1) & (denom > 0))
    # cumsum adds in point order; s.sum() would add pairwise and round differently.
    return float(np.cumsum(s)[-1]) / n
