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

SUM_BLOCK = 1 << 15  # distances gathered at a time when ``silhouette_score`` sums them by part


def _pairs2(counts) -> int:
    """Sum of C(c, 2) over the given integer counts, exactly."""
    arr = np.asarray(counts, dtype=np.int64).ravel()
    return int(arr @ (arr - 1)) // 2  # exact: every c * (c - 1) is even


def _pair_counts(y: Partition, zs) -> tuple:
    """Exact unordered pair counts of ``y`` against each partition in the list ``zs``.

    Returns ``(both, same_y, same_z)``: int64 vectors of the pairs together in
    both and together in each z, one entry per partition, and the int of pairs
    together in y.  The joint counts of every (z, y part, z part) cell are one
    bincount; with every item covered, ``y``'s sizes and the joint counts
    summed over y's parts are the marginal counts.
    """
    for part in zs:
        if part.n_items != y.n_items:
            raise ValueError(f"partitions of {y.n_items} and {part.n_items} items cannot be compared")
    if any(part.n_covered != part.n_items for part in [y, *zs]):
        raise ValueError("pair counts need partitions that cover every item")
    kz = max((part.n_parts for part in zs), default=1)
    cells = y.n_parts * kz
    codes = np.array([part.labels for part in zs], dtype=np.int64).reshape(len(zs), y.n_items)
    codes += y.labels * kz + np.arange(len(zs))[:, None] * cells
    joint = np.bincount(codes.ravel(), minlength=len(zs) * cells).reshape(len(zs), y.n_parts, kz)
    z_sizes = joint.sum(axis=1)
    # Exact, as in _pairs2: every c * (c - 1) is even.
    both = (joint * (joint - 1)).sum(axis=(1, 2)) // 2
    same_z = (z_sizes * (z_sizes - 1)).sum(axis=1) // 2
    return both, _pairs2(y.sizes), same_z


def _check_valid(n_items: int, part: Partition, name: str) -> None:
    if part.n_items != n_items or not part.is_valid():
        raise ValueError(f"{name} is not a valid partition of {n_items} items")


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
    (both,), same_y, (same_z,) = _pair_counts(y, [z])
    return 2 * ((same_y - int(both)) + (int(same_z) - int(both))) / (n * (n - 1))


def rand_index(y: Partition, z: Partition) -> float:
    """Fraction of unordered distinct pairs on which y and z agree."""
    _check_valid(y.n_items, y, "Y")
    _check_valid(y.n_items, z, "Z")
    return 1.0 - clustering_loss(y, z)


def adjusted_rand_index(y: Partition, z):
    """Chance-corrected Rand index from the exact pair counts.

    With index = sum_ij C(n_ij,2), expected = sum_i C(a_i,2) * sum_j C(b_j,2)
    / C(n,2) and max = (sum_i C(a_i,2) + sum_j C(b_j,2)) / 2, returns
    (index - expected) / (max - expected), where n is ``y``'s item count.  The
    degenerate max = expected case returns 1 when the two co-membership
    relations coincide and 0 otherwise.  ``z`` is one Partition, which gives
    a float, or a sequence of them, which gives a float64 vector of each one's
    index against ``y``, its pair counts all from one bincount.
    """
    n = y.n_items
    _check_valid(n, y, "Y")
    zs = [z] if isinstance(z, Partition) else list(z)
    for part in zs:
        _check_valid(n, part, "Z")
    index, sum_a, sum_b = _pair_counts(y, zs)
    total_pairs = n * (n - 1) // 2
    scores = []
    # Python ints from here: the exact numerator/denominator of
    # (index - E) / (M - E), scaled by 2 * C(n,2), with no overflow.
    for both, same_z in zip(index.tolist(), sum_b.tolist()):
        num = 2 * (both * total_pairs - sum_a * same_z)
        den = total_pairs * (sum_a + same_z) - 2 * sum_a * same_z
        if den == 0:  # the relations coincide exactly when no pair is together in just one
            scores.append(1.0 if both == sum_a == same_z else 0.0)
        else:
            scores.append(num / den)
    return scores[0] if isinstance(z, Partition) else np.array(scores, dtype=float)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of ``points``."""
    return np.sqrt(squared_distances(points))


def silhouette_score(points: np.ndarray, c, dist: Optional[np.ndarray] = None):
    """Mean silhouette (b - a) / max(a, b) with Euclidean distances.

    a(x) is the average distance to the other points of x's own cluster and
    b(x) the smallest average distance to another cluster.  Singleton-cluster
    points contribute 0, as does the 0/0 case of coincident points.  ``c`` is
    one Partition of the points, which gives a float, or a sequence of them,
    which gives a float64 vector with each one's score.

    ``dist`` is ``pairwise_distances(points)``, computed here when omitted;
    callers scoring many partitions of the same points pass it once.  Each
    point's summed distance to a part adds the part's entries of its ``dist``
    row one after another in point order, and the per-point terms are summed
    sequentially in point order, so the result is bit-identical to a scalar
    loop and depends neither on part order nor on the other partitions scored
    with it.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    cs = [c] if isinstance(c, Partition) else list(c)
    for part in cs:
        _check_valid(n, part, "C")
    if dist is None:
        dist = pairwise_distances(points)
    elif np.shape(dist) != (n, n):
        raise ValueError(f"dist must be an ({n}, {n}) matrix, got shape {np.shape(dist)}")

    if not cs:
        return np.empty(0)
    labels = np.array([part.labels for part in cs], dtype=np.int64)
    # Every part of every partition is one row, partition p's part j being
    # row first[p] + j: cluster_sum[row, x] sums the distances from point x
    # to the part's members (x's own part includes x at 0).
    n_parts = np.array([part.n_parts for part in cs])
    first = np.cumsum(n_parts) - n_parts
    sizes = np.concatenate([part.sizes for part in cs])
    cluster_sum = np.empty((sizes.size, n))
    # The partitions' points one after another, each in stable part order: a
    # part's members are the contiguous run of ``order`` from ``start``, in
    # point order.
    order = np.argsort(labels, axis=1, kind="stable").ravel()
    start = np.cumsum(sizes) - sizes
    # The parts of one size are gathered together, at most SUM_BLOCK
    # distances at a time.  numpy lays the gather dist[:, members] out with
    # the point axis fastest, so its sum over the last axis adds each part's
    # members one after another in point order, for every x at once.
    for size in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
        group = np.flatnonzero(sizes == size)
        step = max(1, SUM_BLOCK // (n * size))
        for lo in range(0, group.size, step):
            rows = group[lo : lo + step]
            cluster_sum[rows] = dist[:, order[start[rows, None] + np.arange(size)]].sum(axis=-1).T

    own = labels + first[:, None]  # the row of each point's own part
    own_size = sizes[own]
    own = own * n + np.arange(n)  # each point's own entry of cluster_sum, flat
    a = cluster_sum.ravel()[own] / np.maximum(own_size - 1, 1)
    cluster_sum /= sizes[:, None]  # mean distances
    cluster_sum.ravel()[own] = np.inf
    b = np.minimum.reduceat(cluster_sum, first, axis=0)  # each partition's nearest other part
    denom = np.maximum(a, b)
    s = np.divide(b - a, denom, out=np.zeros(labels.shape), where=(own_size > 1) & (denom > 0))
    # cumsum adds in point order; s.sum() would add pairwise and round differently.
    scores = np.cumsum(s, axis=1)[:, -1] / n
    return float(scores[0]) if isinstance(c, Partition) else scores
