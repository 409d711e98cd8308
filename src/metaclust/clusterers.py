"""Base unsupervised algorithms.

K-means (Lloyd iteration with k-means++ seeding), agglomerative linkage via
Lance-Williams updates, threshold single-linkage on weighted graphs, and
``run_spec``, which runs one configured algorithm, optionally on normalized
points (``data_model.normalize_points``).  Outlier pruning and reattachment
live in ``meta_pipelines.generate_runs``.

Every algorithm is a pure function of (input, seed); ties break toward the
lowest index everywhere for bit-reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from metaclust.data_model import Partition, WeightedGraph, derive_seed, normalize_points

__all__ = [
    "ClustererSpec",
    "ClusterResult",
    "kmeans",
    "agglomerative",
    "single_linkage_threshold",
    "run_spec",
]

LINKAGES = ("single", "complete", "average", "ward")
KINDS = ("kmeans", "agglo_single", "agglo_complete", "agglo_average", "agglo_ward")

MAX_LLOYD_ITERATIONS = 300


@dataclass(frozen=True)
class ClustererSpec:
    """Configuration of a base clustering algorithm."""

    kind: str
    k: int = 2
    normalize_first: bool = False
    restarts: int = 1  # kmeans only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown clusterer kind {self.kind!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    @property
    def name(self) -> str:
        return self.kind + ("-N" if self.normalize_first else "")


@dataclass(frozen=True)
class ClusterResult:
    """A partition plus per-part centroids (and inertia for k-means)."""

    partition: Partition
    centers: np.ndarray  # (k, d), arithmetic mean of each part's points
    inertia: Optional[float] = None


def _part_centers(points: np.ndarray, partition: Partition) -> np.ndarray:
    labels = partition.labels
    return np.stack([points[labels == j].mean(axis=0) for j in range(partition.n_parts)])


def _sq_dist_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances; clipped against tiny negatives.
    d2 = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            idx = min(idx, n - 1)
        else:
            # All candidate distances are zero (duplicate points): uniform pick.
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _fix_empty_clusters(points: np.ndarray, centers: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=k)
    for j in range(k):
        if counts[j] > 0:
            continue
        # Reseed with the point furthest from its assigned center, excluding
        # points that are alone in their cluster; ties go to the lowest index.
        dist = ((points - centers[labels]) ** 2).sum(axis=1)
        movable = counts[labels] > 1
        dist = np.where(movable, dist, -np.inf)
        p = int(np.argmax(dist))
        counts[labels[p]] -= 1
        labels[p] = j
        counts[j] = 1
    return labels


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple:
    centers = _kmeans_pp_init(points, k, rng)
    labels = None
    for _ in range(MAX_LLOYD_ITERATIONS):
        new_labels = np.argmin(_sq_dist_to_centers(points, centers), axis=1)
        new_labels = _fix_empty_clusters(points, centers, new_labels, k)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, centers, inertia


def kmeans(points: np.ndarray, k: int, restarts: int = 1, seed: int = 0) -> ClusterResult:
    """Best-inertia result over independent Lloyd runs with k-means++ seeding.

    Each restart draws its own sub-seed; the winner is the minimum-inertia run
    with the lowest restart index.  All k parts are non-empty (empty clusters
    are reseeded to the point furthest from its center).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if k < 2:
        raise ValueError("k must be >= 2")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        labels, centers, inertia = _lloyd(points, k, rng)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, inertia = best
    # Lloyd's final centers are the part means, averaged over the same rows.
    partition = Partition(n_items=n, labels=labels)
    return ClusterResult(partition=partition, centers=centers, inertia=inertia)


_LW_COEFFS = {
    # (alpha_i, alpha_j, beta, gamma) from the merged sizes ni, nj and the
    # int array nm of the other active clusters' sizes.
    "single": lambda ni, nj, nm: (0.5, 0.5, 0.0, -0.5),
    "complete": lambda ni, nj, nm: (0.5, 0.5, 0.0, 0.5),
    "average": lambda ni, nj, nm: (ni / (ni + nj), nj / (ni + nj), 0.0, 0.0),
    "ward": lambda ni, nj, nm: (
        (ni + nm) / (ni + nj + nm),
        (nj + nm) / (ni + nj + nm),
        -nm / (ni + nj + nm),
        0.0,
    ),
}


def agglomerative(points: np.ndarray, k: int, linkage: str = "single") -> ClusterResult:
    """Greedy merging from singletons with Lance-Williams updates to k clusters.

    Ward operates on squared Euclidean distances; ties break toward the
    lexicographically lowest active cluster-slot pair.  A retired slot's row
    and column are set to inf, so the plain row-major argmin of the matrix
    is the lowest closest active pair.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"k={k} out of range for n={n}")

    diff = points[:, None, :] - points[None, :, :]
    dist = (diff**2).sum(axis=2)
    if linkage != "ward":
        dist = np.sqrt(dist)
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=int)
    slot = np.arange(n)  # the cluster slot of each point
    coeffs = _LW_COEFFS[linkage]

    for _ in range(n - k):
        i, j = divmod(int(np.argmin(dist)), n)  # i < j: the matrix is symmetric
        d_ij = dist[i, j]
        ni, nj = sizes[i], sizes[j]
        active[j] = False
        ms = np.flatnonzero(active)
        ms = ms[ms != i]
        di, dj = dist[i, ms], dist[j, ms]
        ai, aj, beta, gamma = coeffs(ni, nj, sizes[ms])
        new_d = ai * di + aj * dj + beta * d_ij + gamma * np.abs(di - dj)
        dist[i, ms] = new_d
        dist[ms, i] = new_d
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] = ni + nj
        slot[slot == j] = i

    # A slot's smallest member is the slot itself (merges keep the lower
    # slot), so numbering the active slots in order numbers the parts by
    # their smallest member.
    part_of_slot = np.cumsum(active) - 1
    partition = Partition(n_items=n, labels=part_of_slot[slot])
    return ClusterResult(partition=partition, centers=_part_centers(points, partition), inertia=None)


def single_linkage_threshold(graph: WeightedGraph, r: float, strict: bool = False) -> Partition:
    """Connected components of the subgraph keeping edges with w <= r (or < r).

    Parts are numbered by their smallest vertex.  May return a one-part
    partition, which is representable but invalid as a clustering; callers
    consult validity.
    """
    keep = (graph.w < r) if strict else (graph.w <= r)
    ends = np.concatenate([graph.u[keep], graph.v[keep]])
    others = np.concatenate([graph.v[keep], graph.u[keep]])
    # Min-label propagation with pointer jumping: each vertex ends at its
    # component's smallest vertex.
    comp = np.arange(graph.n_vertices)
    while True:
        new = comp.copy()
        np.minimum.at(new, ends, comp[others])
        new = new[new]
        if np.array_equal(new, comp):
            break
        comp = new
    roots = comp == np.arange(graph.n_vertices)
    return Partition(n_items=graph.n_vertices, labels=(np.cumsum(roots) - 1)[comp])


def run_spec(spec: ClustererSpec, points: np.ndarray) -> ClusterResult:
    """Run the configured algorithm on a point matrix."""
    points = np.asarray(points, dtype=float)
    work = normalize_points(points) if spec.normalize_first else points
    if spec.kind == "kmeans":
        result = kmeans(work, spec.k, restarts=spec.restarts, seed=spec.seed)
    else:
        result = agglomerative(work, spec.k, linkage=spec.kind.removeprefix("agglo_"))
    if spec.normalize_first:
        # Report centers in the original coordinate space.
        result = ClusterResult(
            partition=result.partition,
            centers=_part_centers(points, result.partition),
            inertia=result.inertia,
        )
    return result
