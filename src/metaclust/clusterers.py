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

import numpy as np

from metaclust.data_model import Partition, WeightedGraph, derive_seed, normalize_points, squared_distances

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
    """A k-means result: the partition, its part means and its inertia."""

    partition: Partition
    centers: np.ndarray  # (k, d), arithmetic mean of each part's points
    inertia: float


def _as_points(points) -> np.ndarray:
    """``points`` as a float (n, d) array; ValueError unless 2-D and finite."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (no NaN/Inf)")
    return points


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator, sq_dist=None) -> np.ndarray:
    # Squared distances from point i to every point: a row of ``sq_dist`` when
    # given, else one row's sum, which has the same bits.
    def sq_row(i):
        return sq_dist[i] if sq_dist is not None else ((points - points[i]) ** 2).sum(axis=1)

    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = sq_row(first).copy()
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = min(int(d2.cumsum().searchsorted(rng.random() * total, side="right")), n - 1)
        else:
            # All candidate distances are zero (duplicate points): uniform pick.
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        np.minimum(d2, sq_row(idx), out=d2)
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


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, sq_dist) -> tuple:
    d = points.shape[1]
    centers = _kmeans_pp_init(points, k, rng, sq_dist)
    # The run's constant terms of the squared distances |p|^2 - 2p.c + |c|^2.
    p2 = (points**2).sum(axis=1)[:, None]
    two_p = 2.0 * points
    labels = None
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = p2 - two_p @ centers.T + (centers**2).sum(axis=1)
        new_labels = np.argmin(np.maximum(d2, 0.0, out=d2), axis=1)  # clip tiny negatives
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            new_labels = _fix_empty_clusters(points, centers, new_labels, k)
            counts = np.bincount(new_labels, minlength=k)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if d == 1:
            # mean() sums a contiguous column pairwise; a scatter-add would
            # sum it sequentially and round differently.
            centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
        else:
            # The same sequential row sums as each part's mean(axis=0).
            sums = np.zeros((k, d))
            np.add.at(sums, labels, points)
            centers = sums / counts[:, None]
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, centers, inertia


def kmeans(points: np.ndarray, k: int, restarts: int = 1, seed: int = 0, *, sq_dist=None) -> ClusterResult:
    """Best-inertia result over independent Lloyd runs with k-means++ seeding.

    Each restart draws its own sub-seed; the winner is the minimum-inertia run
    with the lowest restart index.  All k parts are non-empty (empty clusters
    are reseeded to the point furthest from its center).  ``points`` must be
    a finite (n, d) array.  ``sq_dist``, if given, is
    ``squared_distances(points)``; the k-means++ init then reads its rows
    instead of computing them, with the same bits.  Without it no (n, n)
    matrix is built.
    """
    points = _as_points(points)
    n = points.shape[0]
    if sq_dist is not None and np.shape(sq_dist) != (n, n):
        raise ValueError(f"sq_dist must be an ({n}, {n}) matrix, got shape {np.shape(sq_dist)}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if k < 2:
        raise ValueError("k must be >= 2")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        labels, centers, inertia = _lloyd(points, k, rng, sq_dist)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, inertia = best
    # Lloyd's final centers are the part means, averaged over the same rows.
    partition = Partition(n_items=n, labels=labels)
    return ClusterResult(partition=partition, centers=centers, inertia=inertia)


def agglomerative(points: np.ndarray, k: int, linkage: str = "single") -> Partition:
    """Greedy merging from singletons with Lance-Williams updates to k clusters.

    Ward operates on squared Euclidean distances; ties break toward the
    lexicographically lowest active cluster-slot pair.  A retired slot's row
    and column are set to inf, so the plain row-major argmin of the matrix
    is the lowest closest active pair.  Each merge evaluates the update over
    whole rows and keeps it only for the other active slots, so every active
    entry gets the same float operations as a per-slot update.  Only the
    non-zero terms of the update are evaluated: adding a zero-coefficient
    term to a finite sum that is at least +0.0 moves no bit.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    points = _as_points(points)
    n = points.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"k={k} out of range for n={n}")

    dist = squared_distances(points)
    if linkage != "ward":
        dist = np.sqrt(dist)
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=int)
    merged_into = np.arange(n)  # a retired slot's merge target; itself while active
    gamma = {"single": -0.5, "complete": 0.5}.get(linkage)

    # Retired slots and the diagonal hold inf, where the update may be
    # inf - inf; those entries are masked out below.
    with np.errstate(invalid="ignore"):
        for _ in range(n - k):
            i, j = divmod(int(dist.argmin()), n)  # i < j: the matrix is symmetric
            di, dj = dist[i], dist[j]
            ni, nj = int(sizes[i]), int(sizes[j])
            # The update alpha_i*di + alpha_j*dj + beta*d_ij + gamma*|di - dj|,
            # added left to right.
            if linkage == "ward":
                t = sizes + (ni + nj)
                new_d = (sizes + ni) / t
                new_d *= di
                new_d += (sizes + nj) / t * dj
                new_d += -sizes / t * dist[i, j]
            elif linkage == "average":
                new_d = ni / (ni + nj) * di
                new_d += nj / (ni + nj) * dj
            else:
                new_d = 0.5 * di
                new_d += 0.5 * dj
                new_d += gamma * np.abs(di - dj)
            active[j] = False
            new_d[~active] = np.inf
            new_d[i] = np.inf
            dist[i] = new_d
            dist[:, i] = new_d
            dist[j] = np.inf
            dist[:, j] = np.inf
            sizes[i] = ni + nj
            merged_into[j] = i

    # Follow the merge targets to the active slot of each point.  Targets
    # are lower slots, so the jumps end.
    slot = merged_into
    while True:
        nxt = slot[slot]
        if np.array_equal(nxt, slot):
            break
        slot = nxt
    # A slot's smallest member is the slot itself (merges keep the lower
    # slot), so numbering the active slots in order numbers the parts by
    # their smallest member.
    part_of_slot = np.cumsum(active) - 1
    return Partition(n_items=n, labels=part_of_slot[slot])


def single_linkage_threshold(graph: WeightedGraph, r: float, strict: bool = False) -> Partition:
    """Connected components of the subgraph keeping edges with w <= r (or < r).

    Parts are numbered by their smallest vertex.  May return a one-part
    partition, which is representable but invalid as a clustering; callers
    consult validity.
    """
    n = graph.n_vertices
    keep = ((graph.w < r) if strict else (graph.w <= r)) & (graph.w < np.inf)  # inf is no edge, at any r
    # Min-label propagation with pointer jumping: each vertex ends at its
    # component's smallest vertex.
    comp = np.arange(n)
    while True:
        new = np.minimum(comp, np.where(keep, comp, n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, comp):
            break
        comp = new
    roots = comp == np.arange(n)
    return Partition(n_items=n, labels=(np.cumsum(roots) - 1)[comp])


def run_spec(spec: ClustererSpec, points: np.ndarray) -> Partition:
    """Run the configured algorithm on a finite (n, d) point matrix."""
    points = _as_points(points)
    work = normalize_points(points) if spec.normalize_first else points
    if spec.kind == "kmeans":
        return kmeans(work, spec.k, restarts=spec.restarts, seed=spec.seed).partition
    return agglomerative(work, spec.k, linkage=spec.kind.removeprefix("agglo_"))
