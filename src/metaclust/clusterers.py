"""Base unsupervised algorithms.

K-means (Lloyd iteration with k-means++ seeding), agglomerative linkage via
Lance-Williams updates, threshold single-linkage on weighted graphs, and
``run_spec``, which runs one configured algorithm, optionally on normalized
points (``data_model.normalize_points``).  Outlier pruning and reattachment
live in ``meta_pipelines.generate_runs``.

Every algorithm is a pure function of (input, seed); ties break toward the
lowest index everywhere for bit-reproducibility.  K-means runs draw from the
generators ``default_rngs`` builds, which equal ``np.random.default_rng``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from metaclust.data_model import Partition, WeightedGraph, derive_seed, normalize_points, squared_distances

__all__ = [
    "ClustererSpec",
    "default_rngs",
    "kmeans",
    "agglomerative",
    "single_linkage_threshold",
    "run_spec",
]

LINKAGES = ("single", "complete", "average", "ward")
KINDS = ("kmeans", "agglo_single", "agglo_complete", "agglo_average", "agglo_ward")

MAX_LLOYD_ITERATIONS = 300

_M32 = 0xFFFFFFFF


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < count, as uint32."""
    return np.array([init * pow(mult, i, 1 << 32) & _M32 for i in range(count)], dtype=np.uint32)


# numpy's SeedSequence with its default pool of four 32-bit words: the hash
# constants its pool mixing (A) and its output (B) step through, one per
# hashmix, and the two multipliers of its mix function.
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHER_WORDS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(words: np.ndarray, step: slice, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``words`` with the constants of
    the given steps: xor the step's constant, multiply by the next one, fold
    the high half into the low."""
    out = words ^ consts[step, None]
    out *= consts[step.start + 1 : step.stop + 1, None]
    out ^= out >> np.uint32(16)
    return out


class _StateWords(ISeedSequence):
    """The seed sequence of one precomputed ``generate_state(4, np.uint64)``,
    the one call a ``PCG64`` makes of it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def default_rngs(seeds) -> list:
    """``[np.random.default_rng(s) for s in seeds]``, seeded in one pass.

    Seeds must be ints in [0, 2**64), the range ``derive_seed`` yields.
    SeedSequence's mixing of each seed's 32-bit words into its PCG64 state is
    done for all seeds at once, in uint32 arithmetic that wraps as numpy's
    does, and each PCG64 is built from its state words.
    """
    seeds = list(seeds)
    bad = [s for s in seeds if not (isinstance(s, (int, np.integer)) and 0 <= s <= 2**64 - 1)]
    if bad:
        raise ValueError(f"seeds must be ints in [0, 2**64), got {bad[0]!r}")
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, s.size), dtype=np.uint32)  # the entropy words, low first, zero-padded
    pool[0] = s & np.uint64(_M32)
    pool[1] = s >> np.uint64(32)
    with np.errstate(over="ignore"):
        pool = _hashmix(pool, slice(0, 4), _HASH_A)
        for src, dst in enumerate(_OTHER_WORDS):
            mixed = pool[dst] * _MIX_L
            mixed -= _hashmix(pool[src], slice(4 + 3 * src, 7 + 3 * src), _HASH_A) * _MIX_R
            mixed ^= mixed >> np.uint32(16)
            pool[dst] = mixed
        state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], slice(0, 8), _HASH_B)
    # Each uint64 word joins two uint32 words, the first as its low half.
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)
    words = np.ascontiguousarray(words.T)  # PCG64 reads each row's memory
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words]


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


def _as_points(points) -> np.ndarray:
    """``points`` as a float (n, d) array; ValueError unless 2-D and finite."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (no NaN/Inf)")
    return points


def _kmeans_pp_init(points: np.ndarray, k: int, rngs, sq_dist: np.ndarray) -> np.ndarray:
    """(R, k, d) k-means++ initial centers, run r drawing from ``rngs[r]``.

    The squared distances from a pick to every point are its row of
    ``sq_dist``, ``squared_distances(points)``.  The runs share each step's
    array work; the draws stay one per run per step, in the order a single
    run makes them.
    """
    n = points.shape[0]
    picks = np.empty((len(rngs), k), dtype=np.int64)
    picks[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = sq_dist[picks[:, 0]]
    u = np.zeros(len(rngs))
    for j in range(1, k):
        total = d2.sum(axis=1)
        positive = total > 0
        for r, rng in enumerate(rngs):
            if positive[r]:
                u[r] = rng.random() * total[r]
            else:
                # All candidate distances are zero (duplicate points): uniform pick.
                picks[r, j] = rng.integers(n)
        # The cumulative sums never decrease, so counting those <= u gives
        # searchsorted(cumsum, u, side="right").
        drawn = np.count_nonzero(d2.cumsum(axis=1) <= u[:, None], axis=1)
        picks[positive, j] = np.minimum(drawn, n - 1)[positive]
        np.minimum(d2, sq_dist[picks[:, j]], out=d2)
    return points[picks]


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


def kmeans(points: np.ndarray, k: int, rngs, *, sq_dist=None) -> tuple:
    """One Lloyd run with k-means++ seeding per generator, all in lockstep.

    ``rngs`` holds one ``np.random.Generator`` per run; every library run
    draws from the generators ``default_rngs`` makes of its seeds, ints in
    [0, 2**64).  A seed in place of a generator is a ``ValueError``.
    Returns ``(labels, sizes, centers, inertias)``: the (R, n) part ids, the
    (R, k) part counts, the (R, k, d) part means and the (R,) inertias, row r
    for the run drawing from ``rngs[r]``.  The runs share every step's array
    work: the seeding steps, and in each Lloyd iteration one distance product
    of the points against every run's centers, one label count and one
    weighted count per coordinate of the center sums over the runs that have
    not converged.  A run converges when its labels repeat, and each run's
    rows have the bits of the same run made alone.  All k parts are non-empty
    (empty clusters are reseeded to the point furthest from its center).
    ``points`` must be a finite (n, d) array and ``k`` an int in [2, n].
    ``sq_dist`` is ``squared_distances(points)``, whose rows the k-means++
    init reads; it is computed here when omitted.
    """
    points = _as_points(points)
    n, d = points.shape
    if sq_dist is not None and np.shape(sq_dist) != (n, n):
        raise ValueError(f"sq_dist must be an ({n}, {n}) matrix, got shape {np.shape(sq_dist)}")
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an int, got {k!r}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not len(rngs):
        raise ValueError("kmeans needs at least one generator")
    if not all(isinstance(rng, np.random.Generator) for rng in rngs):
        raise ValueError("kmeans runs draw from numpy Generators: pass default_rngs(seeds), not the seeds")
    centers = _kmeans_pp_init(points, k, rngs, squared_distances(points) if sq_dist is None else sq_dist)
    # The constant terms of the squared distances |p|^2 - 2p.c + |c|^2.
    p2 = (points**2).sum(axis=1)[:, None, None]
    two_p = 2.0 * points
    runs = len(rngs)
    offsets = np.arange(runs)[:, None] * k  # in the stacked counts, run a's parts are a*k .. a*k + k - 1
    coords = [np.tile(points[:, t], runs) for t in range(d)]  # one coordinate of every run's points, in order
    labels = np.empty((runs, n), dtype=np.int64)
    sizes = np.empty((runs, k), dtype=np.int64)  # each run's part counts under its labels
    active = np.arange(runs)  # the runs that have not converged
    for iteration in range(MAX_LLOYD_ITERATIONS):
        c = centers[active]
        # One 2-D product: column a*k + j holds 2p.c for part j of active run a.
        d2 = p2 - (two_p @ c.reshape(-1, d).T).reshape(n, -1, k) + (c**2).sum(axis=2)
        new_labels = np.argmin(np.maximum(d2, 0.0, out=d2), axis=2).T.copy()  # clip tiny negatives
        counts = np.bincount((new_labels + offsets[: active.size]).ravel(), minlength=active.size * k)
        counts = counts.reshape(-1, k)
        for a in np.flatnonzero(~counts.all(axis=1)):
            _fix_empty_clusters(points, c[a], new_labels[a], k)
            counts[a] = np.bincount(new_labels[a], minlength=k)
        if iteration:
            moved = ~(new_labels == labels[active]).all(axis=1)
            active, new_labels, counts = active[moved], new_labels[moved], counts[moved]
            if not active.size:
                break
        labels[active], sizes[active] = new_labels, counts
        if d == 1:
            # mean() sums a contiguous column pairwise; a sequential sum
            # would round differently.
            for r in active:
                centers[r] = np.stack([points[labels[r] == j].mean(axis=0) for j in range(k)])
        else:
            # A weighted bincount per coordinate adds it for every point into
            # its (run, part) slot, in point order: the same sequential row
            # sums as each part's mean(axis=0).
            slots = (new_labels + offsets[: active.size]).ravel()
            sums = np.empty((active.size * k, d))
            for t, coord in enumerate(coords):
                sums[:, t] = np.bincount(slots, weights=coord[: slots.size], minlength=active.size * k)
            centers[active] = sums.reshape(-1, k, d) / counts[:, :, None]
    # Lloyd's final centers are the part means, averaged over the same rows.
    # Each run's inertia is one contiguous sum over its (n, d) squares, the
    # bits of the same sum made run by run.
    inertias = ((points - centers[np.arange(runs)[:, None], labels]) ** 2).reshape(runs, -1).sum(axis=1)
    return labels, sizes, centers, inertias


def agglomerative(points: np.ndarray, k: int, linkage: str = "single", *, sq_dist=None) -> Partition:
    """Greedy merging from singletons with Lance-Williams updates to k clusters.

    Ward operates on squared Euclidean distances; ties break toward the
    lexicographically lowest active cluster-slot pair.  A retired slot's row
    and column are set to inf, so the plain row-major argmin of the matrix
    is the lowest closest active pair.  Whenever at most half of the
    matrix's slots are still active, the retired rows and columns are
    deleted; the kept slots stay in order, so the argmin still picks the
    lowest slot pair.  Each merge evaluates the update over whole rows and
    keeps it only for the other active slots, so every active entry gets the
    same float operations as a per-slot update.  Only the non-zero terms of
    the update are evaluated: adding a zero-coefficient term to a finite sum
    that is at least +0.0 moves no bit.  ``sq_dist``, if given, is
    ``squared_distances(points)``, read instead of computed (and not
    modified).  Distances that overflow to inf leave no pair to merge once
    every entry is inf, and a single or complete update of two inf entries
    is NaN, which ``argmin`` picks first; either raises ``ValueError``.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    points = _as_points(points)
    n = points.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"k={k} out of range for n={n}")

    if sq_dist is None:
        dist = squared_distances(points)
    elif np.shape(sq_dist) != (n, n):
        raise ValueError(f"sq_dist must be an ({n}, {n}) matrix, got shape {np.shape(sq_dist)}")
    else:
        dist = np.array(sq_dist, dtype=float)  # a copy: the merges write into it
    if linkage != "ward":
        np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)

    slots = np.arange(n)  # the slot of each row of ``dist``, ascending
    retired = np.zeros(n, dtype=bool)  # by row
    sizes = np.ones(n)  # by row; whole numbers, so float arithmetic on them is exact
    merged_into = np.arange(n)  # by slot: a retired slot's merge target; itself while active
    combine = {"single": np.subtract, "complete": np.add}.get(linkage)

    # Retired slots and the diagonal hold inf, where the update may be
    # inf - inf; those entries are masked out below.
    with np.errstate(invalid="ignore"):
        for remaining in range(n, k, -1):
            if 2 * remaining <= slots.size:
                keep = np.flatnonzero(~retired)
                dist = dist[np.ix_(keep, keep)]
                slots, sizes = slots[keep], sizes[keep]
                retired = np.zeros(remaining, dtype=bool)
            i, j = divmod(int(dist.argmin()), slots.size)  # i < j: the matrix is symmetric
            if not np.isfinite(dist[i, j]):  # every entry inf, or an update of two infs NaN
                raise ValueError(f"{linkage} linkage: no finite distance left to merge {remaining} clusters to {k}")
            di, dj = dist[i], dist[j]  # views: the update is written into row i in place
            ni, nj = float(sizes[i]), float(sizes[j])
            # The update alpha_i*di + alpha_j*dj + beta*d_ij + gamma*|di - dj|,
            # added left to right; alpha_i*di is computed as di*alpha_i,
            # which has the same bits.
            if linkage == "ward":
                t = sizes + (ni + nj)
                d_ij = di[j]
                di *= (sizes + ni) / t
                di += (sizes + nj) / t * dj
                di += -sizes / t * d_ij
            elif linkage == "average":
                di *= ni / (ni + nj)
                di += nj / (ni + nj) * dj
            else:
                # 0.5*((di + dj) -+ |di - dj|): the bits of 0.5*di + 0.5*dj
                # -+ 0.5*|di - dj|.  Each entry is a square root of a double
                # (0, inf or at least 2**-537) or an earlier update, so every
                # finite value here is a multiple of 2**-590 below 2**515:
                # halving before or after each rounding is exact either way.
                spread = np.abs(di - dj)
                di += dj
                combine(di, spread, out=di)
                di *= 0.5
            retired[j] = True
            np.putmask(di, retired, np.inf)
            di[i] = np.inf
            dist[:, i] = di
            dist[j] = np.inf
            dist[:, j] = np.inf
            sizes[i] = ni + nj
            merged_into[slots[j]] = slots[i]

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
    part_of_slot = np.cumsum(merged_into == np.arange(n)) - 1
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


def run_spec(spec: ClustererSpec, points: np.ndarray, *, sq_dist=None) -> Partition:
    """Run the configured algorithm on a finite (n, d) point matrix.

    ``sq_dist``, if given, is ``squared_distances`` of the points the
    algorithm runs on (``normalize_points(points)`` for a normalizing spec)
    and is passed on to it, which gives the same partition.
    """
    points = _as_points(points)
    work = normalize_points(points) if spec.normalize_first else points
    if spec.kind == "kmeans":
        rngs = default_rngs(derive_seed(spec.seed, r) for r in range(spec.restarts))
        labels, sizes, _, inertias = kmeans(work, spec.k, rngs, sq_dist=sq_dist)
        best = int(np.argmin(inertias))  # the first run of least inertia
        return Partition._dense(labels[best], sizes[best])
    return agglomerative(work, spec.k, linkage=spec.kind.removeprefix("agglo_"), sq_dist=sq_dist)
