"""K-means, linkage clustering, threshold single-linkage and run_spec."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import best_kmeans, graph_edges, graph_from_edges
from metaclust import clusterers
from metaclust.clusterers import (
    ClustererSpec,
    agglomerative,
    kmeans,
    run_spec,
    single_linkage_threshold,
)
from metaclust.data_model import (
    Dataset,
    Partition,
    dataset_to_distance_graph,
    derive_seed,
    labels_to_partition,
    normalize_points,
    squared_distances,
)
from metaclust.erm_meta import _spanning_forest
from metaclust.metrics import adjusted_rand_index


def two_blobs(rng, n_per=20, dist=10.0, d=2, sigma=1.0):
    a = rng.standard_normal((n_per, d)) * sigma
    b = rng.standard_normal((n_per, d)) * sigma + dist
    pts = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return pts, labels


def part_means(points, partition):
    """Each part's mean, row by row in part order."""
    return np.stack([points[partition.labels == j].mean(axis=0) for j in range(partition.n_parts)])


def kmeans_pp_init_oracle(points, k, rng, trace=None):
    """The k-means++ init that ``kmeans`` replaced: the exact reference for
    the initial centers and for the order of the random draws.  A given
    ``trace`` Counter counts the uniform draws after a zero total."""
    trace = Counter() if trace is None else trace
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
            idx = int(rng.integers(n))
            trace["uniform_draws"] += 1
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd_oracle(points, k, rng, trace=None):
    """The per-part Lloyd loop that ``kmeans`` replaced, with its
    empty-cluster reseed: the exact reference for labels, centers and
    inertia of one run.  A given ``trace`` Counter also counts the init's
    uniform draws, the reseeds (``late_reseeds`` after the first label
    pass), the label passes (``iterations``) and whether the labels repeated
    before the cap (``converged``).
    """
    trace = Counter() if trace is None else trace
    centers = kmeans_pp_init_oracle(points, k, rng, trace)

    def fix_empty_clusters(labels):
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                continue
            dist = ((points - centers[labels]) ** 2).sum(axis=1)
            dist = np.where(counts[labels] > 1, dist, -np.inf)
            p = int(np.argmax(dist))
            counts[labels[p]] -= 1
            labels[p] = j
            counts[j] = 1
            trace["reseeds"] += 1
            trace["late_reseeds"] += trace["iterations"] > 0
        return labels

    labels = None
    for _ in range(clusterers.MAX_LLOYD_ITERATIONS):
        sq = (points**2).sum(axis=1)[:, None] - 2.0 * points @ centers.T + (centers**2).sum(axis=1)[None, :]
        new_labels = fix_empty_clusters(np.argmin(np.maximum(sq, 0.0), axis=1))
        trace["iterations"] += 1
        if labels is not None and np.array_equal(new_labels, labels):
            trace["converged"] = 1
            break
        labels = new_labels
        centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, centers, inertia


def kmeans_oracle(points, k, restarts, seed):
    """``kmeans`` over ``lloyd_oracle`` runs: the first run of least inertia."""
    best = None
    for r in range(restarts):
        run = lloyd_oracle(points, k, np.random.default_rng(derive_seed(seed, r)))
        if best is None or run[2] < best[2]:
            best = run
    return best


def assert_runs_match_oracle(points, k, seeds, sq_dist=None):
    """Each run of one lockstep ``kmeans`` call has the labels, centers and
    inertia of ``lloyd_oracle`` from its seed; returns the oracle's traces."""
    traces = []
    runs = zip(seeds, *kmeans(points, k, seeds, sq_dist=sq_dist), strict=True)
    for seed, run_labels, run_sizes, run_centers, run_inertia in runs:
        trace = Counter()
        labels, centers, inertia = lloyd_oracle(points, k, np.random.default_rng(seed), trace)
        where = (points.shape, k, seed)
        assert np.array_equal(run_labels, labels), where
        assert np.array_equal(run_sizes, np.bincount(labels, minlength=k)), where
        assert run_centers.tobytes() == centers.tobytes(), where
        assert run_inertia == inertia, where
        traces.append(trace)
    return traces


def oracle_cases(rng):
    """(points, k) over d = 1..5 and n = 2..150: rounded coordinates (ties),
    duplicate points, and fewer distinct points than k (all-zero k-means++
    draws and empty clusters)."""
    for trial, n in enumerate(list(range(2, 41)) + [47, 64, 90, 128, 150] * 3):
        d = trial % 5 + 1
        pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
        if trial % 3 == 0:
            pts = np.round(pts)
        if trial % 4 == 1:
            pts[rng.integers(0, n, size=n // 2)] = pts[-1]
        if trial % 7 == 2:
            pts = pts[rng.integers(0, min(n, 3), size=n)]
        for k in sorted({2, int(rng.integers(2, min(n, 10) + 1)), min(n, 10)}):
            yield pts, k


def naive_linkage(points, k, linkage):
    """O(n^3) reference agglomerative clustering recomputing every linkage
    from the active clusters directly (no Lance-Williams recurrences)."""
    n = len(points)
    clusters = [[i] for i in range(n)]
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(sq)

    def d_between(a, b):
        block = dist[np.ix_(a, b)]
        if linkage == "single":
            return block.min()
        if linkage == "complete":
            return block.max()
        if linkage == "average":
            return block.mean()
        # ward: increase in within-cluster sum of squares, as a merge cost
        pa = points[a].mean(axis=0)
        pb = points[b].mean(axis=0)
        return len(a) * len(b) / (len(a) + len(b)) * ((pa - pb) ** 2).sum()

    while len(clusters) > k:
        best = None
        for i in range(len(clusters) - 1):
            for j in range(i + 1, len(clusters)):
                val = d_between(clusters[i], clusters[j])
                if best is None or val < best[0] - 1e-12:
                    best = (val, i, j)
        _, i, j = best
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return Partition(n, tuple(tuple(c) for c in clusters))


LW_COEFFS = {
    # (alpha_i, alpha_j, beta, gamma) from the merged sizes ni, nj and the
    # size nm of the other cluster.
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


def lance_williams_oracle(points, k, linkage):
    """The Python-loop Lance-Williams clustering that ``agglomerative`` replaced.

    It masks retired slots out of a fresh copy of the matrix for every merge
    and updates one active cluster at a time, so it is the exact reference
    for the merge order, the tie-break and the float evaluation order.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = (diff**2).sum(axis=2)
    if linkage != "ward":
        dist = np.sqrt(dist)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=int)
    members = [[i] for i in range(n)]
    coeffs = LW_COEFFS[linkage]
    for _ in range(n - k):
        masked = np.where(active[:, None] & active[None, :], dist, np.inf)
        i, j = divmod(int(np.argmin(masked)), n)
        if i > j:
            i, j = j, i
        d_ij = dist[i, j]
        ni, nj = sizes[i], sizes[j]
        for m in range(n):
            if not active[m] or m in (i, j):
                continue
            ai, aj, beta, gamma = coeffs(ni, nj, sizes[m])
            new_d = ai * dist[i, m] + aj * dist[j, m] + beta * d_ij + gamma * abs(dist[i, m] - dist[j, m])
            dist[i, m] = dist[m, i] = new_d
        active[j] = False
        sizes[i] = ni + nj
        members[i].extend(members[j])
        members[j] = []
    parts = sorted((tuple(sorted(m)) for m in members if m), key=lambda p: p[0])
    return Partition(n_items=n, parts=tuple(parts))


def components_oracle(graph, r, strict=False):
    """The union-find ``single_linkage_threshold`` that the array version replaced.

    It unions the kept edges one at a time (union by size, path compression)
    and numbers the components by their smallest vertex.
    """
    n = graph.n_vertices
    parent = list(range(n))
    size = [1] * n

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v, w in graph_edges(graph):
        if (w < r) if strict else (w <= r):
            ru, rv = find(u), find(v)
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    parts = sorted((tuple(g) for g in groups.values()), key=lambda p: p[0])
    return Partition(n_items=n, parts=tuple(parts))


class TestKmeans:
    def test_separated_blobs_exact(self):
        rng = np.random.default_rng(0)
        pts, labels = two_blobs(rng)
        res = best_kmeans(pts, 2, restarts=5, seed=1)
        assert adjusted_rand_index(labels_to_partition(labels), res.partition) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts, _ = two_blobs(rng)
        a = best_kmeans(pts, 3, restarts=4, seed=9)
        b = best_kmeans(pts, 3, restarts=4, seed=9)
        assert a.partition == b.partition
        assert a.inertia == b.inertia
        assert np.array_equal(a.centers, b.centers)

    def test_identical_points_degenerate(self):
        pts = np.zeros((6, 2))
        res = best_kmeans(pts, 2, restarts=2, seed=0)
        assert res.partition.is_valid()
        assert res.partition.n_parts == 2
        assert res.inertia == 0.0

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            best_kmeans(np.zeros((3, 1)), 4, restarts=1, seed=0)

    @pytest.mark.parametrize("points", [np.zeros(5), np.zeros((2, 3, 1))], ids=["1-d", "3-d"])
    def test_points_that_are_not_a_matrix_rejected(self, points):
        with pytest.raises(ValueError, match="array"):
            best_kmeans(points, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.arange(10.0).reshape(5, 2)
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            best_kmeans(pts, 2)

    def test_fixed_point_assignment(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((50, 3))
        res = best_kmeans(pts, 4, restarts=3, seed=7)
        labels = res.partition.labels
        d2 = ((pts[:, None, :] - res.centers[None, :, :]) ** 2).sum(axis=2)
        assert np.all(d2[np.arange(50), labels] <= d2.min(axis=1) + 1e-9)

    def test_inertia_definition(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 2))
        res = best_kmeans(pts, 3, restarts=2, seed=4)
        labels = res.partition.labels
        expected = sum(((pts[labels == c] - res.centers[c]) ** 2).sum() for c in range(3))
        assert res.inertia == pytest.approx(expected, rel=1e-12)

    def test_centers_are_part_means_bitwise(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(2, 40))
            pts = rng.standard_normal((n, int(rng.integers(1, 4))))
            if trial % 3 == 0:
                pts[rng.integers(0, n, size=n // 2)] = pts[0]  # duplicate points
            k = int(rng.integers(2, min(n, 6) + 1))
            res = best_kmeans(pts, k, restarts=int(rng.integers(1, 4)), seed=trial)
            assert np.array_equal(res.centers, part_means(pts, res.partition)), trial

    def test_matches_lloyd_oracle_exactly(self):
        rng = np.random.default_rng(21)
        for case, (pts, k) in enumerate(oracle_cases(rng)):
            # generate_runs' seeds for (k, run), and a few multi-restart runs
            for run, restarts in ((0, 1), (1, 1), (case, 1 + case % 3)):
                seed = derive_seed(7, k, run)
                res = best_kmeans(pts, k, restarts=restarts, seed=seed)
                labels, centers, inertia = kmeans_oracle(pts, k, restarts, seed)
                where = (pts.shape, k, run, restarts)
                assert np.array_equal(res.partition.labels, labels), where
                assert res.centers.tobytes() == centers.tobytes(), where
                assert res.inertia == inertia, where

    def test_kmeans_pp_init_matches_oracle_draw_for_draw(self):
        # The init reads rows of the squared-distance matrix and must follow
        # the oracle, which sums each row itself, run by run.  Once every
        # distance is 0 the init's picks all coincide, so an extra or
        # reordered draw leaves the centers alone; the generator state after
        # the init shows it.
        rng = np.random.default_rng(22)
        for case, (pts, k) in enumerate(oracle_cases(rng)):
            ours = [np.random.default_rng((case, r)) for r in range(1 + case % 4)]
            centers = clusterers._kmeans_pp_init(pts, k, ours, squared_distances(pts))
            assert centers.shape == (len(ours), k, pts.shape[1])
            for r, (run_centers, gen) in enumerate(zip(centers, ours)):
                ref = np.random.default_rng((case, r))
                where = (pts.shape, k, r)
                assert run_centers.tobytes() == kmeans_pp_init_oracle(pts, k, ref).tobytes(), where
                assert gen.bit_generator.state == ref.bit_generator.state, where

    def test_lockstep_runs_match_the_oracle_run_by_run(self):
        # generate_runs' seeds for (k, run), 1 to 10 runs per call.  Some
        # calls hold runs that stop at different iterations, so the runs
        # still moving are carried on without the others.
        rng = np.random.default_rng(27)
        staggered = 0
        for case, (pts, k) in enumerate(oracle_cases(rng)):
            seeds = [derive_seed(derive_seed(7, k, run), 0) for run in range(1 + case % 10)]
            traces = assert_runs_match_oracle(pts, k, seeds, squared_distances(pts) if case % 2 else None)
            staggered += len({t["iterations"] for t in traces}) > 1
        assert staggered > 10

    def test_zero_total_draw_in_some_runs_only(self):
        # Coordinate gaps of 1.5e-162 square to 0, gaps of 3e-162 do not.  A
        # run that starts at a middle point sees a zero total and draws
        # uniformly; a run that starts at either end draws by distance.
        x = np.repeat([0.0, 1.5e-162, 3e-162], [3, 4, 3])
        pts = np.column_stack([x, np.zeros_like(x)])
        for sq_dist in (None, squared_distances(pts)):
            traces = assert_runs_match_oracle(pts, 2, list(range(16)), sq_dist)
            uniform = [t["uniform_draws"] > 0 for t in traces]
            assert any(uniform) and not all(uniform)

    def test_one_dimensional_runs(self):
        pts = np.random.default_rng(26).standard_normal((60, 1)) * 3.0
        traces = assert_runs_match_oracle(pts, 4, [derive_seed(26, r) for r in range(10)])
        assert len({t["iterations"] for t in traces}) > 1

    def test_forced_empty_clusters_in_lockstep(self):
        # Three distinct points and k = 5: every run reseeds empty parts.
        pts = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 4, axis=0)
        traces = assert_runs_match_oracle(pts, 5, list(range(10)))
        assert all(t["reseeds"] > 0 for t in traces)

    def test_reseed_after_other_runs_converged(self):
        # A part that empties after the first pass, in a run still moving
        # while others have stopped, is reseeded from that run's centers.
        # Near-duplicate points (1e-9 apart) with k close to n make it common.
        rng = np.random.default_rng(29)
        late = 0
        for trial in range(20):
            pts = rng.standard_normal((int(rng.integers(3, 7)), 2))
            pts = np.vstack([pts, pts + 1e-9])
            n = len(pts)
            traces = assert_runs_match_oracle(pts, int(rng.integers(n - 3, n)), [derive_seed(trial, r) for r in range(16)])
            shortest = min(t["iterations"] for t in traces)
            late += any(t["late_reseeds"] and t["iterations"] > shortest for t in traces)
        assert late > 0

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(clusterers, "MAX_LLOYD_ITERATIONS", 2)
        rng = np.random.default_rng(28)
        converged = []
        for case, (pts, k) in enumerate(oracle_cases(rng)):
            traces = assert_runs_match_oracle(pts, k, [derive_seed(case, r) for r in range(4)])
            converged += [t["converged"] for t in traces]
        assert 0 < sum(converged) < len(converged)

    def test_no_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            kmeans(np.arange(8.0).reshape(4, 2), 2, [])

    def test_shared_distance_matrix_changes_no_result(self):
        rng = np.random.default_rng(23)
        for case, (pts, k) in enumerate(oracle_cases(rng)):
            restarts, seed = 1 + case % 3, derive_seed(7, k, case)
            res = best_kmeans(pts, k, restarts, seed)
            shared = best_kmeans(pts, k, restarts, seed, sq_dist=squared_distances(pts))
            where = (pts.shape, k, restarts)
            assert np.array_equal(shared.partition.labels, res.partition.labels), where
            assert shared.centers.tobytes() == res.centers.tobytes(), where
            assert shared.inertia == res.inertia, where

    def test_shared_distance_matrix_shape_is_checked(self):
        pts = np.random.default_rng(24).standard_normal((6, 2))
        with pytest.raises(ValueError, match="sq_dist"):
            best_kmeans(pts, 2, sq_dist=squared_distances(pts[:5]))

    def test_returns_the_lockstep_arrays_and_builds_no_partition(self, monkeypatch):
        # A bare call hands back its (R, n), (R, k), (R, k, d) and (R,)
        # arrays; only a caller that scores a run builds a Partition of it.
        def refuse(*args, **kwargs):
            raise AssertionError("kmeans built a Partition")

        monkeypatch.setattr(Partition, "__init__", refuse)
        monkeypatch.setattr(Partition, "_dense", classmethod(refuse))
        pts = np.random.default_rng(25).standard_normal((30, 3))
        labels, sizes, centers, inertias = kmeans(pts, 4, [5, 6, 7])
        assert labels.shape == (3, 30) and labels.dtype == np.int64
        assert sizes.shape == (3, 4) and sizes.dtype == np.int64
        assert centers.shape == (3, 4, 3) and inertias.shape == (3,)
        assert all(np.array_equal(s, np.bincount(row, minlength=4)) for row, s in zip(labels, sizes))

    def test_empty_cluster_reseed_runs(self, monkeypatch):
        reseeds = []
        reseed = clusterers._fix_empty_clusters

        def counting(points, centers, labels, k):
            reseeds.append(k - np.count_nonzero(np.bincount(labels, minlength=k)))
            return reseed(points, centers, labels, k)

        monkeypatch.setattr(clusterers, "_fix_empty_clusters", counting)
        pts = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 4, axis=0)
        for seed in range(10):
            res = best_kmeans(pts, 5, restarts=1, seed=seed)
            labels, centers, inertia = kmeans_oracle(pts, 5, 1, seed)
            assert np.array_equal(res.partition.labels, labels)
            assert res.centers.tobytes() == centers.tobytes()
            assert res.inertia == inertia
            assert res.partition.n_parts == 5
        assert len(reseeds) > 0 and min(reseeds) >= 1

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((60, 2))
        few = best_kmeans(pts, 5, restarts=1, seed=11)
        many = best_kmeans(pts, 5, restarts=10, seed=11)
        assert many.inertia <= few.inertia + 1e-12


class TestAgglomerative:
    def test_worked_single_linkage(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert agglomerative(pts, 2, "single").labels.tolist() == [0, 0, 1, 1]

    def test_worked_complete_linkage(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        assert agglomerative(pts, 2, "complete").labels.tolist() == [0, 0, 1, 1]

    def test_k_equals_n(self):
        pts = np.arange(5.0).reshape(-1, 1)
        assert agglomerative(pts, 5, "average").labels.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_matches_naive_reference(self, linkage, same_parts):
        rng = np.random.default_rng(10)
        for trial in range(8):
            n = int(rng.integers(6, 16))
            pts = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
            k = int(rng.integers(2, 5))
            ours = agglomerative(pts, k, linkage)
            ref = naive_linkage(pts, k, linkage)
            assert same_parts(ours, ref), (linkage, trial)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_matches_lance_williams_oracle_exactly(self, linkage):
        rng = np.random.default_rng(17)
        sizes = list(range(2, 26)) + [33, 48, 64, 97, 128, 160]
        for trial, n in enumerate(sizes):
            d = trial % 5 + 1
            pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
            if trial % 3 == 0:
                pts = np.round(pts)  # many tied distances
            if trial % 4 == 1:
                pts[rng.integers(0, n, size=n // 2)] = pts[-1]  # duplicate points
            for k in sorted({2, int(rng.integers(2, n + 1)), n}):
                assert agglomerative(pts, k, linkage) == lance_williams_oracle(pts, k, linkage), (linkage, n, d, k)
        # Tiny and huge coordinates, and k values that stop exactly where the
        # matrix would next drop its retired slots (at most half of n active),
        # one merge before and one merge after.
        for n in (33, 65, 129, 161):
            base = rng.standard_normal((n, 3))
            for scale in (1.0, 1e-150, 1e150):
                pts = base * scale
                for k in (n // 2 - 1, n // 2, n // 2 + 1):
                    assert agglomerative(pts, k, linkage) == lance_williams_oracle(pts, k, linkage), (linkage, n, scale, k)
        # The whole merge sequence on small problems: every k from n down to 2.
        for n, d in ((2, 1), (5, 1), (8, 2), (11, 1), (12, 3)):
            for variant in ("plain", "rounded", "duplicates"):
                pts = rng.standard_normal((n, d)) * 2.0
                if variant == "rounded":
                    pts = np.round(pts)  # many tied distances
                elif variant == "duplicates":
                    pts[rng.integers(0, n, size=n // 2)] = pts[0]
                for k in range(n, 1, -1):
                    assert agglomerative(pts, k, linkage) == lance_williams_oracle(pts, k, linkage), (
                        linkage, n, d, variant, k
                    )

    @pytest.mark.parametrize("linkage", ["single", "complete"])
    def test_masked_inf_entries_raise_no_float_error(self, linkage):
        # The full-row update meets inf - inf on the diagonal and in retired
        # slots (gamma != 0 for these linkages); those entries are masked and
        # must not raise, even where invalid operations are errors.
        pts = np.array([[0.0], [0.1], [3.0], [3.2], [3.2], [7.0], [7.5]])
        with warnings.catch_warnings(), np.errstate(invalid="raise"):
            warnings.simplefilter("error")
            for k in range(len(pts) - 1, 1, -1):
                assert agglomerative(pts, k, linkage) == lance_williams_oracle(pts, k, linkage), k

    def test_ties_break_toward_lowest_pair(self):
        # Every gap is 1: single linkage must merge (0,1), then (0,2), ...
        pts = np.arange(6.0).reshape(-1, 1)
        assert agglomerative(pts, 5, "single").labels.tolist() == [0, 0, 1, 2, 3, 4]
        assert agglomerative(pts, 4, "single").labels.tolist() == [0, 0, 0, 1, 2, 3]
        assert agglomerative(pts, 4, "complete").labels.tolist() == [0, 0, 1, 1, 2, 3]

    @pytest.mark.parametrize("points", [np.zeros(5), np.zeros((2, 3, 1))], ids=["1-d", "3-d"])
    def test_points_that_are_not_a_matrix_rejected(self, points):
        with pytest.raises(ValueError, match="array"):
            agglomerative(points, 2, "single")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.arange(10.0).reshape(5, 2)
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            agglomerative(pts, 2, "average")

    def test_bad_linkage_rejected(self):
        with pytest.raises(ValueError):
            agglomerative(np.zeros((4, 1)), 2, "centroid")

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_given_squared_distances_give_the_same_partition(self, linkage):
        rng = np.random.default_rng(23)
        for n in (2, 9, 40, 97):
            pts = rng.standard_normal((n, 3))
            sq = squared_distances(pts)
            before = sq.copy()
            for k in sorted({2, n // 2 + 1, n}):
                assert agglomerative(pts, k, linkage, sq_dist=sq) == agglomerative(pts, k, linkage), (n, k)
            assert sq.tobytes() == before.tobytes()  # read, not modified

    def test_squared_distances_of_another_shape_rejected(self):
        pts = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ValueError, match="sq_dist"):
            agglomerative(pts, 2, "average", sq_dist=squared_distances(pts[:4]))

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_overflowing_distances_raise(self, linkage):
        # Every squared distance overflows to inf, so no pair can be merged: a
        # cluster must not merge with itself.
        pts = np.array([[0.0], [1e200], [2e200], [3e200]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="no finite distance"):
            agglomerative(pts, 2, linkage)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="no finite distance"):
            run_spec(ClustererSpec(kind=f"agglo_{linkage}", k=2), pts)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_partly_overflowing_distances_raise(self, linkage):
        # The near pair merges; every distance left is inf, and the single and
        # complete update of two inf entries is NaN, which must not be merged on.
        pts = np.array([[0.0], [1.0], [1e200], [2e200], [2e200 + 1e185]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="no finite distance left to merge 4"):
            agglomerative(pts, 2, linkage)


class TestSingleLinkageThreshold:
    def path_graph(self):
        # a-b(1), b-c(1), c-d(5)
        return graph_from_edges(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0)))

    def test_worked_mid_threshold(self):
        p = single_linkage_threshold(self.path_graph(), 2.0, strict=False)
        assert p.labels.tolist() == [0, 0, 0, 1]

    def test_above_max_weight_single_component(self):
        p = single_linkage_threshold(self.path_graph(), 5.0, strict=False)
        assert p.labels.tolist() == [0, 0, 0, 0]
        assert not p.is_valid()

    def test_boundary_semantics(self):
        g = self.path_graph()
        strict = single_linkage_threshold(g, 1.0, strict=True)
        loose = single_linkage_threshold(g, 1.0, strict=False)
        assert strict.labels.tolist() == [0, 1, 2, 3]
        assert loose.labels.tolist() == [0, 0, 0, 1]

    def test_monotone_refinement(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            pts = rng.standard_normal((n, 2))
            g = dataset_to_distance_graph(Dataset(id="m", points=pts))
            r1, r2 = sorted(rng.uniform(0, 3, size=2))
            p1 = single_linkage_threshold(g, r1, strict=False)
            p2 = single_linkage_threshold(g, r2, strict=False)
            for j in range(p1.n_parts):
                assert np.unique(p2.labels[p1.labels == j]).size == 1  # each r1 part inside one r2 part

    def test_agrees_with_agglomerative_cut(self, same_parts):
        # single-linkage agglomerative at k clusters = threshold just below
        # the (k-1)-th largest merge weight of the MST
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            pts = rng.standard_normal((n, 2))
            k = int(rng.integers(2, min(6, n)))
            agg = agglomerative(pts, k, "single")
            g = dataset_to_distance_graph(Dataset(id="x", points=pts))
            # the n-1 merge weights are the minimum spanning tree's weights
            merges, _u, _v = _spanning_forest(g)
            cut = np.sort(merges)[-(k - 1)]
            thr = single_linkage_threshold(g, cut, strict=True)
            assert same_parts(agg, thr)


    def assert_matches_oracle(self, g, thresholds):
        for r in thresholds:
            for strict in (False, True):
                assert single_linkage_threshold(g, r, strict) == components_oracle(g, r, strict), (r, strict)

    def test_matches_union_find_oracle_on_random_graphs(self):
        rng = np.random.default_rng(18)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < rng.uniform(0.0, 0.6)  # sparse: isolated vertices
            w = rng.uniform(0.0, 4.0, size=int(keep.sum()))
            if trial % 2:
                w = np.round(w)  # ties at r
            swap = rng.random(w.size) < 0.5
            u, v = np.where(swap, ju[keep], iu[keep]), np.where(swap, iu[keep], ju[keep])
            g = graph_from_edges(n, np.column_stack([u, v, w]))
            self.assert_matches_oracle(g, list(np.unique(w)) + [-1.0, float(rng.uniform(0, 4)), 5.0])

    def test_matches_union_find_oracle_on_special_graphs(self):
        rng = np.random.default_rng(19)
        self.assert_matches_oracle(graph_from_edges(5, ()), [0.0, 1.0])  # no edges
        star = graph_from_edges(7, [(4, leaf, float(leaf % 3)) for leaf in range(7) if leaf != 4])
        self.assert_matches_oracle(star, [0.0, 1.0, 2.0])
        for n in (2, 5, 33, 200):
            order = rng.permutation(n)  # a path in shuffled vertex order
            weights = rng.integers(0, 3, size=n - 1).astype(float)
            path = graph_from_edges(n, np.column_stack([order[:-1], order[1:], weights]))
            self.assert_matches_oracle(path, [0.0, 1.0, 2.0])

    def test_missing_edge_never_kept(self):
        # inf marks a missing edge; even r = inf keeps only the edges there are
        g = graph_from_edges(4, ((0, 1, 1.0), (2, 3, 7.0)))
        for strict in (False, True):
            assert single_linkage_threshold(g, math.inf, strict).labels.tolist() == [0, 0, 1, 1]
        assert single_linkage_threshold(graph_from_edges(3, ()), math.inf).labels.tolist() == [0, 1, 2]
        self.assert_matches_oracle(g, [math.inf])


class TestRichnessConsistency:
    def test_richness_constructive(self, same_parts):
        rng = np.random.default_rng(14)
        r = 1.0
        for _ in range(30):
            n = int(rng.integers(4, 12))
            target = None
            while target is None or not target.is_valid():
                labels = rng.integers(0, 3, size=n)
                if np.unique(labels).size >= 2:
                    _, dense = np.unique(labels, return_inverse=True)
                    target = labels_to_partition(dense)
            lab = target.labels
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    w = rng.uniform(0.1, 0.9) if lab[u] == lab[v] else rng.uniform(1.1, 5.0)
                    edges.append((u, v, w))
            g = graph_from_edges(n, tuple(edges))
            out = single_linkage_threshold(g, r, strict=False)
            assert same_parts(out, target)

    def test_consistency_perturbation(self, same_parts):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(5, 12))
            pts = rng.standard_normal((n, 2)) * 2
            g = dataset_to_distance_graph(Dataset(id="c", points=pts))
            r = float(rng.uniform(0.5, 2.0))
            base = single_linkage_threshold(g, r, strict=False)
            lab = base.labels
            # shrink within-part weights, grow cross-part weights
            edges = []
            for u, v, w in graph_edges(g):
                if lab[u] == lab[v]:
                    edges.append((u, v, w * rng.uniform(0.3, 1.0)))
                else:
                    edges.append((u, v, w * rng.uniform(1.0, 3.0)))
            perturbed = single_linkage_threshold(graph_from_edges(n, tuple(edges)), r, strict=False)
            assert same_parts(perturbed, base)


class TestRunSpec:
    def test_name_suffix(self):
        raw = ClustererSpec(kind="kmeans", k=2)
        norm = ClustererSpec(kind="kmeans", k=2, normalize_first=True)
        assert norm.name == raw.name + "-N"

    def test_normalized_variant_differs_on_skewed_scales(self):
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((40, 2))
        pts[:, 0] *= 100  # dominant raw axis
        pts[:20, 1] += 5
        raw = run_spec(ClustererSpec(kind="agglo_ward", k=2), pts)
        norm = run_spec(ClustererSpec(kind="agglo_ward", k=2, normalize_first=True), pts)
        assert raw.is_valid() and norm.is_valid()
        assert raw != norm

    @pytest.mark.parametrize("kind", ["kmeans", "agglo_ward"])
    @pytest.mark.parametrize("normalize_first", [False, True])
    def test_bad_points_rejected_before_normalizing(self, kind, normalize_first):
        spec = ClustererSpec(kind=kind, k=2, normalize_first=normalize_first)
        with pytest.raises(ValueError, match="array"):
            run_spec(spec, np.arange(6.0))
        pts = np.arange(12.0).reshape(6, 2)
        pts[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            run_spec(spec, pts)

    @pytest.mark.parametrize("kind", ["kmeans", "agglo_single", "agglo_ward"])
    @pytest.mark.parametrize("normalize_first", [False, True])
    def test_given_squared_distances_give_the_same_partition(self, kind, normalize_first):
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((30, 2)) * [50.0, 1.0]
        spec = ClustererSpec(kind=kind, k=3, normalize_first=normalize_first, restarts=3, seed=2)
        sq = squared_distances(normalize_points(pts) if normalize_first else pts)
        assert run_spec(spec, pts, sq_dist=sq) == run_spec(spec, pts)

    def test_normalize_first_clusters_normalized_points(self):
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((40, 3)) * [100.0, 1.0, 0.01]
        for kind in ("kmeans", "agglo_average"):
            norm = run_spec(ClustererSpec(kind=kind, k=3, normalize_first=True, seed=4), pts)
            plain = run_spec(ClustererSpec(kind=kind, k=3, seed=4), normalize_points(pts))
            assert norm == plain
