"""K-means, linkage clustering, threshold single-linkage and run_spec."""

import numpy as np
import pytest

from metaclust.clusterers import (
    _LW_COEFFS,
    ClustererSpec,
    _part_centers,
    agglomerative,
    kmeans,
    run_spec,
    single_linkage_threshold,
)
from metaclust.data_model import (
    Dataset,
    Partition,
    WeightedGraph,
    dataset_to_distance_graph,
    labels_to_partition,
    normalize_points,
)
from metaclust.erm_meta import _spanning_forest
from metaclust.metrics import adjusted_rand_index


def two_blobs(rng, n_per=20, dist=10.0, d=2, sigma=1.0):
    a = rng.standard_normal((n_per, d)) * sigma
    b = rng.standard_normal((n_per, d)) * sigma + dist
    pts = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return pts, labels


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
    coeffs = _LW_COEFFS[linkage]
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
    partition = Partition(n_items=n, parts=tuple(parts))
    return partition, _part_centers(points, partition)


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

    for u, v, w in graph.edges:
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
        res = kmeans(pts, 2, restarts=5, seed=1)
        assert adjusted_rand_index(40, labels_to_partition(labels), res.partition) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts, _ = two_blobs(rng)
        a = kmeans(pts, 3, restarts=4, seed=9)
        b = kmeans(pts, 3, restarts=4, seed=9)
        assert a.partition == b.partition
        assert a.inertia == b.inertia
        assert np.array_equal(a.centers, b.centers)

    def test_identical_points_degenerate(self):
        pts = np.zeros((6, 2))
        res = kmeans(pts, 2, restarts=2, seed=0)
        assert res.partition.is_valid()
        assert len(res.partition.parts) == 2
        assert res.inertia == 0.0

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 1)), 4, restarts=1, seed=0)

    def test_fixed_point_assignment(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((50, 3))
        res = kmeans(pts, 4, restarts=3, seed=7)
        labels = res.partition.to_label_array()
        d2 = ((pts[:, None, :] - res.centers[None, :, :]) ** 2).sum(axis=2)
        assert np.all(d2[np.arange(50), labels] <= d2.min(axis=1) + 1e-9)

    def test_inertia_definition(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 2))
        res = kmeans(pts, 3, restarts=2, seed=4)
        labels = res.partition.to_label_array()
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
            res = kmeans(pts, k, restarts=int(rng.integers(1, 4)), seed=trial)
            assert np.array_equal(res.centers, _part_centers(pts, res.partition)), trial

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((60, 2))
        few = kmeans(pts, 5, restarts=1, seed=11)
        many = kmeans(pts, 5, restarts=10, seed=11)
        assert many.inertia <= few.inertia + 1e-12


class TestAgglomerative:
    def test_worked_single_linkage(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = agglomerative(pts, 2, "single")
        assert res.partition.parts == ((0, 1), (2, 3))

    def test_worked_complete_linkage(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = agglomerative(pts, 2, "complete")
        assert res.partition.parts == ((0, 1), (2, 3))

    def test_k_equals_n(self):
        pts = np.arange(5.0).reshape(-1, 1)
        res = agglomerative(pts, 5, "average")
        assert res.partition.parts == ((0,), (1,), (2,), (3,), (4,))

    @pytest.mark.parametrize("linkage", ["single", "complete", "average", "ward"])
    def test_matches_naive_reference(self, linkage):
        rng = np.random.default_rng(10)
        for trial in range(8):
            n = int(rng.integers(6, 16))
            pts = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
            k = int(rng.integers(2, 5))
            ours = agglomerative(pts, k, linkage).partition
            ref = naive_linkage(pts, k, linkage)
            assert set(ours.parts) == set(ref.parts), (linkage, trial)

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
                res = agglomerative(pts, k, linkage)
                partition, centers = lance_williams_oracle(pts, k, linkage)
                assert res.partition == partition, (linkage, n, d, k)
                assert res.centers.tobytes() == centers.tobytes(), (linkage, n, d, k)

    def test_ties_break_toward_lowest_pair(self):
        # Every gap is 1: single linkage must merge (0,1), then (0,2), ...
        pts = np.arange(6.0).reshape(-1, 1)
        assert agglomerative(pts, 5, "single").partition.parts == ((0, 1), (2,), (3,), (4,), (5,))
        assert agglomerative(pts, 4, "single").partition.parts == ((0, 1, 2), (3,), (4,), (5,))
        assert agglomerative(pts, 4, "complete").partition.parts == ((0, 1), (2, 3), (4,), (5,))

    def test_bad_linkage_rejected(self):
        with pytest.raises(ValueError):
            agglomerative(np.zeros((4, 1)), 2, "centroid")

    def test_centers_are_centroids(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((12, 3))
        res = agglomerative(pts, 3, "ward")
        for idx, part in enumerate(res.partition.parts):
            assert res.centers[idx] == pytest.approx(pts[list(part)].mean(axis=0))


class TestSingleLinkageThreshold:
    def path_graph(self):
        # a-b(1), b-c(1), c-d(5)
        return WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0)))

    def test_worked_mid_threshold(self):
        p = single_linkage_threshold(self.path_graph(), 2.0, strict=False)
        assert p.parts == ((0, 1, 2), (3,))

    def test_above_max_weight_single_component(self):
        p = single_linkage_threshold(self.path_graph(), 5.0, strict=False)
        assert p.parts == ((0, 1, 2, 3),)
        assert not p.is_valid()

    def test_boundary_semantics(self):
        g = self.path_graph()
        strict = single_linkage_threshold(g, 1.0, strict=True)
        loose = single_linkage_threshold(g, 1.0, strict=False)
        assert strict.parts == ((0,), (1,), (2,), (3,))
        assert loose.parts == ((0, 1, 2), (3,))

    def test_monotone_refinement(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            pts = rng.standard_normal((n, 2))
            g = dataset_to_distance_graph(Dataset(id="m", points=pts))
            r1, r2 = sorted(rng.uniform(0, 3, size=2))
            p1 = single_linkage_threshold(g, r1, strict=False)
            p2 = single_linkage_threshold(g, r2, strict=False)
            lab2 = p2.to_label_array()
            for part in p1.parts:
                assert len({lab2[i] for i in part}) == 1  # each r1 part inside one r2 part

    def test_agrees_with_agglomerative_cut(self):
        # single-linkage agglomerative at k clusters = threshold just below
        # the (k-1)-th largest merge weight of the MST
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            pts = rng.standard_normal((n, 2))
            k = int(rng.integers(2, min(6, n)))
            agg = agglomerative(pts, k, "single").partition
            g = dataset_to_distance_graph(Dataset(id="x", points=pts))
            # the n-1 merge weights are the minimum spanning tree's weights
            merges = [w for w, _u, _v in _spanning_forest(g)]
            cut = sorted(merges)[-(k - 1)]
            thr = single_linkage_threshold(g, cut, strict=True)
            assert set(agg.parts) == set(thr.parts)


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
            g = WeightedGraph(n, np.column_stack([u, v, w]))
            self.assert_matches_oracle(g, list(np.unique(w)) + [-1.0, float(rng.uniform(0, 4)), 5.0])

    def test_matches_union_find_oracle_on_special_graphs(self):
        rng = np.random.default_rng(19)
        self.assert_matches_oracle(WeightedGraph(5, ()), [0.0, 1.0])  # no edges
        star = WeightedGraph(7, [(4, leaf, float(leaf % 3)) for leaf in range(7) if leaf != 4])
        self.assert_matches_oracle(star, [0.0, 1.0, 2.0])
        for n in (2, 5, 33, 200):
            order = rng.permutation(n)  # a path in shuffled vertex order
            weights = rng.integers(0, 3, size=n - 1).astype(float)
            path = WeightedGraph(n, np.column_stack([order[:-1], order[1:], weights]))
            self.assert_matches_oracle(path, [0.0, 1.0, 2.0])


class TestRichnessConsistency:
    def test_richness_constructive(self):
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
            lab = target.to_label_array()
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    w = rng.uniform(0.1, 0.9) if lab[u] == lab[v] else rng.uniform(1.1, 5.0)
                    edges.append((u, v, w))
            g = WeightedGraph(n, tuple(edges))
            out = single_linkage_threshold(g, r, strict=False)
            assert set(out.parts) == set(target.parts)

    def test_consistency_perturbation(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(5, 12))
            pts = rng.standard_normal((n, 2)) * 2
            g = dataset_to_distance_graph(Dataset(id="c", points=pts))
            r = float(rng.uniform(0.5, 2.0))
            base = single_linkage_threshold(g, r, strict=False)
            lab = base.to_label_array()
            # shrink within-part weights, grow cross-part weights
            edges = []
            for u, v, w in g.edges:
                if lab[u] == lab[v]:
                    edges.append((u, v, w * rng.uniform(0.3, 1.0)))
                else:
                    edges.append((u, v, w * rng.uniform(1.0, 3.0)))
            perturbed = single_linkage_threshold(WeightedGraph(n, tuple(edges)), r, strict=False)
            assert set(perturbed.parts) == set(base.parts)


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
        assert raw.partition.is_valid() and norm.partition.is_valid()
        # centers always reported in the original coordinate system
        for res in (raw, norm):
            for idx, part in enumerate(res.partition.parts):
                assert res.centers[idx] == pytest.approx(pts[list(part)].mean(axis=0))

    def test_normalize_first_clusters_normalized_points(self):
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((40, 3)) * [100.0, 1.0, 0.01]
        for kind in ("kmeans", "agglo_average"):
            norm = run_spec(ClustererSpec(kind=kind, k=3, normalize_first=True, seed=4), pts)
            plain = run_spec(ClustererSpec(kind=kind, k=3, seed=4), normalize_points(pts))
            assert norm.partition == plain.partition
