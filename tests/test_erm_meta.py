"""ERM over finite families, threshold fitting and the learned scale rule."""

import math

import numpy as np
import pytest

from conftest import graph_edges, graph_from_edges
from metaclust.clusterers import single_linkage_threshold
from metaclust.data_model import (
    Dataset,
    Partition,
    WeightedGraph,
    dataset_to_distance_graph,
    labels_to_partition,
)
from metaclust.erm_meta import (
    AlgorithmFamily,
    MetaScaleRule,
    _spanning_forest,
    erm_select,
    fit_meta_scale,
    fit_threshold_bruteforce,
    fit_threshold_kruskal,
    generalization_bound,
)


def assert_same_fit(a, b):
    """Exact agreement of two ``(r, mean_loss)`` profiles, value for value."""
    assert len(a) == len(b) == 2 and all(map(np.array_equal, a, b))


def path_example():
    g = graph_from_edges(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0)))
    truth = Partition(4, ((0, 1, 2), (3,)))
    return g, truth


def random_collection(rng, max_graphs=8, max_nodes=20):
    train = []
    for _ in range(int(rng.integers(1, max_graphs + 1))):
        n = int(rng.integers(3, max_nodes + 1))
        # random subgraph with possibly repeated weights
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    w = float(rng.integers(0, 6)) if rng.random() < 0.5 else float(rng.uniform(0, 5))
                    edges.append((u, v, w))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        while np.unique(labels).size < 2:
            labels = rng.integers(0, 3, size=n)
        _, dense = np.unique(labels, return_inverse=True)
        train.append((graph_from_edges(n, tuple(edges)), labels_to_partition(dense)))
    return train


class TestGeneralizationBound:
    def test_worked_value(self):
        assert generalization_bound(200, 0.05, family_size=10) == pytest.approx(0.2301807413001365, abs=1e-12)

    def test_quadruple_n_halves(self):
        b1 = generalization_bound(100, 0.1, family_size=7)
        b4 = generalization_bound(400, 0.1, family_size=7)
        assert b4 == pytest.approx(b1 / 2, rel=1e-12)

    def test_vanishes_in_limit(self):
        assert generalization_bound(10**9, 0.999999, family_size=1) < 1e-3

    def test_bits_mode(self):
        expected = math.sqrt(2.0 * (12 * math.log(2) + math.log(1 / 0.05)) / 128)
        assert generalization_bound(128, 0.05, bits=12) == pytest.approx(expected, rel=1e-12)

    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError, match="specify exactly one of family_size or bits"):
            generalization_bound(10, 0.1)
        with pytest.raises(ValueError, match="specify exactly one of family_size or bits"):
            generalization_bound(10, 0.1, family_size=2, bits=3)

    @pytest.mark.parametrize(
        "n,delta,mode,message",
        [
            (0, 0.1, {"family_size": 2}, "n must be >= 1"),
            (10, 1.0, {"family_size": 2}, r"delta must lie in \(0, 1\)"),
            (10, 0.1, {"family_size": 0}, "family_size must be >= 1"),
            (10, 0.1, {"bits": 0}, "bits must be >= 1"),
        ],
        ids=["n", "delta", "family_size", "bits"],
    )
    def test_out_of_range_rejected(self, n, delta, mode, message):
        with pytest.raises(ValueError, match=message):
            generalization_bound(n, delta, **mode)


class TestErmSelect:
    def problems(self):
        truth = Partition(4, ((0, 1), (2, 3)))
        return [(None, truth)] * 5

    def test_oracle_dominates(self):
        correct = lambda _p: Partition(4, ((0, 1), (2, 3)))
        wrong = lambda _p: Partition(4, ((0, 2), (1, 3)))
        fam = AlgorithmFamily(members=(("good", correct), ("bad", wrong)))
        best, losses = erm_select(fam, self.problems())
        assert best == "good"
        assert losses["good"] == 0.0
        assert losses["bad"] > 0.5

    def test_singleton_family(self):
        fam = AlgorithmFamily(members=(("only", lambda _p: Partition(4, ((0,), (1, 2, 3)))),))
        best, _ = erm_select(fam, self.problems())
        assert best == "only"

    def test_failure_counts_as_loss_one(self):
        def boom(_p):
            raise ValueError("member cannot cluster this problem")

        fam = AlgorithmFamily(members=(("boom", boom), ("ok", lambda _p: Partition(4, ((0, 1), (2, 3))))))
        best, losses = erm_select(fam, self.problems())
        assert best == "ok"
        assert losses["boom"] == 1.0

    def test_unexpected_member_error_propagates(self):
        def broken(_p):
            raise TypeError("not a documented member failure")

        fam = AlgorithmFamily(members=(("ok", lambda _p: Partition(4, ((0, 1), (2, 3)))), ("broken", broken)))
        with pytest.raises(TypeError, match="not a documented member failure"):
            erm_select(fam, self.problems())

    def test_tie_breaks_earliest(self):
        same = lambda _p: Partition(4, ((0, 1), (2, 3)))
        fam = AlgorithmFamily(members=(("first", same), ("second", same)))
        best, _ = erm_select(fam, self.problems())
        assert best == "first"

    def test_empty_train_rejected(self):
        fam = AlgorithmFamily(members=(("a", lambda p: p),))
        with pytest.raises(ValueError):
            erm_select(fam, [])


class TestThresholdFitting:
    def test_worked_path_profile(self):
        r, mean_loss = fit_threshold_kruskal([path_example()])
        assert np.array_equal(r, [0.0, 1.0, 5.0])
        assert np.array_equal(mean_loss, [0.5, 0.0, 1.0])

    @pytest.mark.parametrize("fit", [fit_threshold_kruskal, fit_threshold_bruteforce])
    def test_profile_is_read_only_float64(self, fit):
        for values in fit([path_example()]):
            assert values.dtype == np.float64 and values.shape == (3,)
            assert not values.flags.writeable

    def test_tied_minimum_goes_to_smallest_r(self):
        # r = 2 joins the triangle; r = 3 is a non-forest edge of the same
        # component, so the loss stays 0 there too.
        g = graph_from_edges(4, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 5.0)))
        train = [(g, Partition(4, ((0, 1, 2), (3,))))]
        for fit in (fit_threshold_kruskal, fit_threshold_bruteforce):
            r, mean_loss = fit(train)
            assert np.array_equal(mean_loss, [0.5, 1 / 3, 0.0, 0.0, 1.0])
            assert r[np.argmin(mean_loss)] == 2.0

    def test_bruteforce_matches_on_path(self):
        a = fit_threshold_kruskal([path_example()])
        b = fit_threshold_bruteforce([path_example()])
        assert_same_fit(a, b)

    def test_duplicated_graph_invariance(self):
        single = fit_threshold_kruskal([path_example()])
        double = fit_threshold_kruskal([path_example(), path_example()])
        assert_same_fit(double, single)

    def test_single_edge_merge_goes_invalid(self):
        g = graph_from_edges(2, ((0, 1, 2.0),))
        truth = Partition(2, ((0,), (1,)))
        # merging at r=2 yields one component -> charged loss 1
        r, mean_loss = fit_threshold_bruteforce([(g, truth)])
        assert mean_loss[r == 2.0].tolist() == [1.0]
        assert r[np.argmin(mean_loss)] == 0.0

    def test_zero_weight_candidate_below(self):
        g = graph_from_edges(3, ((0, 1, 0.0), (1, 2, 3.0)))
        truth = Partition(3, ((0, 1), (2,)))
        r, mean_loss = fit_threshold_kruskal([(g, truth)])
        assert r[0] == -1.0  # below the smallest (zero) weight
        assert r[np.argmin(mean_loss)] == 0.0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            train = random_collection(rng)
            assert_same_fit(fit_threshold_kruskal(train), fit_threshold_bruteforce(train))

    def test_oracle_equivalence_edge_cases(self):
        two = Partition(4, ((0, 1), (2, 3)))
        cases = {
            "no edges": [(graph_from_edges(4, ()), two)],
            "no edges beside a path": [(graph_from_edges(4, ()), two), path_example()],
            "disconnected": [(graph_from_edges(4, ((0, 1, 2.0), (2, 3, 1.0))), two)],
            "isolated vertex": [(graph_from_edges(4, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0))), two)],
            "zero weights": [(graph_from_edges(4, ((0, 1, 0.0), (2, 3, 0.0), (1, 2, 0.0), (0, 3, 4.0))), two)],
            "equal weights across graphs": [
                (graph_from_edges(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0))), two),
                (graph_from_edges(4, ((0, 2, 2.0), (1, 3, 1.0), (0, 3, 2.0))), two),
                path_example(),
            ],
            "cycle of equal weights": [
                (graph_from_edges(4, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 2.0))), two),
            ],
        }
        for name, train in cases.items():
            assert_same_fit(fit_threshold_kruskal(train), fit_threshold_bruteforce(train))

    def test_oracle_equivalence_on_shared_loss_steps(self):
        # The sweep adds the graphs' losses on the union of their loss steps:
        # graphs whose weights all coincide, a graph with no finite edge among
        # others, and one graph alone.
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            upper = np.triu_indices(n, 1)
            weights = rng.integers(1, 4, size=upper[0].size).astype(float)
            shared = []
            for _g in range(3):
                matrix = np.zeros((n, n))
                matrix[upper] = rng.permutation(weights)  # the same weights on other edges
                labels = rng.integers(0, 2, size=n)
                labels[:2] = (0, 1)
                shared.append((WeightedGraph(matrix), labels_to_partition(labels)))
            with_empty = random_collection(rng)
            no_edge = (graph_from_edges(5, ()), labels_to_partition([0, 1, 0, 1, 1]))
            with_empty.insert(int(rng.integers(len(with_empty) + 1)), no_edge)
            for train in (shared, with_empty, random_collection(rng, max_graphs=1)):
                assert_same_fit(fit_threshold_kruskal(train), fit_threshold_bruteforce(train))

    def test_complete_distance_graphs_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            train = []
            for _g in range(int(rng.integers(1, 4))):
                n = int(rng.integers(4, 30))
                pts = rng.standard_normal((n, 2))
                if rng.random() < 0.5:
                    pts = np.round(pts, 1)  # equal distances within and across graphs
                labels = (pts[:, 0] > np.median(pts[:, 0])).astype(int)
                if np.unique(labels).size < 2:
                    labels[0] = 1 - labels[0]
                _, dense = np.unique(labels, return_inverse=True)
                train.append((dataset_to_distance_graph(Dataset(id="c", points=pts)), labels_to_partition(dense)))
            assert_same_fit(fit_threshold_kruskal(train), fit_threshold_bruteforce(train))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            fit_threshold_kruskal([])
        with pytest.raises(ValueError):
            fit_threshold_bruteforce([])

    def test_invalid_truth_rejected(self):
        g = graph_from_edges(3, ((0, 1, 1.0),))
        with pytest.raises(ValueError):
            fit_threshold_kruskal([(g, Partition(3, ((0, 1, 2),)))])


def kruskal_forest_weights(graph):
    """Oracle: the weights of a minimum spanning forest by Kruskal's algorithm, in the order it keeps them."""
    parent = list(range(graph.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    kept = []
    for w, u, v in sorted((w, u, v) for u, v, w in graph_edges(graph)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            kept.append(w)
    return kept


class TestSpanningForest:
    def test_matches_kruskal_oracle_on_sparse_tied_graphs(self):
        rng = np.random.default_rng(21)
        for trial in range(80):
            n = int(rng.integers(1, 40))
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < rng.uniform(0.0, 0.5)  # sparse: isolated vertices
            w = rng.uniform(0.0, 4.0, size=int(keep.sum()))
            if trial % 2:
                w = np.round(w)  # tied weights
            g = graph_from_edges(n, np.column_stack([iu[keep], ju[keep], w]))
            fw, fu, fv = _spanning_forest(g)
            components = single_linkage_threshold(g, math.inf).n_parts
            assert fw.dtype == np.float64 and fw.shape == fu.shape == fv.shape == (n - components,)
            oracle = kruskal_forest_weights(g)
            assert sorted(fw.tolist()) == oracle
            assert math.fsum(fw.tolist()) == math.fsum(oracle)
            # every forest edge is a graph edge of that weight, and together they span the same components
            lookup = {(a, b): c for a, b, c in graph_edges(g)}
            assert all(lookup[min(a, b), max(a, b)] == c for a, b, c in zip(fu.tolist(), fv.tolist(), fw.tolist()))
            forest = graph_from_edges(n, np.column_stack([fu, fv, fw]))
            assert single_linkage_threshold(forest, math.inf) == single_linkage_threshold(g, math.inf)


def separated_problem(rng, n=12, d=2, gap=5.0):
    k = int(rng.integers(2, 4))
    centers = rng.standard_normal((k, d)) * 0.1 + np.arange(k)[:, None] * gap
    labels = np.sort(rng.integers(0, k, size=n))
    while np.unique(labels).size < 2:
        labels = np.sort(rng.integers(0, k, size=n))
    _, dense = np.unique(labels, return_inverse=True)
    pts = centers[dense] + rng.standard_normal((n, d)) * 0.2
    ds = Dataset(id="sp", points=pts)
    return dataset_to_distance_graph(ds), labels_to_partition(dense)


class TestMetaScale:
    def test_worked_construction(self, same_parts):
        # within-distances ~1, cross-distances ~5
        pts = np.array([[0.0], [1.0], [5.0], [6.0]])
        g = dataset_to_distance_graph(Dataset(id="w", points=pts))
        truth = Partition(4, ((0, 1), (2, 3)))
        rule = fit_meta_scale([(g, truth)])
        assert rule.r_star == 4.0  # min cross distance |1 - 5|
        assert same_parts(rule(g), truth)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            train = [separated_problem(rng) for _ in range(int(rng.integers(1, 4)))]
            test_g, _ = separated_problem(rng)
            alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            rule = fit_meta_scale(train)
            scaled_train = [(WeightedGraph(g.w * alpha), t) for g, t in train]
            scaled_rule = fit_meta_scale(scaled_train)
            scaled_test = WeightedGraph(test_g.w * alpha)
            assert scaled_rule(scaled_test) == rule(test_g)

    def test_strict_semantics_separate_training_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g, truth = separated_problem(rng)
            rule = fit_meta_scale([(g, truth)])
            out = rule(g).labels
            lab = truth.labels
            # no known cross-cluster pair may be merged by the learned rule
            for u, v, w in graph_edges(g):
                if lab[u] != lab[v] and w == rule.r_star:
                    assert out[u] != out[v]

    def test_incomplete_graph_rejected(self):
        g = graph_from_edges(3, ((0, 1, 1.0),))
        truth = Partition(3, ((0, 1), (2,)))
        with pytest.raises(ValueError):
            fit_meta_scale([(g, truth)])

    def test_rule_is_strict_at_threshold(self):
        g = graph_from_edges(3, ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 2.0)))
        rule = MetaScaleRule(r_star=1.0)
        assert rule(g).labels.tolist() == [0, 1, 2]  # w == r_star not merged
        rule2 = MetaScaleRule(r_star=1.0000001)
        assert rule2(g).labels.tolist() == [0, 0, 1]
