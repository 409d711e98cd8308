"""Dataset/partition/graph containers, CSV round trips and generators."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_edges, graph_from_edges

from metaclust.data_model import (
    FLOAT_FORMAT,
    DataError,
    Dataset,
    MetaRepository,
    Partition,
    SynthSpec,
    WeightedGraph,
    covariance,
    dataset_to_distance_graph,
    derive_seed,
    labels_to_partition,
    load_dataset_csv,
    load_repository,
    make_synthetic_repository,
    normalize_dataset,
    save_repository,
    split_repository,
    squared_distances,
    write_dataset_csv,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_index_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_distinct_streams(self):
        seen = {derive_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000

    def test_64_bit_range(self):
        for s in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(s, 0) < 2**64


class TestDataset:
    def test_basic_shape(self):
        ds = Dataset(id="a", points=np.zeros((3, 2)))
        assert ds.n == 3 and ds.d == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(id="a", points=np.array([[0.0], [np.nan]]))

    def test_points_frozen(self):
        ds = Dataset(id="a", points=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 1.0

    def test_squared_norm_bound(self):
        # 4 * n * max |x_i|^2 must be finite; the largest float64 is 1.797e308.
        Dataset(id="a", points=[[0.0], [-4.7e153]])  # 8 * 2.21e307 = 1.77e308
        Dataset(id="a", points=[[0.0, 0.0], [3.3e153, 3.3e153]])  # 8 * 2.18e307 = 1.74e308
        for points in ([[0.0], [-4.8e153]], [[0.0, 0.0], [3.4e153, 3.4e153]], [[1e160, 1e160]] * 3):
            with pytest.raises(ValueError, match="points are too large: squared distances between them would overflow"):
                Dataset(id="a", points=points)

    def test_float_format_matches_17_significant_digits(self):
        rng = np.random.default_rng(23)
        tricky = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16]
        values = tricky + (rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)).tolist()
        for v in values:
            assert FLOAT_FORMAT % v == format(v, ".17g")
            assert float(FLOAT_FORMAT % v) == v


class TestPartition:
    def test_validity(self):
        assert Partition(3, ((0, 1), (2,))).is_valid()
        assert not Partition(3, ((0, 1, 2),)).is_valid()  # one part
        assert not Partition(3, ((0,), (1,))).is_valid()  # item 2 uncovered

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition(3, ((0, 1), (1, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition(2, ((0, 5),))
        with pytest.raises(ValueError):
            Partition(2, ((-1, 0),))

    def test_rejects_empty_part(self):
        with pytest.raises(ValueError):
            Partition(3, ((0, 1), (), (2,)))

    def test_needs_exactly_one_of_parts_and_labels(self):
        with pytest.raises(ValueError):
            Partition(2)
        with pytest.raises(ValueError):
            Partition(2, ((0,), (1,)), labels=[0, 1])

    @pytest.mark.parametrize(
        "labels",
        [[0, 1], [0, 1, 0, 1], [0, -2, 1], [0, 2, 2], [1, 1, -1], [0.0, 1.0, 0.0]],
        ids=["short", "long", "below_minus_one", "skipped_id", "no_part_zero", "float"],
    )
    def test_labels_rejects(self, labels):
        with pytest.raises(ValueError):
            Partition(3, labels=labels)

    def test_labels_and_parts_agree(self):
        p = Partition(5, labels=[1, -1, 0, 1, 0])
        assert p == Partition(5, ((4, 2), (3, 0)))
        assert list(p.sizes) == [2, 2] and p.n_parts == 2 and p.n_covered == 4

    def test_part_order_matters(self):
        assert Partition(3, ((0,), (1, 2))) != Partition(3, ((1, 2), (0,)))
        assert Partition(3, ((0,), (1, 2))) != Partition(4, ((0,), (1, 2)))

    def test_equal_partitions_hash_equal(self):
        a = Partition(4, ((2, 0), (1, 3)))
        b = Partition(4, labels=np.array([0, 1, 0, 1], dtype=np.int32))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Partition(4, ((1, 3), (0, 2)))}) == 2

    def test_stored_arrays_read_only(self):
        source = np.array([0, 1, 0])
        p = Partition(3, labels=source)
        for arr in (p.labels, p.sizes):
            with pytest.raises(ValueError):
                arr[0] = 1
        source[0] = 1  # the partition keeps its own copy
        assert list(p.labels) == [0, 1, 0]

    def test_label_array_marks_uncovered(self):
        p = Partition(4, ((1, 3), (0,)))
        assert list(p.labels) == [1, 0, -1, 0]

    def test_same_part(self):
        lab = Partition(4, ((0, 2), (1, 3))).labels
        assert lab[0] == lab[2] and lab[0] != lab[1]


@st.composite
def parts_cases(draw):
    """Parts in arbitrary order, members in arbitrary order, some items uncovered."""
    n = draw(st.integers(min_value=0, max_value=30))
    ids = draw(st.lists(st.integers(min_value=-1, max_value=5), min_size=n, max_size=n))
    groups = {}
    for item, part in enumerate(ids):
        if part >= 0:
            groups.setdefault(part, []).append(item)
    parts = draw(st.permutations([draw(st.permutations(g)) for g in groups.values()]))
    return n, parts


@settings(max_examples=300, deadline=None)
@given(parts_cases())
def test_partition_label_round_trip(case):
    n, parts = case
    p = Partition(n, parts)
    expected = [-1] * n
    for j, g in enumerate(parts):
        for item in g:
            expected[item] = j
    assert p.labels.tolist() == expected
    assert Partition(n, labels=p.labels) == p
    assert p.n_covered == sum(len(g) for g in parts)


class TestLabelsToPartition:
    def test_two_class(self):
        p = labels_to_partition([0, 1, 0, 1])
        assert p.labels.tolist() == [0, 1, 0, 1]

    def test_class_id_order(self):
        p = labels_to_partition([2, 0, 1])
        assert p.labels.tolist() == [2, 0, 1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            labels_to_partition([0, 0, 0])

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.5, 1.7], [0, 1, 1.7], np.array([0.0, 1.0, 2.0000001]), np.array([0.0, np.inf, 1.0])],
        ids=["all-fractional", "one-fractional", "near-whole", "inf"],
    )
    def test_fractional_labels_rejected(self, labels):
        # Truncation would merge the classes 1.5 and 1.7 into one.
        with pytest.raises(ValueError, match="labels must be whole numbers"):
            labels_to_partition(labels)

    def test_whole_float_labels_accepted(self):
        assert labels_to_partition([2.0, 0.0, 1.0, 0.0]).labels.tolist() == [2, 0, 1, 0]

    def test_agrees_with_label_equality(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]
        lab = labels_to_partition(labels).labels
        for i in range(12):
            for j in range(12):
                assert (lab[i] == lab[j]) == (labels[i] == labels[j])


class TestNormalize:
    def test_two_point_column(self):
        ds = Dataset(id="a", points=np.array([[1.0], [3.0]]))
        out = normalize_dataset(ds)
        assert out.points[:, 0] == pytest.approx([-1.0, 1.0])

    def test_constant_column_zeroed(self):
        ds = Dataset(id="a", points=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        out = normalize_dataset(ds)
        assert np.all(out.points[:, 0] == 0.0)

    def test_moments(self):
        rng = np.random.default_rng(1)
        ds = Dataset(id="a", points=rng.standard_normal((40, 3)) * [1, 10, 0.1] + 5)
        out = normalize_dataset(ds)
        assert np.abs(out.points.mean(axis=0)).max() <= 1e-9
        assert np.abs(out.points.std(axis=0) - 1).max() <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        ds = Dataset(id="a", points=rng.standard_normal((20, 2)))
        once = normalize_dataset(ds)
        twice = normalize_dataset(once)
        assert np.abs(twice.points - once.points).max() <= 1e-12


class TestCovariance:
    def test_population_covariance(self):
        pts = np.random.default_rng(6).standard_normal((30, 3))
        assert covariance(pts) == pytest.approx(np.cov(pts, rowvar=False, bias=True), abs=1e-12)


class TestCsvRoundTrip:
    def test_labeled_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((10, 3))
        points[:2, 0] = [1e-17, 3.123456789012345]  # 17 significant digits survive the text format
        ds, truth = Dataset(id="rt", points=points), Partition(10, labels=[0, 1] * 5)
        path = tmp_path / "rt.csv"
        write_dataset_csv(ds, truth, path)
        back, back_truth = load_dataset_csv(path, dataset_id="other")
        assert back.id == "other" and load_dataset_csv(path)[0].id == "rt"
        assert np.array_equal(back.points, ds.points)
        assert back_truth == truth

    def test_write_rejects_truth_of_another_size(self, tmp_path):
        ds = Dataset(id="w", points=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            write_dataset_csv(ds, Partition(4, labels=[0, 1, 0, 1]), tmp_path / "w.csv")

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        # not features, no label column (the unlabeled format), no feature column, blank
        for text in ("x,y\n1,2\n", "f0\n1\n2\n", "label\n0\n1\n", "\n1,0\n"):
            path.write_text(text)
            with pytest.raises(DataError, match="header"):
                load_dataset_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1,0\noops,1\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset_csv(path)

    def test_rejects_nan_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1,0\nnan,1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_dataset_csv(path)

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = [" 1.5", "1_0", "+.5", "-0", "1e-400", "5.", "\t2", "0.1", "%.17g" % (1 / 3), repr(2 / 3)]
        path = tmp_path / "cells.csv"
        rows = (f'"{a}",{b},{t % 2}\n' for t, (a, b) in enumerate(zip(cells, cells[::-1])))
        path.write_text("f0,f1,label\n" + "".join(rows))
        points, _truth = load_dataset_csv(path)
        expected = np.array([[float(a), float(b)] for a, b in zip(cells, cells[::-1])])
        assert points.points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("f0,label\n1,0\n2,x\noops,1\n", "row 3: non-integer label 'x'"),
            ("f0,label\n1,0\noops,1\n2,1,5\n", "row 3, column f0: non-numeric cell 'oops'"),
            ("f0,label\n1,0\n2,1,5\noops,1\n", "row 3 has 3 cells, expected 2"),
            ("f0,f1,label\n1,2,0\n3,inf,1\n4,oops,1\n", "row 3, column f1: non-finite cell"),
        ],
        ids=["label-first", "cell-first", "ragged-first", "non-finite-first"],
    )
    def test_first_bad_row_is_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset_csv(path)

    def test_rejects_sparse_label_ids(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0,0\n1,2\n2,0\n")
        with pytest.raises(DataError, match="no id skipped"):
            load_dataset_csv(path)

    def test_rejects_single_class(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0,0\n1,0\n2,0\n")
        with pytest.raises(DataError, match="at least 2 classes"):
            load_dataset_csv(path)


INF = math.inf


class TestWeightedGraph:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph([[0.0, -0.5], [-0.5, 0.0]])

    @pytest.mark.parametrize(
        "weights",
        [
            ((INF, float("nan"), 1.0), (INF, INF, 1.0), (INF, INF, INF)),
            ((INF, 2.0, 1.0), (INF, INF, -1.0), (INF, INF, INF)),
        ],
        ids=["nan", "negative"],
    )
    @pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "array"])
    def test_rejects_bad_edges(self, weights, as_array):
        with pytest.raises(ValueError):
            WeightedGraph(np.array(weights) if as_array else weights)

    def test_rejects_wrong_shape(self):
        for shape in ((2, 3), (3,), (0,), (2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                WeightedGraph(np.zeros(shape))

    def test_array_and_tuples_agree(self):
        weights = ((INF, 3.25, 1.5), (INF, INF, 0.0), (INF, INF, INF))
        a, b = WeightedGraph(weights), WeightedGraph(np.array(weights))
        for g in (a, b):
            assert g.w.dtype == np.float64 and g.n_vertices == 3 and g.n_edges == 3
            assert g.w.tolist() == [[INF, 3.25, 1.5], [3.25, INF, 0.0], [1.5, 0.0, INF]]
        empty = WeightedGraph(np.full((3, 3), INF))
        assert empty.n_edges == 0 and empty.n_vertices == 3

    def test_reads_only_the_strict_upper_triangle(self):
        upper = np.array([[0.0, 1.0, INF], [0.0, 0.0, 2.5], [0.0, 0.0, 0.0]])
        garbage = np.array([[np.nan, 0.0, 0.0], [-1.0, -2.0, 0.0], [np.nan, 7.0, 5.0]])
        g = WeightedGraph(np.triu(upper, 1) + np.tril(garbage))
        assert g.w.tolist() == [[INF, 1.0, INF], [1.0, INF, 2.5], [INF, 2.5, INF]]
        assert g.n_edges == 2

    def test_n_edges_counts_finite_upper_triangle(self):
        rng = np.random.default_rng(30)
        for n in (1, 2, 5, 17):
            weights = rng.uniform(0.0, 3.0, size=(n, n))
            weights[rng.random((n, n)) < 0.4] = INF
            g = WeightedGraph(weights)
            assert g.n_vertices == n
            assert g.n_edges == int(np.isfinite(weights[np.triu_indices(n, 1)]).sum())
            assert np.array_equal(g.w, g.w.T)

    def test_stored_arrays_read_only(self):
        source = np.array([[0.0, 2.0], [2.0, 0.0]])
        g = WeightedGraph(source)
        with pytest.raises(ValueError):
            g.w[0, 1] = 0
        source[0, 1] = 5.0
        assert g.w[0, 1] == g.w[1, 0] == 2.0


class TestSplit:
    def make_repo(self, n=10, seed=7):
        spec = SynthSpec(n_problems=n, n_points=30, seed=seed)
        return make_synthetic_repository(spec)

    def test_disjoint_cover(self):
        repo = self.make_repo()
        train, test = split_repository(repo, 0.5, 0, 3)
        assert len(train) == 5 and len(test) == 5
        assert sorted(list(train) + list(test)) == list(range(10))

    def test_deterministic(self):
        repo = self.make_repo()
        a = split_repository(repo, 0.5, 1, 3)
        b = split_repository(repo, 0.5, 1, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_repeats_differ(self):
        repo = self.make_repo()
        a = split_repository(repo, 0.5, 0, 3)
        b = split_repository(repo, 0.5, 1, 3)
        assert not np.array_equal(a[0], b[0])

    def test_rounding_rule(self):
        repo = self.make_repo(n=339)
        train, test = split_repository(repo, 0.7, 0, 0)
        assert len(train) == 237 and len(test) == 102

    def test_empty_side_rejected(self):
        repo = self.make_repo(n=2)
        with pytest.raises(ValueError):
            split_repository(repo, 0.01, 0, 0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, math.inf, math.nan], ids=["zero", "one", "inf", "nan"])
    def test_fraction_outside_open_unit_interval_rejected(self, fraction):
        # An infinite fraction would otherwise reach math.floor and raise OverflowError.
        with pytest.raises(ValueError, match=r"train_fraction must lie in \(0, 1\)"):
            split_repository(self.make_repo(), fraction)

    def test_negative_repeat_rejected(self):
        with pytest.raises(ValueError, match="repeat must be >= 0"):
            split_repository(self.make_repo(), 0.5, repeat=-1)


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(n_problems=4, n_points=50, seed=99)
        a = make_synthetic_repository(spec)
        b = make_synthetic_repository(spec)
        for (da, ta), (db, tb) in zip(a.problems, b.problems):
            assert np.array_equal(da.points, db.points)
            assert ta == tb

    def test_outlier_count(self):
        spec = SynthSpec(n_problems=2, n_points=200, outlier_fraction=0.01, seed=5)
        repo = make_synthetic_repository(spec)
        for ds, _ in repo.problems:
            radius = np.sqrt((ds.points**2).sum(axis=1))
            # planted points sit at 20 * separation * k, far beyond any blob
            assert int((radius > radius.mean() + 10 * radius.std()).sum()) <= 2

    def test_truth_matches_labels(self):
        # the truth is blob membership: near-even blocks of ascending class id
        repo = make_synthetic_repository(SynthSpec(n_problems=3, n_points=40, seed=1))
        for _ds, truth in repo.problems:
            sizes = np.full(truth.n_parts, 40 // truth.n_parts)
            sizes[: 40 % truth.n_parts] += 1
            assert np.array_equal(truth.labels, np.repeat(np.arange(truth.n_parts), sizes))

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_problems=1, n_points=3, n_clusters=(4, 5))

    def test_separation_and_outlier_radius_must_be_finite(self):
        # Planted outliers are up to 40 * separation * clusters_max apart; the
        # squared diameter, times dims_max, must be finite.
        for separation in (math.nan, math.inf, 1e308, 1e200):
            with pytest.raises(ValueError, match="separation must be finite"):
                SynthSpec(n_problems=1, separation=separation)
        SynthSpec(n_problems=1, separation=1e151, n_clusters=(2, 4))  # (1.6e153)^2 * 2 = 5.1e306
        SynthSpec(n_problems=1, separation=1e151, n_clusters=(2, 4), dims=(2, 10))  # 2.6e307
        for dims, separation in (((2, 2), 1e152), ((2, 100), 1e151)):  # 5.1e308, 2.6e308 overflow
            with pytest.raises(ValueError, match="separation must be finite"):
                SynthSpec(n_problems=1, separation=separation, n_clusters=(2, 4), dims=dims)

    def test_largest_separation_has_finite_distances(self):
        spec = SynthSpec(
            n_problems=2, n_points=20, dims=(3, 3), n_clusters=(4, 4), outlier_fraction=0.2, separation=1e151
        )
        with np.errstate(over="raise"):
            for ds, _truth in make_synthetic_repository(spec).problems:
                assert np.all(np.isfinite(squared_distances(ds.points)))


def distance_graph_edges_oracle(pts):
    """The per-row edge builder that ``dataset_to_distance_graph`` replaced."""
    n = pts.shape[0]
    edges = []
    for u in range(n):
        dist = np.sqrt(((pts[u + 1 :] - pts[u]) ** 2).sum(axis=1))
        edges.extend((u, u + 1 + off, float(w)) for off, w in enumerate(dist))
    return tuple(edges)


class TestDistanceGraph:
    def test_complete_and_euclidean(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        g = dataset_to_distance_graph(Dataset(id="g", points=pts))
        assert g.n_edges == 3
        w = {(u, v): w for u, v, w in graph_edges(g)}
        assert w[(0, 1)] == pytest.approx(5.0)
        assert w[(0, 2)] == pytest.approx(1.0)

    def test_matches_per_row_oracle_exactly(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            n = int(rng.integers(2, 60))
            pts = rng.standard_normal((n, int(rng.integers(1, 12)))) * rng.uniform(0.1, 100.0)
            if trial % 2:
                pts = np.round(pts, 1)
            g = dataset_to_distance_graph(Dataset(id="g", points=pts))
            assert tuple(graph_edges(g)) == distance_graph_edges_oracle(pts), trial

    def test_overflowing_distance_is_data_error(self, tmp_path):
        # Points whose distances could overflow are rejected when they are loaded, before any graph.
        path = tmp_path / "far.csv"
        path.write_text("f0,f1,label\n0,0,0\n1e200,0,1\n1,1,1\n")
        with pytest.raises(DataError, match="far.csv: points are too large"):
            load_dataset_csv(path)


def test_squared_distances_match_per_row_sums_exactly():
    rng = np.random.default_rng(22)
    for d in range(1, 12):
        pts = rng.standard_normal((int(rng.integers(1, 30)), d)) * rng.uniform(0.1, 100.0)
        sq = squared_distances(pts)
        assert sq.dtype == np.float64 and sq.shape == (pts.shape[0],) * 2
        for i in range(pts.shape[0]):
            assert np.array_equal(sq[i], ((pts[i] - pts) ** 2).sum(axis=1))


@pytest.mark.parametrize(
    "n,d",
    [
        (5, 2), (63, 3), (64, 1), (65, 4), (100, 2), (128, 10), (150, 5), (150, 2), (1000, 10),
        # numpy's pairwise summation: 8 running sums from d = 8, two halves above d = 128
        (70, 8), (70, 9), (65, 16), (65, 17), (40, 129), (30, 300), (1, 3),
    ],
)
def test_squared_distances_blocks_match_one_expression(n, d):
    # The one whole-matrix expression that the row blocks and coordinate sums replace, kept as the oracle.
    pts = np.random.default_rng(n * 11 + d).standard_normal((n, d)) * 3.0
    assert np.array_equal(squared_distances(pts), ((pts[:, None] - pts[None]) ** 2).sum(axis=2))


def test_squared_distances_memory_is_row_blocked():
    # One (1000, 1000, 10) difference array would take 76 MB; the result alone takes 7.6 MB.
    pts = np.random.default_rng(23).standard_normal((1000, 10))
    tracemalloc.start()
    try:
        squared_distances(pts)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestRepositoryIO:
    def test_round_trip(self, tmp_path):
        repo = make_synthetic_repository(SynthSpec(n_problems=3, n_points=25, seed=8))
        manifest = save_repository(repo, tmp_path / "repo")
        back = load_repository(manifest, seed=repo.seed)
        assert len(back) == len(repo)
        for (da, ta), (db, tb) in zip(repo.problems, back.problems):
            assert da.id == db.id and np.array_equal(da.points, db.points)
            assert ta == tb

    def test_manifest_content(self, tmp_path):
        repo = make_synthetic_repository(SynthSpec(n_problems=2, n_points=25, seed=8))
        manifest = save_repository(repo, tmp_path / "repo")
        entries = json.loads(manifest.read_text())
        assert [e["id"] for e in entries] == ["synth-0000", "synth-0001"]
        assert all(e["has_labels"] is True for e in entries)

    def test_unlabeled_problem_rejected(self, tmp_path):
        # rejected from the manifest alone: the named file does not exist
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"id": "x", "path": "missing.csv", "has_labels": False}])
        )
        with pytest.raises(DataError, match="has_labels must be true"):
            load_repository(tmp_path / "manifest.json")

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[]")
        with pytest.raises(DataError, match="manifest lists no datasets"):
            load_repository(tmp_path / "manifest.json")

    def test_duplicate_id_rejected(self, tmp_path):
        repo = make_synthetic_repository(SynthSpec(n_problems=2, n_points=25, seed=8))
        manifest = save_repository(repo, tmp_path / "repo")
        entries = json.loads(manifest.read_text())
        entries[1]["id"] = entries[0]["id"]
        manifest.write_text(json.dumps(entries))
        with pytest.raises(DataError, match="duplicate problem id 'synth-0000'"):
            load_repository(manifest)


class TestMetaRepository:
    def test_rejects_invalid_truth(self):
        ds = Dataset(id="a", points=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            MetaRepository(problems=((ds, Partition(3, ((0, 1, 2),))),), seed=0)

    def test_rejects_duplicate_ids(self):
        truth = labels_to_partition([0, 1, 0])
        problems = tuple((Dataset(id=i, points=np.zeros((3, 1))), truth) for i in ("a", "b", "a"))
        with pytest.raises(ValueError, match="duplicate problem id 'a'"):
            MetaRepository(problems=problems, seed=0)
        MetaRepository(problems=problems[:2], seed=0)

    def test_rejects_problem_that_is_not_a_point_dataset(self):
        graph = graph_from_edges(3, ((0, 1, 1.0), (1, 2, 2.0)))
        with pytest.raises(ValueError, match="point datasets"):
            MetaRepository(problems=((graph, labels_to_partition([0, 0, 1])),), seed=0)
