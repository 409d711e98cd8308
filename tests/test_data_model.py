"""Dataset/partition/graph containers, CSV round trips and generators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaclust.data_model import (
    Dataset,
    MetaRepository,
    Partition,
    SplitSpec,
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
        ds = Dataset(id="a", points=np.zeros((3, 2)), labels=np.array([0, 1, 0]))
        assert ds.n == 3 and ds.d == 2 and ds.n_classes == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(id="a", points=np.array([[0.0], [np.nan]]))

    def test_rejects_sparse_label_ids(self):
        with pytest.raises(ValueError):
            Dataset(id="a", points=np.zeros((3, 1)), labels=np.array([0, 2, 0]))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            Dataset(id="a", points=np.zeros((3, 1)), labels=np.array([0, 0, 0]))

    def test_points_frozen(self):
        ds = Dataset(id="a", points=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 1.0

    def test_without_labels(self):
        ds = Dataset(id="a", points=np.zeros((3, 1)), labels=np.array([0, 1, 0]))
        assert ds.without_labels().labels is None


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
        assert p.parts == ((2, 4), (0, 3))
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
        for arr in (p.labels, p.sizes, p.to_label_array()):
            with pytest.raises(ValueError):
                arr[0] = 1
        source[0] = 1  # the partition keeps its own copy
        assert list(p.labels) == [0, 1, 0]

    def test_label_array_marks_uncovered(self):
        p = Partition(4, ((1, 3), (0,)))
        assert list(p.to_label_array()) == [1, 0, -1, 0]

    def test_same_part(self):
        lab = Partition(4, ((0, 2), (1, 3))).to_label_array()
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
    assert p.parts == tuple(tuple(sorted(g)) for g in parts)
    assert Partition(n, labels=p.to_label_array()) == p
    assert p.n_covered == sum(len(g) for g in parts)


class TestLabelsToPartition:
    def test_two_class(self):
        p = labels_to_partition([0, 1, 0, 1])
        assert p.parts == ((0, 2), (1, 3))

    def test_class_id_order(self):
        p = labels_to_partition([2, 0, 1])
        assert p.parts == ((1,), (2,), (0,))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            labels_to_partition([0, 0, 0])

    def test_agrees_with_label_equality(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]
        lab = labels_to_partition(labels).to_label_array()
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
        ds = Dataset(
            id="rt", points=rng.standard_normal((10, 3)), labels=rng.integers(0, 2, size=10) * 0 + [0, 1] * 5
        )
        path = tmp_path / "rt.csv"
        write_dataset_csv(ds, path)
        back = load_dataset_csv(path, has_labels=True, dataset_id="rt")
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(id="u", points=np.array([[1e-17, 2.0], [3.123456789012345, 4.0]]))
        path = tmp_path / "u.csv"
        write_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.points, ds.points)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0\n1\noops\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_rejects_nan_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0\n1\nnan\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)


class TestWeightedGraph:
    def test_orients_edges(self):
        g = WeightedGraph(3, ((2, 0, 1.5),))
        assert g.edges == ((0, 2, 1.5),)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 1, 1.0),))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1, -0.5),))

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1, float("nan")),),
            ((0, 1, float("inf")),),
            ((0, 1, -1.0),),
            ((0, 3, 1.0),),
            ((-1, 1, 1.0),),
            ((0, 1.5, 1.0),),
            ((2, 2, 1.0),),
            ((0, 1, 1.0), (0, 1, 2.0)),
            ((0, 1, 1.0), (1, 0, 2.0)),
            ((1, 2, 1.0), (0, 1, 1.0), (2, 1, 1.0)),
        ],
        ids=["nan", "inf", "negative", "high_end", "low_end", "fractional_end", "self_loop",
             "duplicate", "duplicate_reversed", "duplicate_later"],
    )
    @pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "array"])
    def test_rejects_bad_edges(self, edges, as_array):
        with pytest.raises(ValueError):
            WeightedGraph(3, np.array(edges) if as_array else edges)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, np.zeros((2, 2)))

    def test_array_and_tuples_agree(self):
        edges = ((2, 0, 1.5), (1, 2, 0.0), (0, 1, 3.25))
        a, b = WeightedGraph(3, edges), WeightedGraph(3, np.array(edges))
        assert a.edges == b.edges == ((0, 2, 1.5), (1, 2, 0.0), (0, 1, 3.25))
        assert list(a.u) == [0, 1, 0] and list(a.v) == [2, 2, 1] and list(a.w) == [1.5, 0.0, 3.25]
        assert WeightedGraph(3, ()).n_edges == 0 and WeightedGraph(3, ()).edges == ()

    def test_stored_arrays_read_only(self):
        source = np.array([[0, 1, 2.0]])
        g = WeightedGraph(2, source)
        for arr in (g.u, g.v, g.w):
            with pytest.raises(ValueError):
                arr[0] = 0
        source[0, 2] = 5.0
        assert g.edges == ((0, 1, 2.0),)


class TestSplit:
    def make_repo(self, n=10, seed=7):
        spec = SynthSpec(n_problems=n, n_points=30, seed=seed)
        return make_synthetic_repository(spec)

    def test_disjoint_cover(self):
        repo = self.make_repo()
        train, test = split_repository(repo, SplitSpec(0.5, 0, 3))
        assert len(train) == 5 and len(test) == 5
        assert sorted(list(train) + list(test)) == list(range(10))

    def test_deterministic(self):
        repo = self.make_repo()
        a = split_repository(repo, SplitSpec(0.5, 1, 3))
        b = split_repository(repo, SplitSpec(0.5, 1, 3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_repeats_differ(self):
        repo = self.make_repo()
        a = split_repository(repo, SplitSpec(0.5, 0, 3))
        b = split_repository(repo, SplitSpec(0.5, 1, 3))
        assert not np.array_equal(a[0], b[0])

    def test_rounding_rule(self):
        repo = self.make_repo(n=339)
        train, test = split_repository(repo, SplitSpec(0.7, 0, 0))
        assert len(train) == 237 and len(test) == 102

    def test_empty_side_rejected(self):
        repo = self.make_repo(n=2)
        with pytest.raises(ValueError):
            split_repository(repo, SplitSpec(0.01, 0, 0))


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(n_problems=4, n_points=50, seed=99)
        a = make_synthetic_repository(spec)
        b = make_synthetic_repository(spec)
        for (da, _), (db, _) in zip(a.problems, b.problems):
            assert np.array_equal(da.points, db.points)
            assert np.array_equal(da.labels, db.labels)

    def test_outlier_count(self):
        spec = SynthSpec(n_problems=2, n_points=200, outlier_fraction=0.01, seed=5)
        repo = make_synthetic_repository(spec)
        for ds, _ in repo.problems:
            radius = np.sqrt((ds.points**2).sum(axis=1))
            # planted points sit at 20 * separation * k, far beyond any blob
            assert int((radius > radius.mean() + 10 * radius.std()).sum()) <= 2

    def test_truth_matches_labels(self):
        repo = make_synthetic_repository(SynthSpec(n_problems=3, n_points=40, seed=1))
        for ds, truth in repo.problems:
            assert truth == labels_to_partition(ds.labels)

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_problems=1, n_points=3, n_clusters=(4, 5))


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
        w = {(u, v): w for u, v, w in g.edges}
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
            assert g.edges == distance_graph_edges_oracle(pts), trial


class TestRepositoryIO:
    def test_round_trip(self, tmp_path):
        repo = make_synthetic_repository(SynthSpec(n_problems=3, n_points=25, seed=8))
        manifest = save_repository(repo, tmp_path / "repo")
        back = load_repository(manifest, seed=repo.seed)
        assert len(back) == len(repo)
        for (da, ta), (db, tb) in zip(repo.problems, back.problems):
            assert np.array_equal(da.points, db.points)
            assert ta.parts == tb.parts

    def test_manifest_content(self, tmp_path):
        repo = make_synthetic_repository(SynthSpec(n_problems=2, n_points=25, seed=8))
        manifest = save_repository(repo, tmp_path / "repo")
        entries = json.loads(manifest.read_text())
        assert [e["id"] for e in entries] == ["synth-0000", "synth-0001"]

    def test_unlabeled_problem_rejected(self, tmp_path):
        ds = Dataset(id="x", points=np.zeros((4, 1)) + [[0], [1], [2], [3]])
        write_dataset_csv(ds, tmp_path / "x.csv")
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"id": "x", "path": "x.csv", "has_labels": False}])
        )
        with pytest.raises(ValueError):
            load_repository(tmp_path / "manifest.json")


class TestMetaRepository:
    def test_rejects_invalid_truth(self):
        ds = Dataset(id="a", points=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            MetaRepository(problems=((ds, Partition(3, ((0, 1, 2),))),), seed=0)
