"""Pairwise loss, Rand/ARI and silhouette against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaclust.data_model import Partition, labels_to_partition
from metaclust.metrics import (
    _pair_counts,
    adjusted_rand_index,
    clustering_loss,
    pairwise_distances,
    rand_index,
    silhouette_score,
)


def random_partition(rng, n, max_parts=4):
    labels = rng.integers(0, rng.integers(2, max_parts + 1), size=n)
    while np.unique(labels).size < 2:
        labels = rng.integers(0, rng.integers(2, max_parts + 1), size=n)
    # compact the ids so labels_to_partition accepts them
    _, dense = np.unique(labels, return_inverse=True)
    return labels_to_partition(dense)


def loss_oracle(n, y, z):
    """Direct ordered-pair enumeration of the disagreement fraction."""
    if not (y.is_valid() and z.is_valid()):
        return 1.0
    ly = y.labels
    lz = z.labels
    bad = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (ly[i] == ly[j]) != (lz[i] == lz[j]):
                bad += 1
    return bad / (n * (n - 1))


def silhouette_oracle(points, c):
    """Scalar per-point silhouette loop, accumulated in point order."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    labels = c.labels
    k = c.n_parts
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))

    sizes = np.array([(labels == j).sum() for j in range(k)])
    cluster_sum = np.zeros((n, k))
    for j in range(k):
        cluster_sum[:, j] = dist[:, labels == j].sum(axis=1)

    total = 0.0
    for i in range(n):
        own = labels[i]
        if sizes[own] == 1:
            continue
        a = cluster_sum[i, own] / (sizes[own] - 1)
        b = np.inf
        for j in range(k):
            if j != own:
                b = min(b, cluster_sum[i, j] / sizes[j])
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / n


class TestClusteringLoss:
    def test_identity_is_zero(self):
        y = Partition(4, ((0, 1), (2, 3)))
        assert clustering_loss(y, y) == 0.0

    def test_worked_three_point_example(self):
        y = Partition(3, ((0, 1), (2,)))
        z = Partition(3, ((0,), (1, 2)))
        assert clustering_loss(y, z) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_partial_cover_charged_one(self):
        y = Partition(3, ((0, 1), (2,)))
        z = Partition(3, ((0,), (1,)))  # item 2 uncovered
        assert clustering_loss(y, z) == 1.0

    def test_one_part_output_charged_one(self):
        y = Partition(3, ((0, 1), (2,)))
        z = Partition(3, ((0, 1, 2),))
        assert clustering_loss(y, z) == 1.0

    def test_other_item_count_charged_one(self):
        y = Partition(3, ((0, 1), (2,)))
        z = Partition(4, ((0, 1), (2, 3)))
        assert clustering_loss(y, z) == 1.0
        assert clustering_loss(z, y) == 1.0

    def test_fewer_than_two_items_rejected(self):
        one = Partition(1, ((0,),))
        with pytest.raises(ValueError, match="need at least 2 items"):
            clustering_loss(one, Partition(3, ((0, 1), (2,))))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            y = random_partition(rng, n)
            z = random_partition(rng, n)
            lo = clustering_loss(y, z)
            assert 0.0 <= lo <= 1.0
            assert lo == clustering_loss(z, y)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            y = random_partition(rng, n)
            z = random_partition(rng, n)
            assert clustering_loss(y, z) == pytest.approx(loss_oracle(n, y, z), abs=1e-12)


class TestRandIndex:
    def test_identity(self):
        y = Partition(5, ((0, 2), (1, 3, 4)))
        assert rand_index(y, y) == 1.0

    def test_worked_four_point_example(self):
        y = Partition(4, ((0, 1), (2, 3)))
        z = Partition(4, ((0, 1, 2), (3,)))
        assert rand_index(y, z) == pytest.approx(0.5, abs=1e-15)

    def test_complement_of_loss(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            y = random_partition(rng, n)
            z = random_partition(rng, n)
            assert rand_index(y, z) + clustering_loss(y, z) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_partition_rejected(self):
        y = Partition(3, ((0, 1), (2,)))
        z = Partition(3, ((0, 1, 2),))
        with pytest.raises(ValueError):
            rand_index(y, z)


class TestContingency:
    """``_pair_counts``: the exact pair counts behind the loss and the ARI."""

    def test_marginals(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            y = random_partition(rng, n)
            z = random_partition(rng, n)
            ly, lz = y.labels, z.labels
            same_y = same_z = same_both = 0
            for i, j in itertools.combinations(range(n), 2):
                same_y += ly[i] == ly[j]
                same_z += lz[i] == lz[j]
                same_both += ly[i] == ly[j] and lz[i] == lz[j]
            assert _pair_counts(y, z) == (same_both, same_y, same_z)

    def test_uncovered_item_rejected(self):
        # item 2 is in no part of y; it must not be counted into any cell
        with pytest.raises(ValueError):
            _pair_counts(Partition(3, ((0,), (1,))), Partition(3, ((0, 1, 2),)))

    def test_mismatched_item_counts_rejected(self):
        with pytest.raises(ValueError):
            _pair_counts(Partition(3, ((0,), (1, 2))), Partition(4, ((0, 1), (2, 3))))


class TestAdjustedRandIndex:
    def test_identity_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            y = random_partition(rng, n)
            assert adjusted_rand_index(y, y) == 1.0

    def test_worked_four_point_example(self):
        y = Partition(4, ((0, 1), (2, 3)))
        z = Partition(4, ((0, 1, 2), (3,)))
        assert adjusted_rand_index(y, z) == pytest.approx(0.0, abs=1e-15)

    def test_all_singletons_degenerate(self):
        y = Partition(3, ((0,), (1,), (2,)))
        assert adjusted_rand_index(y, y) == 1.0

    def test_chance_level_near_zero(self):
        rng = np.random.default_rng(5)
        n = 200
        vals = []
        for _ in range(300):
            y = labels_to_partition(rng.integers(0, 4, size=n))
            z = labels_to_partition(rng.integers(0, 4, size=n))
            vals.append(adjusted_rand_index(y, z))
        assert -0.02 <= float(np.mean(vals)) <= 0.02

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        y = labels_to_partition(labels)
        z = labels_to_partition((labels + 1) % 3)
        assert adjusted_rand_index(y, z) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("score", [rand_index, adjusted_rand_index])
def test_scores_reject_another_item_count(score):
    y = Partition(3, ((0, 1), (2,)))
    z = Partition(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="Z is not a valid partition of 3 items"):
        score(y, z)
    with pytest.raises(ValueError, match="Z is not a valid partition of 4 items"):
        score(z, y)


class TestSilhouette:
    def test_worked_two_pair_example(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        c = Partition(4, ((0, 1), (2, 3)))
        expected = (2 * (9.5 / 10.5) + 2 * (8.5 / 9.5)) / 4
        assert silhouette_score(x, c) == pytest.approx(expected, abs=1e-12)
        assert silhouette_score(x, c) == pytest.approx(0.899749, abs=1e-6)

    def test_all_singletons_zero(self):
        x = np.array([[0.0], [5.0], [9.0]])
        c = Partition(3, ((0,), (1,), (2,)))
        assert silhouette_score(x, c) == 0.0

    def test_coincident_points_zero_over_zero(self):
        x = np.zeros((4, 2))
        c = Partition(4, ((0, 1), (2, 3)))
        assert silhouette_score(x, c) == 0.0

    def test_single_cluster_rejected(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            silhouette_score(x, Partition(2, ((0, 1),)))

    @pytest.mark.parametrize("shape", [(5, 6), (6, 6), (4, 5)])
    def test_distance_matrix_shape_is_checked(self, shape):
        # At (5, 6) the first 5 columns would be read as if they were the matrix.
        x = np.arange(10.0).reshape(5, 2)
        c = Partition(5, labels=[0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match=r"dist must be an \(5, 5\) matrix"):
            silhouette_score(x, c, dist=np.zeros(shape))

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        c = random_partition(rng, 20, max_parts=3)
        base = silhouette_score(x, c)
        assert silhouette_score(x + 13.25, c) == pytest.approx(base, abs=1e-9)
        assert silhouette_score(x * 7.5, c) == pytest.approx(base, abs=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 2))
        c = random_partition(rng, 15, max_parts=3)
        flipped = Partition(15, labels=c.n_parts - 1 - c.labels)  # part ids in reverse order
        assert silhouette_score(x, flipped) == pytest.approx(silhouette_score(x, c), abs=1e-12)


@st.composite
def silhouette_cases(draw):
    """Points (possibly coincident, possibly 1-D) plus a partition with >= 2 parts."""
    n = draw(st.integers(min_value=2, max_value=25))
    d = draw(st.integers(min_value=1, max_value=3))
    coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=n))
    # drawing rows from a small pool makes coincident points common
    rows = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=n, max_size=n))
    points = np.array([pool[r] for r in rows], dtype=float).reshape(n, d)
    k = draw(st.integers(min_value=2, max_value=min(n, 6)))
    labels = np.array(draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n)))
    labels[:2] = [0, 1]  # at least two parts; the rest may leave singletons
    _, dense = np.unique(labels, return_inverse=True)
    return points, labels_to_partition(dense)


def large_silhouette_case():
    """150 rounded points with duplicates, in 7 parts of which 2 are singletons."""
    rng = np.random.default_rng(0)
    points = np.round(rng.standard_normal((150, 3)) * 3)
    points[rng.integers(0, 150, size=40)] = points[7]
    labels = rng.integers(0, 5, size=150)
    labels[[11, 97]] = [5, 6]
    return points, labels_to_partition(labels)


@settings(max_examples=300, deadline=None)
@given(silhouette_cases())
@example((np.array([[0.0], [1.0], [10.0], [11.0]]), Partition(4, ((0, 1), (2, 3)))))
@example((np.array([[0.0], [5.0], [9.0]]), Partition(3, ((0,), (1,), (2,)))))  # all singletons
@example((np.zeros((4, 2)), Partition(4, ((0, 1), (2, 3)))))  # 0/0
@example((np.array([[0.0], [0.0], [3.0], [7.0]]), Partition(4, ((0, 1, 2), (3,)))))
@example((np.array([[0.0, 0], [0, 0], [0, 0], [1, 1], [1, 1], [5, 5]]), Partition(6, ((0, 3), (1,), (2, 4), (5,)))))  # singletons; coincident points across parts
@example(large_silhouette_case())
def test_silhouette_matches_scalar_oracle_exactly(case):
    points, c = case
    expected = silhouette_oracle(points, c)
    assert silhouette_score(points, c) == expected
    assert silhouette_score(points, c, dist=pairwise_distances(points)) == expected
    reversed_parts = Partition(c.n_items, labels=c.n_parts - 1 - c.labels)
    assert silhouette_score(points, reversed_parts) == expected


def test_scores_keep_their_bits_under_any_part_ids():
    # generate_runs scores each distinct partition once and reuses the score
    # for every relabelling of it, so neither score may move a bit when the
    # part ids are permuted, with singleton parts and coincident points too.
    rng = np.random.default_rng(30)
    cases = [large_silhouette_case()]
    for _ in range(300):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 4))
        pool = np.round(rng.standard_normal((int(rng.integers(1, n + 1)), d)) * 3.0, 1)
        labels = rng.integers(0, int(rng.integers(2, min(n, 8) + 1)), size=n)
        labels[:2] = [0, 1]
        _, dense = np.unique(labels, return_inverse=True)
        cases.append((pool[rng.integers(0, len(pool), size=n)], labels_to_partition(dense)))
    assert sum(1 in c.sizes for _points, c in cases) > 100
    assert sum(len(np.unique(points, axis=0)) < len(points) for points, _c in cases) > 100

    def bits(x):
        return np.float64(x).tobytes()

    for points, c in cases:
        n = c.n_items
        truth = random_partition(rng, n)
        scores = (silhouette_score(points, c), adjusted_rand_index(truth, c), adjusted_rand_index(c, truth))
        for _ in range(4):
            other = Partition(n, labels=rng.permutation(c.n_parts)[c.labels])
            again = (silhouette_score(points, other), adjusted_rand_index(truth, other), adjusted_rand_index(other, truth))
            assert list(map(bits, again)) == list(map(bits, scores))


@st.composite
def label_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    def labs():
        raw = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
        arr = np.asarray(raw)
        if np.unique(arr).size < 2:
            arr[0] = arr[0] + 1 if n > 1 else arr[0]
            arr = np.append(arr[:-1], arr[0] + 1)
        _, dense = np.unique(arr, return_inverse=True)
        return dense
    return n, labs(), labs()


@settings(max_examples=150, deadline=None)
@given(label_pairs())
def test_loss_oracle_property(pair):
    n, a, b = pair
    if np.unique(a).size < 2 or np.unique(b).size < 2 or len(a) != n or len(b) != n:
        return
    y = labels_to_partition(a)
    z = labels_to_partition(b)
    assert clustering_loss(y, z) == pytest.approx(loss_oracle(n, y, z), abs=1e-12)
    assert rand_index(y, z) == pytest.approx(1.0 - clustering_loss(y, z), abs=1e-12)
