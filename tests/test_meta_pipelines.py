"""Algorithm-selection, meta-k and outlier-sweep pipeline mechanics."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import best_kmeans
from metaclust import clusterers, meta_pipelines, regression
from metaclust.clusterers import ClustererSpec, run_spec
from metaclust.data_model import (
    DataError,
    Dataset,
    MetaRepository,
    Partition,
    SynthSpec,
    covariance,
    derive_seed,
    labels_to_partition,
    make_synthetic_repository,
    normalize_points,
    split_repository,
    squared_distances,
)
from metaclust.meta_pipelines import (
    evaluate_meta_k,
    generate_runs,
    member_records,
    repo_runs,
    select_algorithm,
    sweep_outlier_fraction,
    train_algo_select,
    train_meta_k,
)
from metaclust.metrics import adjusted_rand_index, pairwise_distances, silhouette_score
from metaclust.regression import fit_least_squares, phi_features, predict, symmetric_eigen_extrema


# Record-based oracles: the per-run objects and Python-loop selection rules
# that the stacked run arrays replaced.  ``evaluate_meta_k`` must score the
# cells they pick, and ``train_meta_k`` must fit their pooling.


@dataclass(frozen=True)
class RunRecord:
    k: int
    run_index: int
    silhouette: float
    ari: float


def records_of(k_range, sil, ari):
    """One problem's (k rows, runs) cells as records, in (k, run) order."""
    return [
        RunRecord(k, run, float(sil[i, run]), float(ari[i, run]))
        for i, k in enumerate(k_range)
        for run in range(sil.shape[1])
    ]


def oracle_best_fit_k(records):
    best_per_k = {}
    for rec in records:
        if rec.k not in best_per_k or rec.ari > best_per_k[rec.k]:
            best_per_k[rec.k] = rec.ari
    return min(best_per_k, key=lambda k: (-best_per_k[k], k))


def oracle_baseline_record(records):
    return min(records, key=lambda r: (-r.silhouette, r.k, r.run_index))


def oracle_meta_selected_record(coef, k_range, records):
    """Each record scored on its own: the k row's slope times the silhouette, plus the intercept."""
    by_k = dict(zip(k_range, coef))
    return min(records, key=lambda r: (-float(by_k[r.k][:1] @ [r.silhouette] + by_k[r.k][1]), r.k, r.run_index))


def oracle_train_meta_k(per_problem_records, k_range):
    by_k = {k: ([], []) for k in k_range}
    for records in per_problem_records:
        for rec in records:
            if rec.k in by_k:
                by_k[rec.k][0].append([rec.silhouette])
                by_k[rec.k][1].append(rec.ari)
    return np.array([fit_least_squares(*by_k[k]) for k in k_range])


def oracle_evaluate_meta_k(coef, k_range, sil, ari):
    """The four values of ``evaluate_meta_k`` from the records' cells, problem by problem."""
    sq_meta, sq_base, ari_meta, ari_base = [], [], [], []
    for problem_sil, problem_ari in zip(sil, ari):
        records = records_of(k_range, problem_sil, problem_ari)
        k_star = oracle_best_fit_k(records)
        meta = oracle_meta_selected_record(coef, k_range, records)
        base = oracle_baseline_record(records)
        sq_meta.append((meta.k - k_star) ** 2)
        sq_base.append((base.k - k_star) ** 2)
        ari_meta.append(meta.ari)
        ari_base.append(base.ari)
    n = len(sil)
    return math.sqrt(sum(sq_meta) / n), math.sqrt(sum(sq_base) / n), sum(ari_meta) / n, sum(ari_base) / n


def per_problem_records(k_range, sil, ari):
    return [records_of(k_range, s, a) for s, a in zip(sil, ari)]


# Algorithm-selection oracles: each member rerun on each problem, with no
# shared matrices and no member records.


def seeded_specs(specs, seed):
    """The members as ``member_records`` runs them: member j with seed derive_seed(seed, j)."""
    return [ClustererSpec(spec.kind, spec.k, spec.normalize_first, spec.restarts, derive_seed(seed, j))
            for j, spec in enumerate(specs)]


def train_algo_select_oracle(specs, train, seed):
    """The member-by-member training loop: each member over all problems in turn.

    Returns the members' coefficient vectors and the failure count.
    """
    coefs, n_failed = [], 0
    for spec in seeded_specs(specs, seed):
        feats, targets = [], []
        for ds, truth in train:
            try:
                partition = run_spec(spec, ds.points)
                extrema = symmetric_eigen_extrema(covariance(ds.points))
                feats.append(phi_features(ds, [silhouette_score(ds.points, partition)], extrema)[0])
                targets.append(adjusted_rand_index(truth, partition))
            except ValueError:
                lo, hi = symmetric_eigen_extrema(covariance(ds.points))
                feats.append(np.array([ds.d, ds.n, lo, hi, 0.0]))
                targets.append(0.0)
                n_failed += 1
        coefs.append(fit_least_squares(feats, targets))
    return coefs, n_failed


def select_algorithm_oracle(specs, coef, dataset):
    """The candidate-list selection loop over the seeded ``specs``, each run on
    ``dataset`` and featurized without a shared matrix.

    Returns (best, partitions): every member's partition, None where its run failed.
    """
    partitions, candidates = [], []
    for j, (spec, member_coef) in enumerate(zip(specs, coef)):
        try:
            partition = run_spec(spec, dataset.points)
        except ValueError:
            partitions.append(None)
            continue
        partitions.append(partition)
        try:
            extrema = symmetric_eigen_extrema(covariance(dataset.points))
            a_j = predict(member_coef, phi_features(dataset, [silhouette_score(dataset.points, partition)], extrema)[0])
        except ValueError:
            continue
        candidates.append((a_j, j))
    best = min(candidates, key=lambda c: (-c[0], c[1]))
    return best[1], partitions


def member_means_oracle(specs, test):
    """Each seeded member's mean test ARI from a rerun of that member alone; a failed run scores 0."""
    means = []
    for spec in specs:
        total = 0.0
        for ds, truth in test:
            try:
                total += adjusted_rand_index(truth, run_spec(spec, ds.points))
            except ValueError:
                pass
        means.append(total / len(test))
    return means


def stacks(sil, ari=None):
    """(sil, ari) float stacks of (problems, k rows, runs); ARI 0 if not given."""
    sil = np.asarray(sil, dtype=float)
    return sil, np.zeros_like(sil) if ari is None else np.asarray(ari, dtype=float)


def random_stacks(rng, k_range, problems, restarts):
    # One decimal place, so equal silhouettes and ARIs are common.
    shape = (problems, len(k_range), restarts)
    return np.round(rng.uniform(-1, 1, shape), 1), np.round(rng.uniform(0, 1, shape), 1)


def random_coef(rng, k_range):
    # Zero slopes tie every run of a k; small integer-valued coefficients tie across k.
    slopes = rng.choice([-1.0, 0.0, 0.5, 1.0], len(k_range))
    return np.column_stack([slopes, rng.integers(-1, 2, len(k_range))]).astype(float)


def identity_coef(k_range):
    """Predicted ARI = silhouette for every k: meta-k picks the baseline's cell."""
    return np.tile([1.0, 0.0], (len(k_range), 1))


def bits(values):
    return np.array(values, dtype=float).tobytes()


K_RANGES = [(2,), (2, 3), (3, 5, 8), tuple(range(2, 11)), (4, 6, 7, 9, 12)]


def generate_runs_oracle(dataset, truth, k_range, restarts, seed, theta=0.0, use_raw_norm=False):
    """The per-cell loop that ``generate_runs`` replaced: one single-start
    k-means call per (k, run) cell, scored alone.  Returns the silhouette
    and ARI arrays and each cell's inlier and full label vectors."""
    points = dataset.points
    outliers, inliers = meta_pipelines._prune_indices(points, theta, use_raw_norm)
    work = points if outliers.size == 0 else points[inliers]
    sq = squared_distances(work)
    dist = np.sqrt(sq)
    sil = np.empty((len(k_range), restarts))
    ari = np.empty((len(k_range), restarts))
    cells = []
    for i, k in enumerate(k_range):
        for run in range(restarts):
            result = best_kmeans(work, k, restarts=1, seed=derive_seed(seed, k, run), sq_dist=sq)
            sil[i, run] = silhouette_score(work, result.partition, dist=dist)
            if outliers.size == 0:
                full = result.partition
            else:
                labels = np.empty(points.shape[0], dtype=np.int64)
                labels[inliers] = result.partition.labels
                d2 = ((points[outliers][:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
                labels[outliers] = np.argmin(d2, axis=1)
                full = Partition(n_items=points.shape[0], labels=labels)
            ari[i, run] = adjusted_rand_index(truth, full)
            cells.append((result.partition.labels, full.labels))
    return sil, ari, cells


def first_appearance(labels):
    """The labels renumbered in order of first appearance, as a tuple."""
    ids = {}
    return tuple(ids.setdefault(label, len(ids)) for label in labels.tolist())


def small_repo(n_problems=6, seed=3):
    return make_synthetic_repository(
        SynthSpec(n_problems=n_problems, n_points=40, n_clusters=(2, 3), seed=seed)
    )


class TestGenerateRuns:
    def test_record_count_and_fields(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        sil, ari = generate_runs(ds, truth, range(2, 11), 10, seed=1)
        assert sil.shape == ari.shape == (9, 10)
        assert np.all(np.isfinite(sil)) and np.all(np.isfinite(ari))
        assert not sil.flags.writeable and not ari.flags.writeable

    def test_cells_are_seeded_single_runs_in_k_run_order(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        _sil, ari = generate_runs(ds, truth, (2, 4), 3, seed=5)
        for i, k in enumerate((2, 4)):
            for run in range(3):
                partition = best_kmeans(ds.points, k, restarts=1, seed=derive_seed(5, k, run)).partition
                assert ari[i, run] == adjusted_rand_index(truth, partition)

    @pytest.mark.parametrize(
        "theta,use_raw_norm,shift", [(0.0, False, 0.0), (0.1, False, 0.0), (0.1, True, 100.0)]
    )
    def test_matches_the_per_cell_oracle_on_repeated_partitions(self, theta, use_raw_norm, shift):
        # Cells that repeat an earlier partition under other part ids take
        # its scores; they must equal scoring every cell alone, to the bit.
        for i, (ds, truth) in enumerate(small_repo(3).problems):
            ds = Dataset(id=ds.id, points=ds.points + shift)
            runs = generate_runs(ds, truth, range(2, 7), 10, seed=i, theta=theta, use_raw_norm=use_raw_norm)
            sil, ari, cells = generate_runs_oracle(ds, truth, range(2, 7), 10, i, theta, use_raw_norm)
            assert runs[0].tobytes() == sil.tobytes()
            assert runs[1].tobytes() == ari.tobytes()
            for side in (0, 1):  # inlier and full partitions
                distinct = {first_appearance(cell[side]) for cell in cells}
                assert len(distinct) < len(cells) - 10, (i, side)

    @pytest.mark.parametrize("theta", [0.0, 0.1])
    def test_unchecked_partitions_equal_checked_ones(self, theta, monkeypatch):
        # Only the partitions scored skip Partition's checks: one build per
        # distinct partition of the runs, and with pruning one per distinct
        # reattached full partition, not one per cell.  Each must equal the
        # partition built from its labels.
        built, scored = [], []
        dense = Partition._dense.__func__

        def record(cls, labels, sizes):
            built.append(dense(cls, labels, sizes))
            return built[-1]

        def scoring(score):
            def wrapped(first, parts, **kwargs):
                scored.extend(parts)
                return score(first, parts, **kwargs)

            return wrapped

        monkeypatch.setattr(Partition, "_dense", classmethod(record))
        monkeypatch.setattr(meta_pipelines, "silhouette_score", scoring(silhouette_score))
        monkeypatch.setattr(meta_pipelines, "adjusted_rand_index", scoring(adjusted_rand_index))
        ds, truth = small_repo(1).problems[0]
        generate_runs(ds, truth, range(2, 6), 4, seed=3, theta=theta)
        # Fewer builds than the 4 k values x 4 runs, and with pruning their
        # full partitions too: some runs repeat a partition.
        distinct = {(fast.n_items, first_appearance(fast.labels)) for fast in built}
        assert len(built) == len(distinct) < (2 if theta else 1) * 4 * 4
        assert {id(part) for part in scored} == {id(fast) for fast in built}
        assert {fast.n_items for fast in built} == ({ds.n - int(theta * ds.n), ds.n} if theta else {ds.n})
        for fast in built:
            checked = Partition(n_items=fast.n_items, labels=fast.labels.copy())
            assert fast.labels.dtype == checked.labels.dtype and np.array_equal(fast.labels, checked.labels)
            assert fast.sizes.dtype == checked.sizes.dtype and np.array_equal(fast.sizes, checked.sizes)
            assert fast.n_covered == checked.n_covered == fast.n_items
            assert not fast.labels.flags.writeable and not fast.sizes.flags.writeable

    def test_deterministic(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        a = generate_runs(ds, truth, range(2, 5), 3, seed=5)
        b = generate_runs(ds, truth, range(2, 5), 3, seed=5)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_pruned_partition_covers_everything(self):
        # The ARI of a pruned cell is that of the full partition with every
        # pruned point reattached to its nearest center.
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        _sil, ari = generate_runs(ds, truth, range(2, 4), 2, seed=2, theta=0.05)
        dist = np.sqrt(((ds.points - ds.points.mean(axis=0)) ** 2).sum(axis=1))
        outliers = np.sort(np.lexsort((np.arange(ds.n), -dist))[:2])  # floor(0.05 * 40)
        inliers = np.setdiff1d(np.arange(ds.n), outliers)
        for i, k in enumerate(range(2, 4)):
            for run in range(2):
                result = best_kmeans(ds.points[inliers], k, restarts=1, seed=derive_seed(2, k, run))
                labels = np.empty(ds.n, dtype=int)
                labels[inliers] = result.partition.labels
                for o in outliers:
                    labels[o] = np.argmin(((result.centers - ds.points[o]) ** 2).sum(axis=1))
                full = Partition(ds.n, labels=labels)
                assert full.n_covered == ds.n
                assert ari[i, run] == adjusted_rand_index(truth, full)

    def test_theta_zero_equals_plain(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        plain = generate_runs(ds, truth, range(2, 5), 2, seed=8)
        zero = generate_runs(ds, truth, range(2, 5), 2, seed=8, theta=0.0)
        assert np.array_equal(plain[0], zero[0]) and np.array_equal(plain[1], zero[1])

    def test_raw_norm_prunes_furthest_from_origin(self):
        # The mean is 99.2: 103 is furthest from the origin, 90 from the mean.
        points = np.array([[100.0], [101.0], [102.0], [103.0], [90.0]])
        out_raw, in_raw = meta_pipelines._prune_indices(points, 0.2, use_raw_norm=True)
        out_mean, in_mean = meta_pipelines._prune_indices(points, 0.2, use_raw_norm=False)
        assert out_raw.tolist() == [3] and in_raw.tolist() == [0, 1, 2, 4]
        assert out_mean.tolist() == [4] and in_mean.tolist() == [0, 1, 2, 3]

    def test_raw_norm_changes_the_grid_when_the_mean_is_far_from_the_origin(self):
        ds, truth = small_repo(1).problems[0]
        far = Dataset(id="far", points=ds.points + 100.0)
        raw = generate_runs(far, truth, range(2, 5), 3, seed=4, theta=0.1, use_raw_norm=True)
        centered = generate_runs(far, truth, range(2, 5), 3, seed=4, theta=0.1)
        assert not np.array_equal(raw[0], centered[0])  # the silhouettes

    def test_too_small_k_range_rejected(self):
        ds = Dataset(id="t", points=np.arange(6.0).reshape(-1, 1))
        with pytest.raises(ValueError):
            generate_runs(ds, labels_to_partition([0, 0, 0, 1, 1, 1]), range(2, 11), 1, seed=0)

    @pytest.mark.parametrize("k_range", [(3, 2), (2, 2, 3), (2, 4, 3), ()])
    def test_k_range_must_ascend_without_repeats(self, k_range):
        ds = Dataset(id="t", points=np.arange(8.0).reshape(-1, 1))
        with pytest.raises(ValueError, match="ascend"):
            generate_runs(ds, labels_to_partition([0] * 4 + [1] * 4), k_range, 1, seed=0)

    def test_worked_far_point_reattached_to_nearest_center(self):
        # theta = 0.2 prunes the one point furthest from the mean (100); the
        # inliers split {0, 1} | {10, 11}, and 100 joins the nearer center 10.5,
        # which is exactly the truth.
        ds = Dataset(id="w", points=np.array([[0.0], [1.0], [10.0], [11.0], [100.0]]))
        truth = labels_to_partition([0, 0, 1, 1, 1])
        _sil, ari = generate_runs(ds, truth, (2,), 3, seed=0, theta=0.2)
        assert np.all(ari == 1.0)

    def test_planted_outlier_pruned_at_true_k(self):
        rng = np.random.default_rng(18)
        labels = np.repeat([0, 1], 25)
        pts = rng.standard_normal((50, 2)) + 10.0 * labels[:, None]
        pts[7] = [500.0, -500.0]
        ds = Dataset(id="o", points=pts)
        _sil, ari = generate_runs(ds, labels_to_partition(labels), (2,), 5, seed=2, theta=1 / 50)
        assert np.all(ari >= 0.9)

    def test_pruning_below_max_k_rejected(self):
        ds = Dataset(id="t", points=np.arange(8.0).reshape(-1, 1))
        truth = labels_to_partition([0] * 4 + [1] * 4)
        generate_runs(ds, truth, (2, 3, 4), 1, seed=0)  # 8 points support k = 4
        with pytest.raises(ValueError):
            generate_runs(ds, truth, (2, 3, 4), 1, seed=0, theta=0.8)  # 2 points left

    @pytest.mark.parametrize("theta", [-0.5, -0.01, 1.0, math.inf, math.nan])
    def test_theta_outside_the_unit_interval_rejected(self, theta):
        # floor(theta * n) outliers: a negative count would set aside points
        # counted from the other end of the order.
        ds = Dataset(id="t", points=np.arange(30.0).reshape(-1, 1))
        truth = labels_to_partition([0] * 15 + [1] * 15)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\)"):
            generate_runs(ds, truth, (2, 3), 1, seed=0, theta=theta)

    @pytest.mark.parametrize(
        "restarts,truth_items,match",
        [
            (-1, 20, "restarts must be an int >= 1, got -1"),
            (0, 20, "restarts must be an int >= 1, got 0"),
            (2.0, 20, "restarts must be an int >= 1, got 2.0"),
            (3, 10, "the truth partitions 10 items but the dataset has 20 points"),
        ],
    )
    def test_inputs_checked_before_any_run(self, restarts, truth_items, match, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("k-means ran before the inputs were checked")

        monkeypatch.setattr(meta_pipelines, "kmeans", refuse)
        ds = Dataset(id="t", points=np.arange(20.0).reshape(-1, 1))
        truth = labels_to_partition([0, 1] * (truth_items // 2))
        with pytest.raises(ValueError, match=match):
            generate_runs(ds, truth, (2, 3), restarts, seed=0)

    @pytest.mark.parametrize("theta", [0.0, 0.1])
    def test_one_seeding_pass_and_one_call_per_score(self, theta, monkeypatch):
        # The grid's generators come from one default_rngs call, one per
        # cell in (k, run) order; its distinct partitions are scored in one
        # silhouette_score and one adjusted_rand_index call.
        calls = {name: [] for name in ("default_rngs", "kmeans", "silhouette_score", "adjusted_rand_index")}

        def counted(name, real):
            def wrapped(*args, **kwargs):
                args = [list(a) if name == "default_rngs" else a for a in args]
                calls[name].append(args)
                return real(*args, **kwargs)

            return wrapped

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built outside default_rngs")

        ds, truth = small_repo(1).problems[0]
        for name in calls:
            monkeypatch.setattr(meta_pipelines, name, counted(name, getattr(meta_pipelines, name)))
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        k_range, restarts = (2, 3, 5), 4
        generate_runs(ds, truth, k_range, restarts, seed=6, theta=theta)
        seeds = [derive_seed(derive_seed(6, k, run), 0) for k in k_range for run in range(restarts)]
        assert calls["default_rngs"] == [[seeds]]
        assert [args[1] for args in calls["kmeans"]] == list(k_range)
        assert len(calls["silhouette_score"]) == len(calls["adjusted_rand_index"]) == 1


class TestRepoRuns:
    def test_stacks_every_problems_grid(self):
        repo = small_repo(3)
        sil, ari = repo_runs(repo, (2, 4), 3, seed=5)
        assert sil.shape == ari.shape == (3, 2, 3)
        assert not sil.flags.writeable and not ari.flags.writeable
        for i, (ds, truth) in enumerate(repo.problems):
            one_sil, one_ari = generate_runs(ds, truth, (2, 4), 3, seed=derive_seed(5, i))
            assert sil[i].tobytes() == one_sil.tobytes() and ari[i].tobytes() == one_ari.tobytes()

    def test_empty_repository_rejected(self):
        with pytest.raises(ValueError, match="no problems"):
            repo_runs(MetaRepository(problems=(), seed=0), (2, 3), 2)


class TestSelectionRules:
    """The best-fit k, baseline cell and meta cell, seen through ``evaluate_meta_k``."""

    def test_best_fit_k_argmax(self):
        # The baseline takes k = 4 (silhouette 0.9), one away from the best-fit k = 3.
        sil, ari = stacks([[[0.1], [0.2], [0.9]]], [[[0.3], [0.9], [0.4]]])
        _rmse_meta, rmse_baseline, _ari_meta, ari_baseline = evaluate_meta_k(
            identity_coef((2, 3, 4)), (2, 3, 4), sil, ari
        )
        assert rmse_baseline == 1.0 and ari_baseline == 0.4

    def test_best_fit_k_tie_smallest(self):
        # k = 3 and k = 5 tie on ARI 0.7: the baseline's k = 3 is off by 0, not by 2.
        sil, ari = stacks([[[0.3], [0.2], [0.1]]], [[[0.7], [0.2], [0.7]]])
        assert evaluate_meta_k(identity_coef((3, 4, 5)), (3, 4, 5), sil, ari)[1] == 0.0

    def test_baseline_argmax_silhouette(self):
        sil = np.zeros((1, 3, 4))
        sil[0, 0, 0], sil[0, 1, 0], sil[0, 2, 3] = 0.1, 0.5, 0.95
        ari = np.arange(12.0).reshape(1, 3, 4) / 100  # every cell its own ARI
        assert evaluate_meta_k(identity_coef((2, 4, 7)), (2, 4, 7), sil, ari)[3] == ari[0, 2, 3]

    def test_baseline_tie_smallest_k_then_run(self):
        sil = np.zeros((1, 2, 3))
        sil[0, 1, 1] = sil[0, 1, 0] = sil[0, 0, 2] = 0.5
        ari = np.arange(6.0).reshape(1, 2, 3) / 100
        assert evaluate_meta_k(identity_coef((3, 4)), (3, 4), sil, ari)[3] == ari[0, 0, 2]

    def test_meta_cell_uses_predicted_order(self):
        # The k = 2 line inverts silhouette, so the low-silhouette run wins.
        coef = np.array([[-1.0, 0.0], [0.0, -10.0]])
        sil, ari = stacks([[[0.9, 0.1], [0.99, 0.5]]], [[[0.1, 0.8], [0.2, 0.0]]])
        assert evaluate_meta_k(coef, (2, 3), sil, ari) == (0.0, 1.0, 0.8, 0.2)

    def test_predict_k_tie_smallest(self):
        sil, ari = stacks([[[0.5], [0.5]]], [[[0.1], [0.9]]])
        rmse_meta, _rmse_baseline, ari_meta, _ari_baseline = evaluate_meta_k(identity_coef((2, 3)), (2, 3), sil, ari)
        assert rmse_meta == 1.0 and ari_meta == 0.1

    def test_errors_are_in_k_not_in_rows(self):
        # On k = (3, 5, 8) meta-k picks row 2 and the best-fit k is row 0: 5 apart, not 2.
        coef = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        sil, ari = stacks([[[0.9], [0.5], [0.1]]], [[[0.9], [0.5], [0.1]]])
        assert evaluate_meta_k(coef, (3, 5, 8), sil, ari) == (5.0, 0.0, 0.1, 0.9)

    def test_identity_model_reduces_to_baseline(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sil, ari = rng.uniform(-1, 1, (3, 9, 3)), rng.uniform(0, 1, (3, 9, 3))
            rmse_meta, rmse_baseline, ari_meta, ari_baseline = evaluate_meta_k(
                identity_coef(range(2, 11)), range(2, 11), sil, ari
            )
            assert rmse_meta == rmse_baseline and ari_meta == ari_baseline

    def test_evaluation_matches_record_oracles_on_random_stacks(self):
        rng = np.random.default_rng(80)
        for trial in range(600):
            k_range = K_RANGES[trial % len(K_RANGES)]
            sil, ari = random_stacks(rng, k_range, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            coef = random_coef(rng, k_range)
            ref = oracle_evaluate_meta_k(coef, k_range, sil, ari)
            assert bits(evaluate_meta_k(coef, k_range, sil, ari)) == bits(ref), trial

    def test_evaluation_matches_record_oracles_on_real_runs(self):
        sil, ari = repo_runs(small_repo(6), range(2, 6), 3, seed=5)
        coef = train_meta_k(sil[:4], ari[:4])
        for test_idx in (np.arange(6), np.array([4, 5]), np.array([1])):
            ref = oracle_evaluate_meta_k(coef, range(2, 6), sil[test_idx], ari[test_idx])
            assert bits(evaluate_meta_k(coef, range(2, 6), sil[test_idx], ari[test_idx])) == bits(ref)


class TestTrainMetaK:
    def test_exact_linear_recovery(self):
        sil = np.random.default_rng(0).uniform(-0.5, 1.0, (4, 9, 3))
        coef = train_meta_k(sil, 2.0 * sil - 0.1)
        assert coef.shape == (9, 2)
        assert coef == pytest.approx(np.tile([2.0, -0.1], (9, 1)), abs=1e-9)

    def test_coefficients_are_read_only(self):
        coef = train_meta_k(*stacks([[[0.1, 0.5], [0.4, 0.2]]], [[[0.2, 0.9], [0.6, 0.1]]]))
        assert coef.shape == (2, 2)
        with pytest.raises(ValueError):
            coef[0, 0] = 1.0

    def test_train_meta_k_matches_record_pooling(self):
        rng = np.random.default_rng(81)
        for trial in range(50):
            k_range = K_RANGES[trial % len(K_RANGES)]
            sil, ari = random_stacks(rng, k_range, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            ref = oracle_train_meta_k(per_problem_records(k_range, sil, ari), k_range)
            assert train_meta_k(sil, ari).tobytes() == ref.tobytes(), trial

    def test_train_meta_k_matches_record_pooling_on_real_runs(self):
        sil, ari = repo_runs(small_repo(4), range(2, 6), 3, seed=4)
        for train_idx in (np.arange(4), np.array([0, 2, 3])):
            ref = oracle_train_meta_k(per_problem_records(range(2, 6), sil[train_idx], ari[train_idx]), range(2, 6))
            assert train_meta_k(sil[train_idx], ari[train_idx]).tobytes() == ref.tobytes()


class TestMetaKShapes:
    @pytest.mark.parametrize(
        "sil_shape,ari_shape", [((2, 3, 2), (2, 3, 3)), ((2, 3, 2), (2, 2, 2)), ((3, 2), (3, 2))]
    )
    def test_silhouette_ari_mismatch_rejected(self, sil_shape, ari_shape):
        sil, ari = np.zeros(sil_shape), np.zeros(ari_shape)
        with pytest.raises(ValueError, match="silhouette and ari must both be"):
            train_meta_k(sil, ari)
        with pytest.raises(ValueError, match="silhouette and ari must both be"):
            evaluate_meta_k(np.zeros((3, 2)), (2, 3, 4), sil, ari)

    @pytest.mark.parametrize(
        "coef_shape,k_range", [((2, 2), (2, 3, 4)), ((4, 2), (2, 3, 4)), ((3, 3), (2, 3, 4)), ((3, 2), (2, 3))]
    )
    def test_coefficients_and_k_range_must_match_the_k_rows(self, coef_shape, k_range):
        sil, ari = stacks(np.zeros((2, 3, 2)))
        evaluate_meta_k(np.zeros((3, 2)), (2, 3, 4), sil, ari)
        with pytest.raises(ValueError, match="one .slope, intercept. row and one k per k row"):
            evaluate_meta_k(np.zeros(coef_shape), k_range, sil, ari)

    def test_empty_sides_rejected(self):
        sil, ari = stacks(np.zeros((2, 3, 2)))
        none = np.array([], dtype=int)  # an empty side of a split
        with pytest.raises(ValueError, match="training set must be non-empty"):
            train_meta_k(sil[none], ari[none])
        with pytest.raises(ValueError, match="test set must be non-empty"):
            evaluate_meta_k(np.zeros((3, 2)), (2, 3, 4), sil[none], ari[none])


class TestEvaluateMetaK:
    def test_in_sample_scores_in_range(self):
        sil, ari = repo_runs(small_repo(6), range(2, 6), 3, seed=4)
        rmse_meta, rmse_baseline, ari_meta, _ari_baseline = evaluate_meta_k(
            train_meta_k(sil, ari), range(2, 6), sil, ari
        )
        assert rmse_meta >= 0.0 and rmse_baseline >= 0.0
        assert 0.0 <= ari_meta <= 1.0

    def test_baseline_reduction(self):
        sil, ari = repo_runs(small_repo(4), range(2, 6), 3, seed=4)
        rmse_meta, rmse_baseline, ari_meta, ari_baseline = evaluate_meta_k(
            identity_coef(range(2, 6)), range(2, 6), sil, ari
        )
        assert rmse_meta == rmse_baseline
        assert ari_meta == ari_baseline

    def test_reported_ari_matches_rerun_partitions(self):
        # The chosen cell's k-means run, repeated from its seed, scores the reported ARI.
        repo = small_repo(3)
        sil, ari = repo_runs(repo, range(2, 5), 2, seed=9)
        coef = train_meta_k(sil, ari)
        total = 0.0
        for i, (ds, truth) in enumerate(repo.problems):
            meta = oracle_meta_selected_record(coef, range(2, 5), records_of(range(2, 5), sil[i], ari[i]))
            seed = derive_seed(derive_seed(9, i), meta.k, meta.run_index)
            partition = best_kmeans(ds.points, meta.k, restarts=1, seed=seed).partition
            total += adjusted_rand_index(truth, partition)
        assert evaluate_meta_k(coef, range(2, 5), sil, ari)[2] == pytest.approx(total / 3, abs=1e-12)

    def test_one_predict_call_per_k_row(self, monkeypatch):
        # Each k row of every test problem is scored in one (problems * runs, 1) call.
        shapes = []
        real = meta_pipelines.predict

        def counted(coef, x):
            shapes.append(x.shape)
            return real(coef, x)

        monkeypatch.setattr(meta_pipelines, "predict", counted)
        sil, ari = random_stacks(np.random.default_rng(3), (3, 5, 8), 4, 2)
        evaluate_meta_k(identity_coef((3, 5, 8)), (3, 5, 8), sil, ari)
        assert shapes == [(8, 1)] * 3


def fit_records(specs, problems, seed):
    """(records, coef): the members' records of ``problems`` and the coefficients trained on all of them."""
    records = member_records(specs, problems, seed)
    return records, train_algo_select(records)


def n_flagged(records):
    """The number of flagged rows, without meta-features, in the records."""
    return sum(int(np.count_nonzero(~record.has_features)) for record in records)


class TestAlgoSelect:
    def test_intercept_separates_members(self):
        repo = small_repo(8)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=3), ClustererSpec(kind="agglo_single", k=2)]
        records, coef = fit_records(specs, repo.problems, seed=1)
        assert coef.shape == (2, 6)
        for array in (coef, records[0].rows, records[0].has_features, records[0].ari):
            with pytest.raises(ValueError):
                array[0] = 1.0
        best = select_algorithm(coef, records[0])
        assert best in (0, 1) and records[0].has_features[best]

    def test_single_member_family(self):
        repo = small_repo(3)
        records, coef = fit_records([ClustererSpec(kind="agglo_ward", k=2)], repo.problems, seed=0)
        assert select_algorithm(coef, records[0]) == 0
        assert records[0].has_features.tolist() == [True] and 0.0 < records[0].ari[0] <= 1.0

    def test_failed_member_rows_flagged(self):
        repo = small_repo(3)
        specs = [
            ClustererSpec(kind="kmeans", k=2, restarts=2),
            ClustererSpec(kind="agglo_ward", k=50),  # k > n on every problem
        ]
        records, coef = fit_records(specs, repo.problems, seed=0)
        assert n_flagged(records) == 3
        assert select_algorithm(coef, records[0]) == 0
        ds, _truth = repo.problems[0]
        lo, hi = symmetric_eigen_extrema(covariance(ds.points))
        assert records[0].has_features.tolist() == [True, False]
        assert records[0].rows[1].tolist() == [ds.d, ds.n, lo, hi, 0.0] and records[0].ari[1] == 0.0

    def test_members_without_features_keep_their_ari(self, monkeypatch):
        # The features fail on the second problem only: each of its members
        # is flagged and keeps the ARI of its run.
        repo = small_repo(3)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=2), ClustererSpec(kind="agglo_single", k=2)]
        real = meta_pipelines.phi_features
        calls = []

        def second_fails(dataset, silhouettes, extrema):
            calls.append(dataset)
            if len(calls) == 2:
                raise ValueError("covariance must be PSD up to tolerance")
            return real(dataset, silhouettes, extrema)

        monkeypatch.setattr(meta_pipelines, "phi_features", second_fails)
        records = member_records(specs, repo.problems, seed=0)
        assert [record.has_features.tolist() for record in records] == [[True, True], [False, False], [True, True]]
        for record, (ds, truth) in zip(records, repo.problems):
            aris = [adjusted_rand_index(truth, run_spec(spec, ds.points)) for spec in seeded_specs(specs, 0)]
            assert record.ari.tolist() == aris and all(aris)
        ds = repo.problems[1][0]
        lo, hi = symmetric_eigen_extrema(covariance(ds.points))
        assert records[1].rows.tolist() == [[ds.d, ds.n, lo, hi, 0.0]] * 2
        assert n_flagged(records) == 2
        with pytest.raises(DataError, match="no family member could be scored"):
            select_algorithm(train_algo_select(records), records[1])

    def test_each_member_runs_once_per_problem(self, monkeypatch):
        repo = small_repo(6)
        specs = [
            ClustererSpec(kind="kmeans", k=2, restarts=2),
            ClustererSpec(kind="agglo_average", k=2),
            ClustererSpec(kind="agglo_ward", k=50),  # fails: k > n
        ]
        calls = []

        def counted(spec, points, **kwargs):
            calls.append(spec.name)
            return run_spec(spec, points, **kwargs)

        monkeypatch.setattr(meta_pipelines, "run_spec", counted)
        records = member_records(specs, repo.problems, seed=2)
        assert len(calls) == len(specs) * len(repo.problems)
        coef = train_algo_select(records[:3])
        _meta, per_member = meta_pipelines.evaluate_algo_select(coef, records[3:])
        assert len(calls) == len(specs) * len(repo.problems)  # training and evaluation run no member
        # Same numbers as running every member again on each test problem.
        assert per_member == member_means_oracle(seeded_specs(specs, 2), repo.problems[3:])
        assert per_member[2] == 0.0

    def test_one_call_per_score_and_features_per_problem(self, monkeypatch):
        # The second problem has 4 points, too few for every k = 5 member:
        # it makes no score or feature call.  The others score the
        # partitions of their successful runs in member order, in one call each.
        problems = list(small_repo(3).problems)
        ds, truth = problems[1]
        problems[1] = (Dataset(id=ds.id, points=ds.points[:4]), labels_to_partition([0, 1, 0, 1]))
        specs = [
            ClustererSpec(kind="kmeans", k=5, restarts=2),
            ClustererSpec(kind="agglo_ward", k=50),  # fails: k > n
            ClustererSpec(kind="agglo_average", k=5),
        ]
        calls = {name: [] for name in ("adjusted_rand_index", "silhouette_score", "phi_features")}

        def counted(name, real):
            def wrapped(*args, **kwargs):
                calls[name].append(args)
                return real(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(meta_pipelines, name, counted(name, getattr(meta_pipelines, name)))
        records = member_records(specs, problems, seed=5)
        seeded, scored_problems = seeded_specs(specs, 5), problems[::2]
        expected = [[run_spec(seeded[j], ds.points).labels.tolist() for j in (0, 2)] for ds, _truth in scored_problems]
        firsts = {"adjusted_rand_index": [truth for _ds, truth in scored_problems],
                  "silhouette_score": [ds.points for ds, _truth in scored_problems]}
        for name, first in firsts.items():
            assert len(calls[name]) == len(first) and all(a is b for (a, _parts), b in zip(calls[name], first))
            assert [[part.labels.tolist() for part in parts] for _first, parts in calls[name]] == expected
        assert [args[0] for args in calls["phi_features"]] == [ds for ds, _truth in scored_problems]
        flags = [[True, False, True], [False, False, False], [True, False, True]]
        assert [record.has_features.tolist() for record in records] == flags
        assert records[1].ari.tolist() == [0.0] * 3

    def test_members_sharing_a_name_are_scored_apart(self):
        # Both k-means members are named "kmeans"; each keeps its own mean.
        repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=60, n_clusters=(3, 3), seed=1))
        specs = [
            ClustererSpec(kind="kmeans", k=2, restarts=2),
            ClustererSpec(kind="kmeans", k=3, restarts=2),
            ClustererSpec(kind="agglo_ward", k=3),
        ]
        records = member_records(specs, repo.problems, seed=0)
        coef = train_algo_select(records[:4])
        test = repo.problems[4:]
        meta, per_member = meta_pipelines.evaluate_algo_select(coef, records[4:])
        assert len(per_member) == 3 and all(mean <= 1.0 for mean in per_member)
        assert per_member == member_means_oracle(seeded_specs(specs, 0), test)
        assert per_member[0] != per_member[1]
        total = 0.0
        for ds, truth in test:
            best, partitions = select_algorithm_oracle(seeded_specs(specs, 0), coef, ds)
            total += adjusted_rand_index(truth, partitions[best])
        assert meta == total / len(test)

    def test_empty_test_set_rejected(self):
        _records, coef = fit_records(self.FAMILY[:2], small_repo(2).problems, seed=0)
        with pytest.raises(ValueError, match="test set must be non-empty"):
            meta_pipelines.evaluate_algo_select(coef, [])

    def test_no_scorable_member_is_data_error_naming_the_dataset(self):
        # The records and training keep the flagged rows; only selection fails.
        repo = small_repo(3)
        records, coef = fit_records([ClustererSpec(kind="agglo_ward", k=50)], repo.problems, seed=0)
        assert n_flagged(records) == len(repo.problems)
        ds = repo.problems[0][0]
        with pytest.raises(DataError, match=f"dataset {ds.id!r}: no family member could be scored"):
            select_algorithm(coef, records[0])

    FAMILY = [
        ClustererSpec(kind="kmeans", k=2, restarts=2),
        ClustererSpec(kind="agglo_single", k=3, normalize_first=True),
        ClustererSpec(kind="agglo_ward", k=50),  # fails: k > n
        ClustererSpec(kind="agglo_average", k=2),
    ]

    def test_training_matches_member_by_member_oracle(self):
        repo = small_repo(5)
        records, coef = fit_records(self.FAMILY, repo.problems, seed=4)
        coefs, n_failed = train_algo_select_oracle(self.FAMILY, repo.problems, seed=4)
        assert n_flagged(records) == n_failed == len(repo.problems)
        assert np.array_equal(coef, coefs)

    def test_member_failing_on_one_problem_is_flagged_in_every_split(self):
        # A 4-point problem fails the k = 5 member, which runs on the others.
        problems = list(small_repo(6).problems)
        ds, truth = problems[2]
        keep = np.concatenate([np.flatnonzero(truth.labels == c)[:2] for c in (0, 1)])
        problems[2] = (Dataset(id=ds.id, points=ds.points[keep]), labels_to_partition(truth.labels[keep]))
        family = self.FAMILY[:2] + [ClustererSpec(kind="agglo_ward", k=5)]
        records = member_records(family, problems, seed=3)
        assert [record.has_features[2] for record in records] == [True, True, False, True, True, True]
        lo, hi = symmetric_eigen_extrema(covariance(problems[2][0].points))
        assert records[2].rows[2].tolist() == [2, 4, lo, hi, 0.0] and records[2].ari[2] == 0.0
        for train_idx in ([0, 1, 2], [2, 3, 4, 5], [1, 3, 5], [0, 2, 4]):
            coef = train_algo_select([records[i] for i in train_idx])
            coefs, n_failed = train_algo_select_oracle(family, [problems[i] for i in train_idx], seed=3)
            assert n_flagged([records[i] for i in train_idx]) == n_failed == int(2 in train_idx)
            assert np.array_equal(coef, coefs)

    def test_one_distance_matrix_per_problem(self, monkeypatch):
        repo = small_repo(4)
        runs, dists, member_dists, sil_dists = [], [], [], []
        real_run, real_sq = meta_pipelines.run_spec, meta_pipelines.squared_distances
        real_sil = meta_pipelines.silhouette_score

        def counted_run(spec, points, *, sq_dist):
            runs.append((spec.normalize_first, sq_dist))
            return real_run(spec, points, sq_dist=sq_dist)

        def counted_sq(points):
            dists.append(points)
            return real_sq(points)

        def member_sq(points):
            member_dists.append(points)
            return real_sq(points)

        def recorded_sil(points, partitions, dist):
            sil_dists.append(dist)
            return real_sil(points, partitions, dist=dist)

        eigen = []
        real_eigen = meta_pipelines.symmetric_eigen_extrema

        def counted_eigen(s):
            eigen.append(s)
            return real_eigen(s)

        monkeypatch.setattr(meta_pipelines, "run_spec", counted_run)
        monkeypatch.setattr(meta_pipelines, "squared_distances", counted_sq)
        monkeypatch.setattr(clusterers, "squared_distances", member_sq)
        monkeypatch.setattr(meta_pipelines, "silhouette_score", recorded_sil)
        monkeypatch.setattr(meta_pipelines, "symmetric_eigen_extrema", counted_eigen)
        monkeypatch.setattr(regression, "symmetric_eigen_extrema", counted_eigen)
        records = member_records(self.FAMILY, repo.problems, seed=1)
        assert len(runs) == len(self.FAMILY) * len(repo.problems)
        # Per problem, one matrix of the raw points and one of the normalized
        # points (one member normalizes); the members compute none.
        assert len(dists) == 2 * len(repo.problems) and member_dists == []
        for t, (ds, _truth) in enumerate(repo.problems):
            raw, normalized = dists[2 * t : 2 * t + 2]
            assert raw is ds.points and np.array_equal(normalized, normalize_points(ds.points))
            problem_runs = runs[len(self.FAMILY) * t : len(self.FAMILY) * (t + 1)]
            assert len({id(sq) for norm, sq in problem_runs if not norm}) == 1
            assert len({id(sq) for norm, sq in problem_runs}) == 2
        # The three members that run on a problem are scored with its raw points' distances.
        assert len(sil_dists) == len(repo.problems)
        for (ds, _truth), dist in zip(repo.problems, sil_dists):
            assert np.array_equal(dist, pairwise_distances(ds.points))
        # One eigendecomposition per problem serves its feature rows and its failure row.
        assert len(eigen) == len(repo.problems)

        for calls in (runs, dists, sil_dists, eigen):
            calls.clear()
        select_algorithm(train_algo_select(records), records[0])
        assert runs == dists == member_dists == sil_dists == eigen == []

    def test_no_normalized_matrix_without_a_normalizing_member(self, monkeypatch):
        repo = small_repo(3)
        dists = []
        real_sq = meta_pipelines.squared_distances

        def counted_sq(points):
            dists.append(points)
            return real_sq(points)

        monkeypatch.setattr(meta_pipelines, "squared_distances", counted_sq)
        specs = [spec for spec in self.FAMILY if not spec.normalize_first]
        member_records(specs, repo.problems, seed=1)
        assert len(dists) == len(repo.problems)

    def test_failed_psd_check_fails_every_feature_row(self, monkeypatch):
        repo = small_repo(3)
        monkeypatch.setattr(meta_pipelines, "symmetric_eigen_extrema", lambda s: (-0.5, 1.0))
        records, coef = fit_records(self.FAMILY, repo.problems, seed=1)
        assert n_flagged(records) == len(self.FAMILY) * len(repo.problems)
        # Every member is fit to failure rows, which carry the shared extrema.
        oracle = fit_least_squares([[ds.d, ds.n, -0.5, 1.0, 0.0] for ds, _truth in repo.problems], [0.0] * 3)
        assert np.array_equal(coef, np.tile(oracle, (len(self.FAMILY), 1)))
        with pytest.raises(DataError, match="no family member could be scored"):
            select_algorithm(coef, records[0])

    def test_selection_matches_member_by_member_oracle(self):
        repo = small_repo(6)
        records = member_records(self.FAMILY, repo.problems, seed=2)
        coef = train_algo_select(records[:3])
        specs = seeded_specs(self.FAMILY, 2)
        for record, (ds, truth) in zip(records[3:], repo.problems[3:]):
            best, partitions = select_algorithm_oracle(specs, coef, ds)
            assert select_algorithm(coef, record) == best
            aris = [0.0 if p is None else adjusted_rand_index(truth, p) for p in partitions]
            assert record.ari.tolist() == aris

    def test_prediction_ties_go_to_the_earliest_member(self):
        repo = small_repo(3)
        specs = [ClustererSpec(kind="agglo_ward", k=50), ClustererSpec(kind="agglo_average", k=2),
                 ClustererSpec(kind="kmeans", k=2, restarts=2)]
        tied = np.tile([0.0, 0.0, 0.0, 0.0, 0.0, 0.5], (3, 1))
        (record,) = member_records(specs, repo.problems[:1])
        assert select_algorithm(tied, record) == 1
        assert record.has_features.tolist() == [False, True, True]

    def test_unexpected_member_error_propagates(self, monkeypatch):
        repo = small_repo(3)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=2)]

        def broken(spec, points, **kwargs):
            raise TypeError("not a documented member failure")

        monkeypatch.setattr(meta_pipelines, "run_spec", broken)
        with pytest.raises(TypeError):
            member_records(specs, repo.problems, seed=0)

    def test_deterministic(self):
        repo = small_repo(4)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=2)]
        a, b = (member_records(specs, repo.problems, seed=7) for _ in range(2))
        for x, y in zip(a, b):
            assert x.rows.tobytes() == y.rows.tobytes() and x.ari.tobytes() == y.ari.tobytes()
        assert np.array_equal(train_algo_select(a), train_algo_select(b))

    @pytest.mark.parametrize("shape", [(1, 6), (3, 6), (2, 5)])
    def test_coefficients_must_fit_the_members(self, shape):
        # Selection needs one row of 5 weights and an intercept per member.
        (record,) = member_records(self.FAMILY[:2], small_repo(1).problems)
        with pytest.raises(ValueError):
            select_algorithm(np.zeros(shape), record)


def best_p_oracle(p_grid, ari):
    """Each split's fraction with the highest ARI, ties to the smaller p: the old ``min`` rule."""
    return [min(zip(p_grid, row), key=lambda t: (-t[1], t[0]))[0] for row in ari.tolist()]


class TestSweep:
    def test_p_zero_column_reproduces_plain_pipeline(self):
        repo = small_repo(6)
        split = split_repository(repo, 0.5, 0, 2)
        ari, best_p = sweep_outlier_fraction(repo, [split], (0.0, 0.02), range(2, 5), 3, seed=6)
        assert ari.shape == (1, 2) and best_p.shape == (1,)
        train_idx, test_idx = split
        run_sil, run_ari = repo_runs(repo, range(2, 5), 3, seed=6)
        coef = train_meta_k(run_sil[train_idx], run_ari[train_idx])
        _rmse_meta, _rmse_baseline, ari_meta, _ari_baseline = evaluate_meta_k(
            coef, range(2, 5), run_sil[test_idx], run_ari[test_idx]
        )
        assert ari[0, 0] == ari_meta  # exact, not approximate

    @pytest.mark.parametrize("grid", [(0.001, 0.0), (0.0, 0.001)], ids=["descending", "ascending"])
    def test_tied_fractions_go_to_the_smaller_p(self, grid):
        # Under 1,000 points p = 0.001 prunes floor(0.001 n) = 0 of them, so
        # its column is p = 0's, bit for bit, whatever the grid order.
        repo = small_repo(6)
        assert max(ds.n for ds, _truth in repo.problems) < 1000
        splits = [split_repository(repo, 0.5, repeat, 2) for repeat in range(3)]
        ari, best_p = sweep_outlier_fraction(repo, splits, grid, range(2, 5), 2, seed=1)
        assert ari[:, 0].tobytes() == ari[:, 1].tobytes()
        assert best_p.tolist() == [0.0] * len(splits)

    def test_columns_follow_an_unsorted_grid(self):
        repo = small_repo(6)
        grid = (0.0, 0.05, 0.03)
        splits = [split_repository(repo, 0.5, repeat, 2) for repeat in range(3)]
        ari, best_p = sweep_outlier_fraction(repo, splits, grid, range(2, 5), 2, seed=1)
        for j, p in enumerate(grid):
            alone, _best_p = sweep_outlier_fraction(repo, splits, (p,), range(2, 5), 2, seed=1)
            assert ari[:, j].tobytes() == alone[:, 0].tobytes(), p
        assert best_p.tolist() == best_p_oracle(grid, ari)

    def test_multi_split_call_equals_per_split_calls(self):
        repo = small_repo(6)
        splits = [split_repository(repo, frac, repeat, 2) for frac in (0.5, 0.7) for repeat in range(3)]
        grid = (0.0, 0.03, 0.05)
        ari, best_p = sweep_outlier_fraction(repo, splits, grid, range(2, 5), 2, seed=1)
        assert ari.shape == (len(splits), len(grid))
        for s, split in enumerate(splits):
            alone_ari, alone_best_p = sweep_outlier_fraction(repo, [split], grid, range(2, 5), 2, seed=1)
            assert alone_ari.tobytes() == ari[s : s + 1].tobytes()  # exact: same floats
            assert alone_best_p.tolist() == [best_p[s]]
        assert best_p.tolist() == best_p_oracle(grid, ari)
