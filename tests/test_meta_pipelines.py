"""Algorithm-selection, meta-k and outlier-sweep pipeline mechanics."""

import numpy as np
import pytest

from metaclust import meta_pipelines
from metaclust.clusterers import ClustererSpec
from metaclust.data_model import (
    Dataset,
    MetaRepository,
    Partition,
    SplitSpec,
    SynthSpec,
    labels_to_partition,
    make_synthetic_repository,
)
from metaclust.meta_pipelines import (
    MetaKModel,
    RunRecord,
    baseline_k_silhouette,
    baseline_record,
    best_fit_k,
    evaluate_meta_k,
    generate_runs,
    meta_selected_record,
    predict_k,
    repo_runs,
    select_algorithm,
    sweep_outlier_fraction,
    train_algo_select,
    train_meta_k,
)
from metaclust.regression import LinearModel


def record(k, run, sil, ari=None):
    return RunRecord(
        dataset_id="d", k=k, run_index=run, silhouette=sil, ari=ari,
        partition=Partition(2, ((0,), (1,))),
    )


def small_repo(n_problems=6, seed=3):
    return make_synthetic_repository(
        SynthSpec(n_problems=n_problems, n_points=40, n_clusters=(2, 3), seed=seed)
    )


class TestGenerateRuns:
    def test_record_count_and_fields(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        records = generate_runs(ds, truth, range(2, 11), 10, seed=1)
        assert len(records) == 90
        assert all(np.isfinite(r.silhouette) and r.ari is not None for r in records)

    def test_unlabeled_has_no_ari(self):
        repo = small_repo(1)
        ds, _ = repo.problems[0]
        records = generate_runs(ds.without_labels(), None, range(2, 5), 2, seed=1)
        assert all(r.ari is None for r in records)

    def test_deterministic(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        a = generate_runs(ds, truth, range(2, 5), 3, seed=5)
        b = generate_runs(ds, truth, range(2, 5), 3, seed=5)
        assert a == b

    def test_pruned_partition_covers_everything(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        records = generate_runs(ds, truth, range(2, 4), 2, seed=2, theta=0.05)
        for r in records:
            assert r.partition.n_covered == ds.n

    def test_theta_zero_equals_plain(self):
        repo = small_repo(1)
        ds, truth = repo.problems[0]
        plain = generate_runs(ds, truth, range(2, 5), 2, seed=8)
        zero = generate_runs(ds, truth, range(2, 5), 2, seed=8, theta=0.0)
        assert plain == zero

    def test_too_small_k_range_rejected(self):
        ds = Dataset(id="t", points=np.arange(6.0).reshape(-1, 1))
        with pytest.raises(ValueError):
            generate_runs(ds, None, range(2, 11), 1, seed=0)

    def test_worked_far_point_reattached_to_nearest_center(self):
        # theta = 0.2 prunes the one point furthest from the mean (100); the
        # inliers split {0, 1} | {10, 11}, and 100 joins the nearer center 10.5.
        ds = Dataset(id="w", points=np.array([[0.0], [1.0], [10.0], [11.0], [100.0]]), labels=[0, 0, 1, 1, 1])
        truth = labels_to_partition(ds.labels)
        records = generate_runs(ds, truth, (2,), 3, seed=0, theta=0.2)
        for r in records:
            assert set(r.partition.parts) == {(0, 1), (2, 3, 4)}
            assert r.ari == 1.0

    def test_planted_outlier_pruned_at_true_k(self):
        rng = np.random.default_rng(18)
        labels = np.repeat([0, 1], 25)
        pts = rng.standard_normal((50, 2)) + 10.0 * labels[:, None]
        pts[7] = [500.0, -500.0]
        ds = Dataset(id="o", points=pts, labels=labels)
        records = generate_runs(ds, labels_to_partition(labels), (2,), 5, seed=2, theta=1 / 50)
        assert all(r.ari >= 0.9 for r in records)

    def test_pruning_below_max_k_rejected(self):
        ds = Dataset(id="t", points=np.arange(8.0).reshape(-1, 1))
        generate_runs(ds, None, (2, 3, 4), 1, seed=0)  # 8 points support k = 4
        with pytest.raises(ValueError):
            generate_runs(ds, None, (2, 3, 4), 1, seed=0, theta=0.8)  # 2 points left


class TestSelectionRules:
    def test_best_fit_k_argmax(self):
        records = [record(2, 0, 0.1, 0.3), record(3, 0, 0.2, 0.9), record(4, 0, 0.9, 0.4)]
        assert best_fit_k(records) == 3

    def test_best_fit_k_tie_smallest(self):
        records = [record(5, 0, 0.1, 0.7), record(3, 0, 0.2, 0.7), record(4, 0, 0.3, 0.2)]
        assert best_fit_k(records) == 3

    def test_baseline_argmax_silhouette(self):
        records = [record(2, 0, 0.1), record(7, 3, 0.95), record(4, 0, 0.5)]
        assert baseline_k_silhouette(records) == 7
        assert baseline_record(records).run_index == 3

    def test_baseline_tie_smallest_k_then_run(self):
        records = [record(4, 1, 0.5), record(4, 0, 0.5), record(3, 2, 0.5)]
        best = baseline_record(records)
        assert (best.k, best.run_index) == (3, 2)


class TestMetaKModel:
    def identity_model(self, k_range=range(2, 11)):
        return MetaKModel(models=tuple(
            (k, LinearModel(weights=np.array([1.0]), intercept=0.0)) for k in k_range
        ))

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(0)
        per_problem = []
        for _ in range(4):
            records = []
            for k in range(2, 11):
                for run in range(3):
                    sil = float(rng.uniform(-0.5, 1.0))
                    records.append(record(k, run, sil, 2.0 * sil - 0.1))
            per_problem.append(records)
        model = train_meta_k(per_problem)
        for k in range(2, 11):
            m = model.model_for(k)
            assert m.weights[0] == pytest.approx(2.0, abs=1e-9)
            assert m.intercept == pytest.approx(-0.1, abs=1e-9)

    def test_model_count(self):
        model = self.identity_model()
        assert len(model.models) == 9
        assert model.k_range == tuple(range(2, 11))

    def test_missing_k_rejected(self):
        with pytest.raises(ValueError):
            train_meta_k([[record(2, 0, 0.5, 0.5)]], k_range=(2, 3))

    def test_identity_model_reduces_to_baseline(self):
        rng = np.random.default_rng(1)
        model = self.identity_model()
        for _ in range(20):
            records = [
                record(k, run, float(rng.uniform(-1, 1)), float(rng.uniform(0, 1)))
                for k in range(2, 11)
                for run in range(3)
            ]
            assert predict_k(model, records) == baseline_k_silhouette(records)

    def test_predict_k_tie_smallest(self):
        model = self.identity_model((2, 3))
        records = [record(3, 0, 0.5), record(2, 0, 0.5)]
        assert predict_k(MetaKModel(models=model.models), records) == 2

    def test_meta_selected_record_uses_predicted_order(self):
        # model for k=2 inverts silhouette, so the low-silhouette run wins
        models = (
            (2, LinearModel(weights=np.array([-1.0]), intercept=0.0)),
            (3, LinearModel(weights=np.array([0.0]), intercept=-10.0)),
        )
        model = MetaKModel(models=models)
        records = [record(2, 0, 0.9, 0.1), record(2, 1, 0.1, 0.8), record(3, 0, 0.99, 0.2)]
        chosen = meta_selected_record(model, records)
        assert (chosen.k, chosen.run_index) == (2, 1)


class TestEvaluateMetaK:
    def test_perfect_model_zero_rmse(self):
        repo = small_repo(6)
        records = repo_runs(repo, range(2, 6), 3, seed=4)
        model = train_meta_k(records, range(2, 6))
        ev = evaluate_meta_k(model, records)
        assert ev.rmse_meta >= 0.0 and ev.rmse_baseline >= 0.0
        assert 0.0 <= ev.mean_ari_meta <= 1.0

    def test_baseline_reduction(self):
        repo = small_repo(4)
        records = repo_runs(repo, range(2, 6), 3, seed=4)
        identity = MetaKModel(models=tuple(
            (k, LinearModel(weights=np.array([1.0]), intercept=0.0)) for k in range(2, 6)
        ))
        ev = evaluate_meta_k(identity, records)
        assert ev.rmse_meta == ev.rmse_baseline
        assert ev.mean_ari_meta == ev.mean_ari_baseline

    def test_reported_ari_matches_stored_partitions(self):
        from metaclust.metrics import adjusted_rand_index

        repo = small_repo(3)
        records = repo_runs(repo, range(2, 5), 2, seed=9)
        model = train_meta_k(records, range(2, 5))
        total = 0.0
        for (ds, truth), recs in zip(repo.problems, records):
            chosen = meta_selected_record(model, recs)
            total += adjusted_rand_index(truth.n_items, truth, chosen.partition)
        ev = evaluate_meta_k(model, records)
        assert ev.mean_ari_meta == pytest.approx(total / 3, abs=1e-12)


class TestAlgoSelect:
    def test_intercept_separates_members(self):
        repo = small_repo(8)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=3), ClustererSpec(kind="agglo_single", k=2)]
        model = train_algo_select(specs, repo.problems, seed=1)
        assert len(model.members) == 2
        name, partition, scores, partitions = select_algorithm(model, repo.problems[0][0].without_labels())
        assert name in scores and partition.is_valid()
        assert partitions[name] == partition

    def test_single_member_family(self):
        repo = small_repo(3)
        model = train_algo_select([ClustererSpec(kind="agglo_ward", k=2)], repo.problems, seed=0)
        name, _, _, _ = select_algorithm(model, repo.problems[0][0].without_labels())
        assert name == "agglo_ward"

    def test_failed_member_rows_flagged(self):
        repo = small_repo(3)
        specs = [
            ClustererSpec(kind="kmeans", k=2, restarts=2),
            ClustererSpec(kind="agglo_ward", k=50),  # k > n on every problem
        ]
        model = train_algo_select(specs, repo.problems, seed=0)
        assert model.n_failed_rows == 3
        name, _, scores, partitions = select_algorithm(model, repo.problems[0][0].without_labels())
        assert name == "kmeans"
        assert list(scores) == list(partitions) == ["kmeans"]

    def test_partitions_include_member_without_features(self, monkeypatch):
        repo = small_repo(3)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=2), ClustererSpec(kind="agglo_single", k=2)]
        model = train_algo_select(specs, repo.problems, seed=0)
        real = meta_pipelines.phi_features
        calls = []

        def second_fails(dataset, partition):
            calls.append(partition)
            if len(calls) == 2:
                raise ValueError("no features for this partition")
            return real(dataset, partition)

        monkeypatch.setattr(meta_pipelines, "phi_features", second_fails)
        name, _, scores, partitions = select_algorithm(model, repo.problems[0][0].without_labels())
        assert name == "kmeans" and list(scores) == ["kmeans"]
        assert list(partitions) == ["kmeans", "agglo_single"]
        assert partitions["agglo_single"] == calls[1]

    def test_evaluate_runs_each_member_once_per_test_problem(self, monkeypatch):
        from metaclust.clusterers import run_spec
        from metaclust.metrics import adjusted_rand_index

        repo = small_repo(6)
        specs = [
            ClustererSpec(kind="kmeans", k=2, restarts=2),
            ClustererSpec(kind="agglo_average", k=2),
            ClustererSpec(kind="agglo_ward", k=50),  # fails: k > n
        ]
        model = train_algo_select(specs, repo.problems[:3], seed=2)
        test = repo.problems[3:]
        calls = []

        def counted(spec, points):
            calls.append(spec.name)
            return run_spec(spec, points)

        monkeypatch.setattr(meta_pipelines, "run_spec", counted)
        _meta, per_member = meta_pipelines.evaluate_algo_select(model, test)
        assert len(calls) == len(model.members) * len(test)
        # Same numbers as running every member again on each test problem.
        for spec, _lm in model.members:
            total = 0.0
            for ds, truth in test:
                try:
                    total += adjusted_rand_index(truth.n_items, truth, run_spec(spec, ds.points).partition)
                except ValueError:
                    pass
            assert per_member[spec.name] == total / len(test)
        assert per_member["agglo_ward"] == 0.0

    def test_unexpected_member_error_propagates(self, monkeypatch):
        repo = small_repo(3)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=2)]
        model = train_algo_select(specs, repo.problems, seed=0)

        def broken(spec, points):
            raise TypeError("not a documented member failure")

        monkeypatch.setattr(meta_pipelines, "run_spec", broken)
        with pytest.raises(TypeError):
            train_algo_select(specs, repo.problems, seed=0)
        with pytest.raises(TypeError):
            select_algorithm(model, repo.problems[0][0].without_labels())

    def test_deterministic(self):
        repo = small_repo(4)
        specs = [ClustererSpec(kind="kmeans", k=2, restarts=2)]
        a = train_algo_select(specs, repo.problems, seed=7)
        b = train_algo_select(specs, repo.problems, seed=7)
        for (sa, ma), (sb, mb) in zip(a.members, b.members):
            assert sa == sb
            assert np.array_equal(ma.weights, mb.weights) and ma.intercept == mb.intercept


class TestSweep:
    def test_p_zero_column_reproduces_plain_pipeline(self):
        repo = small_repo(6)
        split = SplitSpec(0.5, 0, 2)
        (res,) = sweep_outlier_fraction(repo, [split], (0.0, 0.02), range(2, 5), 3, seed=6)
        from metaclust.data_model import split_repository

        train_idx, test_idx = split_repository(repo, split)
        records = repo_runs(repo, range(2, 5), 3, seed=6)
        model = train_meta_k([records[i] for i in train_idx], range(2, 5))
        ev = evaluate_meta_k(model, [records[i] for i in test_idx])
        assert dict(res.per_p)[0.0] == ev.mean_ari_meta  # exact, not approximate

    def test_best_p_tie_breaks_smaller(self):
        repo = small_repo(6)
        (res,) = sweep_outlier_fraction(repo, [SplitSpec(0.5, 0, 2)], (0.0,), range(2, 5), 2, seed=1)
        assert res.best_p == 0.0

    def test_per_p_order_preserved(self):
        repo = small_repo(6)
        grid = (0.0, 0.03, 0.01)
        (res,) = sweep_outlier_fraction(repo, [SplitSpec(0.5, 0, 2)], grid, range(2, 5), 2, seed=1)
        assert tuple(p for p, _ in res.per_p) == grid

    def test_multi_split_call_equals_per_split_calls(self):
        repo = small_repo(6)
        splits = [SplitSpec(frac, repeat, 2) for frac in (0.5, 0.7) for repeat in range(3)]
        grid = (0.0, 0.03, 0.05)
        together = sweep_outlier_fraction(repo, splits, grid, range(2, 5), 2, seed=1)
        alone = [sweep_outlier_fraction(repo, [split], grid, range(2, 5), 2, seed=1)[0] for split in splits]
        assert together == alone  # exact: same floats, same best_p
