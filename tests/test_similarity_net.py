"""Pair features, the small MLP, Adadelta and the majority baseline."""

import numpy as np
import pytest

from metaclust import similarity_net
from metaclust.data_model import Dataset, SynthSpec, covariance, make_synthetic_repository, normalize_dataset
from metaclust.similarity_net import (
    ADADELTA_EPS,
    ADADELTA_RHO,
    FEATURE_DIM,
    LAYER_DIMS,
    PAD_DIM,
    PairSet,
    adadelta_step,
    build_pair_features,
    concat_pair_sets,
    evaluate_bsf,
    init_mlp,
    majority_baseline,
    nll_loss_and_grads,
    predict_features,
    predict_pair,
    sample_pair_splits,
    swap_blocks,
    train_mlp,
)


def toy_dataset(rng, n=20, d=3):
    pts = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    return normalize_dataset(Dataset(id="toy", points=pts, labels=labels))


def pair_features_oracle(dataset, i, j):
    """The per-pair builder: (75 features, label) of one ordered pair, with the
    covariance block recomputed for each pair."""

    def pad10(x):
        out = np.zeros(PAD_DIM)
        out[: x.shape[0]] = x
        return out

    embedded = np.zeros((PAD_DIM, PAD_DIM))
    embedded[: dataset.d, : dataset.d] = covariance(dataset.points)
    features = np.concatenate(
        [pad10(dataset.points[i]), pad10(dataset.points[j]), embedded[np.triu_indices(PAD_DIM)]]
    )
    label = None if dataset.labels is None else int(dataset.labels[i] == dataset.labels[j])
    return features, label


def pair_set(features, labels, dataset_id="d"):
    """A PairSet over given feature rows, all from one dataset with dummy indices."""
    m = len(features)
    return PairSet(
        features=features, labels=labels, dataset_ids=np.full(m, dataset_id), i=np.zeros(m), j=np.ones(m)
    )


def one_pair(dataset, i, j):
    return build_pair_features(dataset, [i], [j])


class TestPairFeatures:
    def test_dimension_and_padding(self):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng, d=3)
        pairs = build_pair_features(ds, [0, 4], [1, 2])
        assert pairs.features.shape == (2, FEATURE_DIM) and len(pairs) == 2
        assert np.all(pairs.features[:, 3:PAD_DIM] == 0.0)  # coord block 1 padding
        assert np.all(pairs.features[:, PAD_DIM + 3 : 2 * PAD_DIM] == 0.0)  # block 2

    def test_covariance_block_embedding(self):
        rng = np.random.default_rng(1)
        ds = toy_dataset(rng, d=3)
        cov_block = one_pair(ds, 0, 1).features[0, 2 * PAD_DIM :]
        assert cov_block.shape == (55,)
        # entries of the 10x10 upper triangle outside the leading 3x3 are zero
        full = np.zeros((PAD_DIM, PAD_DIM))
        iu = np.triu_indices(PAD_DIM)
        full[iu] = cov_block
        assert np.all(full[3:, :] == 0.0) and np.all(full[:, 3:] == 0.0)
        centered = ds.points - ds.points.mean(axis=0)
        cov = centered.T @ centered / ds.n
        assert full[:3, :3] == pytest.approx(np.triu(cov), abs=1e-12)

    def test_covariance_shared_across_pairs(self):
        rng = np.random.default_rng(2)
        ds = toy_dataset(rng)
        cov = build_pair_features(ds, [0, 5, 3], [1, 9, 0]).features[:, 2 * PAD_DIM :]
        assert np.array_equal(cov[0], cov[1]) and np.array_equal(cov[0], cov[2])

    def test_swap_exchanges_coordinate_blocks_only(self):
        rng = np.random.default_rng(3)
        ds = toy_dataset(rng)
        fwd = build_pair_features(ds, [2, 0], [7, 5])
        rev = build_pair_features(ds, [7, 5], [2, 0])
        assert np.array_equal(swap_blocks(fwd.features), rev.features)
        assert np.array_equal(swap_blocks(fwd.features[0]), rev.features[0])  # one row

    def test_labels(self):
        pts = np.array([[0.0], [0.1], [5.0], [5.1]])
        ds = Dataset(id="l", points=pts, labels=np.array([0, 0, 1, 1]))
        pairs = build_pair_features(ds, [0, 0], [1, 2])
        assert pairs.labels.tolist() == [1, 0]

    def test_wide_dataset_rejected(self):
        ds = Dataset(id="w", points=np.zeros((3, 11)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            one_pair(ds, 0, 1)

    def test_identical_indices_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            build_pair_features(toy_dataset(rng), [0, 3], [1, 3])

    def test_malformed_pair_set_rejected(self):
        features = np.zeros((2, FEATURE_DIM))
        features[1, 30] = np.nan
        with pytest.raises(ValueError):
            pair_set(features, [0, 1])  # non-finite feature
        with pytest.raises(ValueError):
            pair_set(np.zeros((2, FEATURE_DIM - 1)), [0, 1])  # wrong width
        with pytest.raises(ValueError):
            pair_set(np.zeros((2, FEATURE_DIM)), [0, 1, 1])  # one label too many

    def test_arrays_read_only(self):
        pairs = build_pair_features(toy_dataset(np.random.default_rng(5)), [0], [1])
        for arr in (pairs.features, pairs.labels, pairs.dataset_ids, pairs.i, pairs.j):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    @pytest.mark.parametrize("d", range(1, PAD_DIM + 1))
    @pytest.mark.parametrize("labeled", [True, False])
    def test_matches_per_pair_oracle_exactly(self, d, labeled):
        rng = np.random.default_rng(100 + d)
        ds = toy_dataset(rng, n=15, d=d)
        if not labeled:
            ds = Dataset(id=ds.id, points=ds.points)
        rows_i = rng.integers(0, ds.n, size=40)
        rows_j = (rows_i + rng.integers(1, ds.n, size=40)) % ds.n
        # every pair in both orders
        rows_i, rows_j = np.concatenate([rows_i, rows_j]), np.concatenate([rows_j, rows_i])
        pairs = build_pair_features(ds, rows_i, rows_j)
        assert (pairs.labels is None) == (not labeled)
        for t, (i, j) in enumerate(zip(rows_i, rows_j)):
            features, label = pair_features_oracle(ds, i, j)
            assert np.all(pairs.features[t] == features)
            assert label == (None if pairs.labels is None else pairs.labels[t])
            assert (pairs.i[t], pairs.j[t], pairs.dataset_ids[t]) == (i, j, ds.id)


class TestSplits:
    def repo(self, n=8, seed=21):
        return make_synthetic_repository(
            SynthSpec(n_problems=n, n_points=60, n_clusters=(2, 3), seed=seed)
        )

    def test_triple_well_formed(self):
        split = sample_pair_splits(self.repo(), seed=1, max_pairs=50)
        assert len(split.meta_train) and len(split.meta_it) and len(split.meta_et)
        assert len(split.meta_train) % 2 == 0  # augmented with swapped copies

    def test_augmentation_doubles(self):
        split = sample_pair_splits(self.repo(), seed=1, max_pairs=50)
        train = split.meta_train
        assert np.array_equal(train.i[0::2], train.j[1::2]) and np.array_equal(train.j[0::2], train.i[1::2])
        assert np.array_equal(swap_blocks(train.features[0::2]), train.features[1::2])
        assert np.array_equal(train.labels[0::2], train.labels[1::2])
        assert np.array_equal(train.dataset_ids[0::2], train.dataset_ids[1::2])

    def test_train_and_it_halves_disjoint(self):
        split = sample_pair_splits(self.repo(), seed=2, max_pairs=80)
        train, it = split.meta_train, split.meta_it
        for ds_id in set(it.dataset_ids):
            in_train = train.dataset_ids == ds_id
            in_it = it.dataset_ids == ds_id
            train_rows = set(train.i[in_train]) | set(train.j[in_train])
            it_rows = set(it.i[in_it]) | set(it.j[in_it])
            assert not (train_rows & it_rows)

    def test_et_datasets_absent_from_training(self):
        split = sample_pair_splits(self.repo(), seed=3, max_pairs=50)
        assert not (set(split.meta_train.dataset_ids) & set(split.meta_et.dataset_ids))

    def test_oversize_datasets_excluded(self):
        # every problem has 60 points, so a 10-example cap disqualifies all
        with pytest.raises(ValueError):
            sample_pair_splits(self.repo(), seed=1, max_pairs=50, max_examples=10)

    def test_deterministic(self):
        a = sample_pair_splits(self.repo(), seed=5, max_pairs=40)
        b = sample_pair_splits(self.repo(), seed=5, max_pairs=40)
        for name in ("meta_train", "meta_it", "meta_et"):
            pa, pb = getattr(a, name), getattr(b, name)
            for field in ("features", "labels", "dataset_ids", "i", "j"):
                assert np.array_equal(getattr(pa, field), getattr(pb, field))

    def test_one_feature_build_per_dataset_and_set(self, monkeypatch):
        calls = []
        real = similarity_net.build_pair_features

        def counted(dataset, rows_i, rows_j):
            calls.append((dataset.id, len(rows_i)))
            return real(dataset, rows_i, rows_j)

        monkeypatch.setattr(similarity_net, "build_pair_features", counted)
        split = sample_pair_splits(self.repo(), seed=4, max_pairs=50)
        train_ids = set(split.meta_train.dataset_ids)
        it_ids = set(split.meta_it.dataset_ids)
        et_ids = set(split.meta_et.dataset_ids)
        assert len(calls) == len(train_ids) + len(it_ids) + len(et_ids)
        assert {ds_id for ds_id, _m in calls} == train_ids | it_ids | et_ids
        assert all(m > 0 for _ds_id, m in calls)
        assert sum(m for _ds_id, m in calls) == len(split.meta_train) // 2 + len(split.meta_it) + len(split.meta_et)


class TestMlp:
    def test_layer_dims(self):
        model = init_mlp(seed=0)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(75, 100), (100, 50), (50, 25), (25, 12), (12, 2)]
        assert LAYER_DIMS == (75, 100, 50, 25, 12, 2)

    def test_log_softmax_normalized(self):
        rng = np.random.default_rng(5)
        model = init_mlp(seed=1)
        x = rng.standard_normal((20, FEATURE_DIM))
        log_probs = model.forward(x)
        assert np.abs(np.exp(log_probs).sum(axis=1) - 1.0).max() <= 1e-9

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        model = init_mlp(seed=2)
        x = rng.standard_normal((10, FEATURE_DIM))
        y = rng.integers(0, 2, size=10)
        _loss, (grads_w, grads_b) = nll_loss_and_grads(model, x, y)
        h = 1e-5
        worst = 0.0
        for layer in range(len(model.weights)):
            for arr, grad in ((model.weights[layer], grads_w[layer]), (model.biases[layer], grads_b[layer])):
                flat = arr.reshape(-1)
                idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
                for idx in idxs:
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _ = nll_loss_and_grads(model, x, y)
                    flat[idx] = orig - h
                    lm, _ = nll_loss_and_grads(model, x, y)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    g = grad.reshape(-1)[idx]
                    denom = max(abs(fd), abs(g), 1e-8)
                    worst = max(worst, abs(fd - g) / denom)
        assert worst < 1e-4

    def test_training_deterministic(self):
        rng = np.random.default_rng(7)
        pairs = pair_set(rng.standard_normal((60, FEATURE_DIM)), rng.integers(0, 2, size=60))
        a = train_mlp(pairs, epochs=2, batch=16, seed=9)
        b = train_mlp(pairs, epochs=2, batch=16, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_training_reduces_loss_on_separable_task(self):
        rng = np.random.default_rng(8)
        n = 400
        x = np.zeros((n, FEATURE_DIM))
        y = rng.integers(0, 2, size=n)
        x[:, 0] = y * 2.0 - 1.0 + 0.05 * rng.standard_normal(n)
        pairs = pair_set(x, y)
        model0 = init_mlp(seed=4)
        loss0, _ = nll_loss_and_grads(model0, x, y)
        model = train_mlp(pairs, epochs=10, batch=50, seed=4)
        loss1, _ = nll_loss_and_grads(model, x, y)
        assert loss1 < loss0


class TestAdadelta:
    def test_matches_scalar_reference(self):
        # hand-rolled scalar Adadelta on f(w) = 0.5 w^2 for 20 steps
        w_ref = 3.0
        eg = 0.0
        eu = 0.0
        param = np.array([3.0])
        acc_g = np.zeros(1)
        acc_u = np.zeros(1)
        for _ in range(20):
            g = w_ref  # df/dw = w
            eg = ADADELTA_RHO * eg + (1 - ADADELTA_RHO) * g * g
            delta = -np.sqrt(eu + ADADELTA_EPS) / np.sqrt(eg + ADADELTA_EPS) * g
            eu = ADADELTA_RHO * eu + (1 - ADADELTA_RHO) * delta * delta
            w_ref = w_ref + delta

            adadelta_step(param, np.array([param[0]]), acc_g, acc_u)
            assert abs(param[0] - w_ref) <= 1e-12

    def test_step_moves_against_gradient(self):
        param = np.array([1.0])
        delta = adadelta_step(param, np.array([2.0]), np.zeros(1), np.zeros(1))
        assert delta[0] < 0.0 and param[0] < 1.0


class TestPrediction:
    def test_decision_symmetry(self):
        rng = np.random.default_rng(9)
        ds = toy_dataset(rng)
        model = init_mlp(seed=5)
        for _ in range(10):
            i, j = rng.choice(ds.n, size=2, replace=False)
            pi, di = predict_pair(model, ds, int(i), int(j))
            pj, dj = predict_pair(model, ds, int(j), int(i))
            assert pi == pj and di == dj

    def test_half_probability_is_different(self):
        # a zero-weight model outputs exactly p = 0.5, decided as "different"
        model = init_mlp(seed=6)
        for w in model.weights:
            w[:] = 0.0
        p, decision = predict_features(model, np.zeros((1, FEATURE_DIM)))
        assert p[0] == 0.5 and not decision[0]


class TestMajorityBaseline:
    def make(self, labels, dataset_id="a"):
        return pair_set(np.zeros((len(labels), FEATURE_DIM)), labels, dataset_id)

    def test_seventy_percent_same(self):
        pairs = self.make([1] * 7 + [0] * 3)
        assert majority_baseline(pairs) == pytest.approx(0.7)

    def test_all_same(self):
        assert majority_baseline(self.make([1] * 5)) == 1.0

    def test_balanced(self):
        assert majority_baseline(self.make([0, 1] * 4)) == 0.5

    def test_mean_over_problems(self):
        pairs = concat_pair_sets([self.make([1] * 4, "a"), self.make([0] * 9 + [1], "b")])
        assert majority_baseline(pairs) == pytest.approx((1.0 + 0.9) / 2)

    def test_interleaved_problems(self):
        pairs = concat_pair_sets([self.make([1, 1], "a"), self.make([0], "b"), self.make([1, 0], "a")])
        assert majority_baseline(pairs) == pytest.approx((0.75 + 1.0) / 2)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            majority_baseline(pair_set(np.zeros((2, FEATURE_DIM)), None))


class TestEvaluateBsf:
    def test_untrained_near_chance_and_fields(self):
        repo = make_synthetic_repository(
            SynthSpec(n_problems=8, n_points=60, n_clusters=(2, 3), seed=33)
        )
        split = sample_pair_splits(repo, seed=2, max_pairs=60)
        model = init_mlp(seed=0)
        ev = evaluate_bsf(model, split)
        for field in (ev.acc_meta_it, ev.acc_meta_et, ev.acc_majority_it, ev.acc_majority_et):
            assert 0.0 <= field <= 1.0
        assert ev.acc_majority_it >= 0.5 and ev.acc_majority_et >= 0.5
