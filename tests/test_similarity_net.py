"""Pair features, the small MLP, Adadelta and the majority baseline."""

import hashlib
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import pair_features, run_python_child, skip_unless_pinned_numpy_and_blas
from metaclust import similarity_net
from metaclust.data_model import (
    DataError,
    Dataset,
    MetaRepository,
    SynthSpec,
    covariance,
    derive_seed,
    labels_to_partition,
    make_synthetic_repository,
    normalize_dataset,
)
from metaclust.similarity_net import (
    ADADELTA_EPS,
    ADADELTA_RHO,
    FEATURE_DIM,
    LAYER_DIMS,
    PAD_DIM,
    PARAM_SHAPES,
    PREDICT_ROWS,
    MlpModel,
    PairSet,
    adadelta_step,
    build_pair_features,
    evaluate_bsf,
    init_mlp,
    majority_baseline,
    nll_loss_and_grads,
    predict_features,
    sample_pair_splits,
    train_mlp,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def toy_dataset(rng, n=20, d=3):
    """A normalized two-class problem: (Dataset, truth Partition)."""
    pts = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    return normalize_dataset(Dataset(id="toy", points=pts)), labels_to_partition(labels)


def pair_features_oracle(dataset, truth, i, j):
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
    return features, int(truth.labels[i] == truth.labels[j])


def swap_blocks(features):
    """Feature rows with the two coordinate blocks exchanged: the reversed pairs."""
    f = np.asarray(features, dtype=float)
    return np.concatenate([f[..., PAD_DIM : 2 * PAD_DIM], f[..., :PAD_DIM], f[..., 2 * PAD_DIM :]], axis=-1)


def pair_set(features, labels, dataset_ids=0):
    """A PairSet whose feature rows are the given (m, 75) rows: pair t is points
    rows (t, m + t), holding its two coordinate blocks, of block t, holding its
    covariance features."""
    features = np.asarray(features, dtype=float)
    m = len(features)
    return PairSet(
        points=np.concatenate([features[:, :PAD_DIM], features[:, PAD_DIM : 2 * PAD_DIM]]),
        covariances=features[:, 2 * PAD_DIM :],
        rows_i=np.arange(m),
        rows_j=np.arange(m, 2 * m),
        blocks=np.arange(m),
        labels=labels,
        dataset_ids=np.broadcast_to(dataset_ids, m),
    )


def pair_set_oracle(problems, picks):
    """The per-dataset build kept as an exact oracle: (features, labels,
    dataset_ids) of one piece per non-empty pick, stacked with ``np.concatenate``."""
    pieces = []
    for p, rows_i, rows_j in picks:
        if len(rows_i) == 0:
            continue
        dataset, truth = problems[p]
        features = np.zeros((len(rows_i), FEATURE_DIM))
        features[:, : dataset.d] = dataset.points[rows_i]
        features[:, PAD_DIM : PAD_DIM + dataset.d] = dataset.points[rows_j]
        features[:, 2 * PAD_DIM :] = similarity_net._covariance_features(dataset.points)
        labels = (truth.labels[rows_i] == truth.labels[rows_j]).astype(int)
        pieces.append((features, labels, np.full(len(rows_i), p)))
    return tuple(np.concatenate(arrays) for arrays in zip(*pieces))


def sample_pair_splits_oracle(repo, seed, max_pairs):
    """The per-(dataset, set) sampler kept as an exact oracle: the same draws in
    the same order, each set assembled by ``pair_set_oracle``."""
    qualifying = [p for p, (ds, _truth) in enumerate(repo.problems) if ds.n <= 1000 and ds.d <= PAD_DIM]
    for attempt in range(similarity_net.MAX_CATEGORY_RETRIES):
        rng = np.random.default_rng(derive_seed(repo.seed, seed, attempt))
        categories = rng.integers(0, 2, size=len(qualifying))
        if 0 in categories and 1 in categories:
            break

    def draw(rows):
        m = len(rows)
        universe = m * (m - 1) // 2
        if universe == 0:
            return [], []
        all_i, all_j = np.triu_indices(m, 1)
        chosen = rng.choice(universe, size=max_pairs, replace=universe < max_pairs)
        return rows[all_i[chosen]], rows[all_j[chosen]]

    problems = {}
    picks = ([], [], [])
    for p, cat in zip(qualifying, categories):
        ds, truth = repo.problems[p]
        problems[p] = (normalize_dataset(ds), truth)
        perm = rng.permutation(ds.n)
        if cat == 0:
            half = min(ds.n // 2, max_pairs)
            picks[0].append((p, *draw(perm[:half])))
            picks[1].append((p, *draw(perm[half : half + max_pairs])))
        else:
            picks[2].append((p, *draw(perm[:max_pairs])))
    return [pair_set_oracle(problems, set_picks) for set_picks in picks]


def majority_baseline_oracle(pairs):
    """The first-appearance grouping of ``majority_baseline``, kept as an exact oracle."""
    _ids, first, problem = np.unique(pairs.dataset_ids, return_index=True, return_inverse=True)
    n_same = np.bincount(problem, weights=pairs.labels)
    n_pairs = np.bincount(problem)
    accs = []
    for t in np.argsort(first):
        frac_same = int(n_same[t]) / int(n_pairs[t])
        accs.append(max(frac_same, 1.0 - frac_same))
    return sum(accs) / len(accs)


def mixed_repo(seed):
    """Problems of 2 to 1001 points and 1 to 11 features; two of them do not qualify."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 1), (40, 10), (2, 2), (30, 11), (60, 1), (3, 3), (1001, 2), (12, 10), (5, 5)]
    problems = []
    for t, (n, d) in enumerate(shapes):
        labels = np.arange(n) % 2
        points = rng.standard_normal((n, d)) + 4.0 * labels[:, None]
        problems.append((Dataset(id=f"m{t}", points=points), labels_to_partition(labels)))
    return MetaRepository(problems=tuple(problems), seed=seed)


ALL_COLUMNS = np.arange(FEATURE_DIM)  # the columns of full-width training


def log_probs_reference(model, x, activations=None):
    """The allocating forward pass, kept as the exact oracle of ``_log_probs``:
    a fresh array per layer; appends each hidden layer to ``activations`` if given."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if activations is not None:
            activations.append(h)
    z = h @ model.weights[-1] + model.biases[-1]
    return z - similarity_net._logsumexp(z)


def nll_loss_and_grads_reference(model, x, y):
    """The allocating backward pass, kept as the exact oracle of
    ``nll_loss_and_grads``: (loss, (grads_w, grads_b)), a fresh array each."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    batch = x.shape[0]

    activations = [x]
    log_probs = log_probs_reference(model, x, activations)
    loss = -float(log_probs[np.arange(batch), y].mean())

    delta = np.exp(log_probs)
    delta[np.arange(batch), y] -= 1.0
    delta /= batch
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (activations[layer] > 0)
    return loss, (grads_w, grads_b)


def adadelta_step_reference(param, grad, acc_grad, acc_update):
    """The allocating Adadelta update, kept as the exact oracle of ``adadelta_step``."""
    acc_grad *= ADADELTA_RHO
    acc_grad += (1.0 - ADADELTA_RHO) * grad * grad
    delta = -np.sqrt(acc_update + ADADELTA_EPS) / np.sqrt(acc_grad + ADADELTA_EPS) * grad
    acc_update *= ADADELTA_RHO
    acc_update += (1.0 - ADADELTA_RHO) * delta * delta
    param += delta
    return delta


def train_mlp_oracle(meta_train, epochs, batch, seed, columns=None):
    """The training path of the nested-parameter model, kept as an exact oracle.

    Meta-train is augmented with an interleaved reversed copy of every pair
    (rows 2t and 2t+1 are pair t and its block-swapped order, both with pair
    t's label), and each batch makes one Adadelta step per parameter array
    with per-array accumulators, through the allocating reference kernel
    (``nll_loss_and_grads_reference``, ``adadelta_step_reference``).  The net reads only the feature ``columns``
    (by default the set's active columns, as ``train_mlp`` does; all 75 for
    full-width training): its inputs and first weight matrix are cut to
    them, and the first-layer rows of the other columns are returned with
    their initial values.  Returns the parameters flattened in
    ``MlpModel.params`` order.
    """
    if columns is None:
        columns = similarity_net._active_columns(meta_train)
    m = len(meta_train)
    full = np.empty((2 * m, FEATURE_DIM))
    full[0::2] = pair_features(meta_train)
    full[1::2] = swap_blocks(full[0::2])
    x = full[:, columns]
    y = np.repeat(meta_train.labels, 2)

    init = init_mlp(seed)
    weights = [init.weights[0][columns]] + [w.copy() for w in init.weights[1:]]
    model = SimpleNamespace(weights=weights, biases=[b.copy() for b in init.biases])
    acc_grad = [[np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases]]
    acc_update = [[np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases]]
    for epoch in range(epochs):
        rng = np.random.default_rng(derive_seed(seed, 1 + epoch))
        order = rng.permutation(2 * m)
        for start in range(0, 2 * m, batch):
            idx = order[start : start + batch]
            _loss, (grads_w, grads_b) = nll_loss_and_grads_reference(model, x[idx], y[idx])
            for layer in range(len(model.weights)):
                adadelta_step_reference(model.weights[layer], grads_w[layer], acc_grad[0][layer], acc_update[0][layer])
                adadelta_step_reference(model.biases[layer], grads_b[layer], acc_grad[1][layer], acc_update[1][layer])

    first = init.weights[0].copy()
    first[columns] = model.weights[0]
    return np.concatenate([a.ravel() for a in [first] + model.weights[1:] + model.biases])


class TestPairFeatures:
    def test_dimension_and_padding(self):
        rng = np.random.default_rng(0)
        ds, truth = toy_dataset(rng, d=3)
        pairs = build_pair_features([(ds, truth)], [(0, [0, 4], [1, 2])])
        x = pair_features(pairs)
        assert x.shape == (2, FEATURE_DIM) and len(pairs) == 2
        assert np.all(x[:, 3:PAD_DIM] == 0.0)  # coord block 1 padding
        assert np.all(x[:, PAD_DIM + 3 : 2 * PAD_DIM] == 0.0)  # block 2

    def test_covariance_block_embedding(self):
        rng = np.random.default_rng(1)
        ds, truth = toy_dataset(rng, d=3)
        cov_block = pair_features(build_pair_features([(ds, truth)], [(0, [0], [1])]))[0, 2 * PAD_DIM :]
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
        ds, truth = toy_dataset(rng)
        cov = pair_features(build_pair_features([(ds, truth)], [(0, [0, 5, 3], [1, 9, 0])]))[:, 2 * PAD_DIM :]
        assert np.array_equal(cov[0], cov[1]) and np.array_equal(cov[0], cov[2])

    def test_swap_exchanges_coordinate_blocks_only(self):
        rng = np.random.default_rng(3)
        ds, truth = toy_dataset(rng)
        fwd = pair_features(build_pair_features([(ds, truth)], [(0, [2, 0], [7, 5])]))
        rev = pair_features(build_pair_features([(ds, truth)], [(0, [7, 5], [2, 0])]))
        assert np.array_equal(swap_blocks(fwd), rev)
        assert np.array_equal(swap_blocks(fwd[0]), rev[0])  # one row

    def test_labels(self):
        pts = np.array([[0.0], [0.1], [5.0], [5.1]])
        ds = Dataset(id="l", points=pts)
        pairs = build_pair_features([(ds, labels_to_partition([0, 0, 1, 1]))], [(0, [0, 0], [1, 2])])
        assert pairs.labels.tolist() == [1, 0]

    def test_wide_dataset_rejected(self):
        ds = Dataset(id="w", points=np.zeros((3, 11)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            build_pair_features([(ds, labels_to_partition([0, 1, 0]))], [(0, [0], [1])])

    def test_identical_indices_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            build_pair_features([toy_dataset(rng)], [(0, [0, 3], [1, 3])])

    def test_malformed_pair_set_rejected(self):
        assert np.array_equal(pair_features(pair_set(np.ones((2, FEATURE_DIM)), [0, 1])), np.ones((2, FEATURE_DIM)))
        for column in (3, 30):  # a point coordinate, a covariance feature
            features = np.zeros((2, FEATURE_DIM))
            features[1, column] = np.nan
            with pytest.raises(ValueError, match="finite"):
                pair_set(features, [0, 1])
        with pytest.raises(ValueError):
            pair_set(np.zeros((2, FEATURE_DIM - 1)), [0, 1])  # wrong covariance width
        with pytest.raises(ValueError, match="one entry per pair"):
            pair_set(np.zeros((2, FEATURE_DIM)), [0, 1, 1])  # one label too many
        fields = vars(pair_set(np.zeros((2, FEATURE_DIM)), [0, 1]))
        for name, bad in (("rows_i", [0, 4]), ("rows_j", [-1, 3]), ("blocks", [0, 2]), ("blocks", [-1, 1])):
            with pytest.raises(ValueError, match=f"{name} must index"):
                PairSet(**{**fields, name: bad})
        with pytest.raises(ValueError, match="one entry per pair"):
            PairSet(**{**fields, "dataset_ids": [[0, 0]]})

    def test_arrays_read_only(self):
        pairs = build_pair_features([toy_dataset(np.random.default_rng(5))], [(0, [0], [1])])
        stored = (pairs.points, pairs.covariances, pairs.rows_i, pairs.rows_j, pairs.blocks)
        for arr in (pairs.labels, pairs.dataset_ids, *stored):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_rows_outside_the_dataset_rejected(self):
        problems = {0: toy_dataset(np.random.default_rng(12), n=4)}
        for rows_i, rows_j in (([-1], [0]), ([0], [-1]), ([4], [0]), ([1, 2], [0, 4])):
            with pytest.raises(ValueError, match=r"pair rows must lie in \[0, 4\)"):
                build_pair_features(problems, [(0, rows_i, rows_j)])
        # -1 would wrap to point 3, so (-1, 3) would be a pair of one point that the i != j check misses
        with pytest.raises(ValueError, match="must lie in"):
            build_pair_features(problems, [(0, [-1], [3])])
        assert len(build_pair_features(problems, [(0, [3], [0])])) == 1

    def test_rows_index_their_own_block(self):
        # Every point of a two-dataset set is reached through its own block only.
        rng = np.random.default_rng(13)
        problems = {0: toy_dataset(rng, n=5, d=2), 4: toy_dataset(rng, n=7, d=3)}
        pairs = build_pair_features(problems, [(4, [6, 0], [1, 5]), (0, [4], [0])])
        assert pairs.points.shape == (12, PAD_DIM) and pairs.covariances.shape == (2, 55)
        assert pairs.rows_i.tolist() == [6, 0, 11] and pairs.rows_j.tolist() == [1, 5, 7]
        assert pairs.blocks.tolist() == [0, 0, 1] and pairs.dataset_ids.tolist() == [4, 4, 0]

    @pytest.mark.parametrize("d", range(1, PAD_DIM + 1))
    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_per_pair_oracle_exactly(self, d, normalized):
        rng = np.random.default_rng(100 + d)
        ds, truth = toy_dataset(rng, n=15, d=d)
        if not normalized:
            ds = Dataset(id=ds.id, points=ds.points * 7.0 + 3.0)  # a covariance block far from unit
        rows_i = rng.integers(0, ds.n, size=40)
        rows_j = (rows_i + rng.integers(1, ds.n, size=40)) % ds.n
        # every pair in both orders
        rows_i, rows_j = np.concatenate([rows_i, rows_j]), np.concatenate([rows_j, rows_i])
        pairs = build_pair_features([(ds, truth)], [(0, rows_i, rows_j)])
        rows = pair_features(pairs)
        for t, (i, j) in enumerate(zip(rows_i, rows_j)):
            features, label = pair_features_oracle(ds, truth, i, j)
            assert np.all(rows[t] == features)
            assert (pairs.labels[t], pairs.dataset_ids[t]) == (label, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_set_build_matches_per_dataset_oracle(self, seed):
        # Positions are non-contiguous; d = 1 and d = 10 occur; the first pick
        # is empty; rows are drawn with replacement, so pairs repeat.
        rng = np.random.default_rng(200 + seed)
        positions = np.sort(rng.choice(40, size=6, replace=False))
        dims = [1, PAD_DIM, *rng.integers(1, PAD_DIM + 1, size=4)]
        problems = {int(p): toy_dataset(rng, n=int(rng.integers(2, 30)), d=int(d)) for p, d in zip(positions, dims)}
        picks = []
        for t, (p, (ds, _truth)) in enumerate(problems.items()):
            m = 0 if t == 0 else int(rng.integers(1, 3 * ds.n))
            rows_i = rng.integers(0, ds.n, size=m)
            rows_j = (rows_i + rng.integers(1, ds.n, size=m)) % ds.n
            picks.append((p, rows_i, rows_j))
        pairs = build_pair_features(problems, picks)
        features, labels, dataset_ids = pair_set_oracle(problems, picks)
        assert np.array_equal(pair_features(pairs), features)
        assert np.array_equal(pairs.labels, labels)
        assert np.array_equal(pairs.dataset_ids, dataset_ids)
        assert pair_features(pairs).dtype == np.float64 and pairs.labels.dtype == pairs.dataset_ids.dtype == int

    def test_empty_picks_build_an_empty_set(self):
        problems = {3: toy_dataset(np.random.default_rng(6))}
        for picks in ([], [(3, [], [])]):
            pairs = build_pair_features(problems, picks)
            assert len(pairs) == 0 and pair_features(pairs).shape == (0, FEATURE_DIM)

    def test_bad_pick_rejected(self):
        problems = {0: toy_dataset(np.random.default_rng(7))}
        for rows_i, rows_j in (([0, 3], [1, 3]), ([0, 1], [2]), ([[0, 1]], [[2, 3]])):
            with pytest.raises(ValueError):
                build_pair_features(problems, [(0, [4], [5]), (0, rows_i, rows_j)])


class TestSplits:
    def repo(self, n=8, seed=21):
        return make_synthetic_repository(
            SynthSpec(n_problems=n, n_points=60, n_clusters=(2, 3), seed=seed)
        )

    def test_triple_well_formed(self):
        split = sample_pair_splits(self.repo(), seed=1, max_pairs=50)
        assert len(split) == 3 and all(isinstance(pairs, PairSet) and len(pairs) for pairs in split)

    @pytest.mark.parametrize("max_pairs", [1.5, 2.0, -1, 0, 1, None])
    def test_max_pairs_not_an_int_of_at_least_two_rejected(self, max_pairs, monkeypatch):
        monkeypatch.setattr(similarity_net, "derive_seed", None)  # fails if any draw starts
        with pytest.raises(ValueError, match=f"max_pairs must be an int >= 2, got {max_pairs!r}"):
            sample_pair_splits(self.repo(), seed=1, max_pairs=max_pairs)

    def test_train_and_it_halves_disjoint(self, monkeypatch):
        builds = []
        real = similarity_net.build_pair_features

        def recorded(problems, picks):
            builds.append({p: {*rows_i.tolist(), *rows_j.tolist()} for p, rows_i, rows_j in picks})
            return real(problems, picks)

        monkeypatch.setattr(similarity_net, "build_pair_features", recorded)
        _meta_train, meta_it, _meta_et = sample_pair_splits(self.repo(), seed=2, max_pairs=80)
        # a category-1 dataset has meta-train pairs and meta-IT pairs
        train_rows, it_rows, _et_rows = builds
        assert set(train_rows) == set(it_rows) == set(meta_it.dataset_ids.tolist())
        for p in train_rows:
            assert not (train_rows[p] & it_rows[p])

    def test_et_datasets_absent_from_training(self):
        meta_train, _meta_it, meta_et = sample_pair_splits(self.repo(), seed=3, max_pairs=50)
        assert not (set(meta_train.dataset_ids) & set(meta_et.dataset_ids))

    def test_oversize_datasets_excluded(self):
        # Datasets of more than MAX_EXAMPLES = 1000 points take no part.
        def problem(i, n):
            rng = np.random.default_rng(i)
            labels = np.arange(n) % 2
            points = rng.standard_normal((n, 2)) + 8.0 * labels[:, None]
            return Dataset(id=f"p{i}", points=points), labels_to_partition(labels)

        assert similarity_net.MAX_EXAMPLES == 1000
        oversize = MetaRepository(problems=tuple(problem(i, 1001) for i in range(3)), seed=0)
        with pytest.raises(DataError, match="no qualifying datasets"):
            sample_pair_splits(oversize, seed=1, max_pairs=50)
        mixed = MetaRepository(problems=tuple(problem(i, 1000 + i % 2) for i in range(6)), seed=0)
        for seed in range(3):
            used = {p for pairs in sample_pair_splits(mixed, seed=seed, max_pairs=50) for p in pairs.dataset_ids}
            assert used <= {0, 2, 4}

    def test_deterministic(self):
        a = sample_pair_splits(self.repo(), seed=5, max_pairs=40)
        b = sample_pair_splits(self.repo(), seed=5, max_pairs=40)
        for pa, pb in zip(a, b, strict=True):
            assert np.array_equal(pair_features(pa), pair_features(pb))
            for field in ("labels", "dataset_ids"):
                assert np.array_equal(getattr(pa, field), getattr(pb, field))

    def test_one_feature_build_per_set(self, monkeypatch):
        calls = []
        real = similarity_net.build_pair_features

        def counted(problems, picks):
            calls.append([p for p, _rows_i, _rows_j in picks])
            return real(problems, picks)

        monkeypatch.setattr(similarity_net, "build_pair_features", counted)
        sets = sample_pair_splits(self.repo(), seed=4, max_pairs=50)
        assert calls == [sorted(set(pairs.dataset_ids.tolist())) for pairs in sets]
        assert calls[0] == calls[1] and not set(calls[0]) & set(calls[2])

    @pytest.mark.parametrize("max_pairs", [2, 30, 500])
    @pytest.mark.parametrize("seed", range(4))
    def test_splits_match_per_dataset_oracle(self, seed, max_pairs):
        # Problems of 2 or 3 points give empty picks, and at seed 2 an
        # empty set; 500 pairs exceed every universe, so every pick draws with
        # replacement.
        repo = mixed_repo(seed)
        expected = sample_pair_splits_oracle(repo, seed, max_pairs)
        if not all(expected):
            with pytest.raises(DataError, match="repository too small"):
                sample_pair_splits(repo, seed=seed, max_pairs=max_pairs)
            return
        sets = sample_pair_splits(repo, seed=seed, max_pairs=max_pairs)
        for pairs, (features, labels, dataset_ids) in zip(sets, expected):
            assert np.array_equal(pair_features(pairs), features)
            assert np.array_equal(pairs.labels, labels)
            assert np.array_equal(pairs.dataset_ids, dataset_ids)
            assert majority_baseline(pairs) == majority_baseline_oracle(pairs)


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

    @pytest.mark.parametrize("epochs", [-3, 0, 2.5, 1.0, None])
    def test_epochs_not_an_int_of_at_least_one_rejected(self, epochs, monkeypatch):
        monkeypatch.setattr(similarity_net, "_active_columns", None)  # fails if any work starts
        pairs = pair_set(np.ones((4, FEATURE_DIM)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match=f"epochs must be an int >= 1, got {epochs!r}"):
            train_mlp(pairs, epochs=epochs)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected(self, batch, monkeypatch):
        monkeypatch.setattr(similarity_net, "_active_columns", None)  # fails if any work starts
        pairs = pair_set(np.ones((4, FEATURE_DIM)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="batch must be >= 1"):
            train_mlp(pairs, epochs=1, batch=batch)


class TestFlatParameters:
    def test_weights_and_biases_are_views_of_params(self):
        model = init_mlp(seed=3)
        arrays = model.weights + model.biases
        assert [a.shape for a in arrays] == list(PARAM_SHAPES)
        assert model.params.shape == (sum(a.size for a in arrays),)
        assert all(np.shares_memory(a, model.params) for a in arrays)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), model.params)

    def test_in_place_edit_through_weights_changes_forward(self):
        model = init_mlp(seed=3)
        x = np.random.default_rng(10).standard_normal((5, FEATURE_DIM))
        assert not np.all(model.forward(x) == np.log(0.5))
        model.weights[-1][:] = 0.0  # zero last layer and zero biases: p = (1/2, 1/2)
        assert np.all(model.forward(x) == np.log(0.5))

    def test_constructor_copies_inputs(self):
        init = init_mlp(seed=4)
        weights, biases = [w.copy() for w in init.weights], [b.copy() for b in init.biases]
        model = MlpModel(weights, biases)
        weights[0][0, 0] += 1.0
        model.biases[0][0] = 5.0
        assert model.weights[0][0, 0] == init.weights[0][0, 0] and biases[0][0] == 0.0
        assert not any(np.shares_memory(a, model.params) for a in weights + biases)

    def test_wrong_shapes_rejected(self):
        init = init_mlp(seed=4)
        with pytest.raises(ValueError):
            MlpModel(init.weights, init.biases[:-1])
        with pytest.raises(ValueError):
            MlpModel([w.T for w in init.weights], init.biases)

    def test_fewer_input_columns_accepted_more_rejected(self):
        init = init_mlp(seed=4)
        for rows in (0, 25, FEATURE_DIM):
            model = MlpModel([init.weights[0][:rows], *init.weights[1:]], init.biases)
            assert model.weights[0].shape == (rows, LAYER_DIMS[1])
            assert model.params.size == init.params.size - (FEATURE_DIM - rows) * LAYER_DIMS[1]
        with pytest.raises(ValueError):
            MlpModel([np.vstack([init.weights[0], init.weights[0][:1]]), *init.weights[1:]], init.biases)


class TestTrainingOracle:
    """``train_mlp`` on the un-augmented pairs is == to ``train_mlp_oracle`` on
    the same feature columns, and within rounding of full-width training."""

    BATCHES = {
        "one": lambda m: 1,
        "divides": lambda m: m,  # two full batches of the 2m rows
        "partial": lambda m: m - 1,  # a last batch of 2 rows
        "over": lambda m: 2 * m + 1,  # one partial batch
    }
    CASES = [(21, 1), (33, 4), (21, 6)]

    def train_set(self, repo_seed, split_seed, dims=(2, 2)):
        spec = SynthSpec(n_problems=8, n_points=60, dims=dims, n_clusters=(2, 3), seed=repo_seed)
        train, _meta_it, _meta_et = sample_pair_splits(make_synthetic_repository(spec), seed=split_seed, max_pairs=12)
        assert 0 < train.labels.sum() < len(train)  # both labels occur
        return train

    @pytest.mark.parametrize("repo_seed,split_seed", CASES)
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_params_match_oracle(self, repo_seed, split_seed, batch):
        train = self.train_set(repo_seed, split_seed)
        size = self.BATCHES[batch](len(train))
        model = train_mlp(train, epochs=2, batch=size, seed=split_seed)
        params = train_mlp_oracle(train, epochs=2, batch=size, seed=split_seed)
        assert np.array_equal(model.params, params)
        assert not np.array_equal(params, init_mlp(split_seed).params)

    @pytest.mark.parametrize("repo_seed,split_seed", CASES)
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_params_match_full_width_oracle_within_rounding(self, repo_seed, split_seed, batch):
        # The first-layer weight gradient is a narrower product, so its last bits may move.
        train = self.train_set(repo_seed, split_seed)
        assert len(similarity_net._active_columns(train)) < FEATURE_DIM
        size = self.BATCHES[batch](len(train))
        model = train_mlp(train, epochs=2, batch=size, seed=split_seed)
        full = train_mlp_oracle(train, epochs=2, batch=size, seed=split_seed, columns=ALL_COLUMNS)
        np.testing.assert_allclose(model.params, full, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("repo_seed,split_seed", CASES)
    def test_inactive_rows_keep_init_bits(self, repo_seed, split_seed):
        train = self.train_set(repo_seed, split_seed)
        inactive = np.setdiff1d(np.arange(FEATURE_DIM), similarity_net._active_columns(train))
        # 2-d problems: 8 padded columns in each block and 52 covariance entries
        assert inactive.size == 2 * 8 + 52
        model = train_mlp(train, epochs=2, batch=7, seed=split_seed)
        assert model.weights[0][inactive].tobytes() == init_mlp(split_seed).weights[0][inactive].tobytes()
        # Full-width training leaves those rows alike, their gradients being 0.
        params = train_mlp_oracle(train, epochs=2, batch=7, seed=split_seed, columns=ALL_COLUMNS)
        full = params[: model.weights[0].size].reshape(model.weights[0].shape)[inactive]
        assert full.tobytes() == model.weights[0][inactive].tobytes()

    def test_set_without_active_columns(self):
        # All-zero points and covariances: the net reads no feature column.
        train = pair_set(np.zeros((6, FEATURE_DIM)), [0, 1, 1, 0, 1, 1])
        assert similarity_net._active_columns(train).size == 0
        model = train_mlp(train, epochs=2, batch=4, seed=3)
        assert np.array_equal(model.params, train_mlp_oracle(train, epochs=2, batch=4, seed=3, columns=ALL_COLUMNS))
        p, _decisions = similarity_net._predict_pairs(model, train)
        assert np.array_equal(p, predict_features(model, np.zeros((6, FEATURE_DIM)))[0])

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_every_column_active_matches_full_width_oracle_exactly(self, batch):
        # 10-d problems make all 75 columns active: the arithmetic of full-width training.
        train = self.train_set(21, 1, dims=(10, 10))
        assert np.array_equal(similarity_net._active_columns(train), ALL_COLUMNS)
        size = self.BATCHES[batch](len(train))
        model = train_mlp(train, epochs=2, batch=size, seed=1)
        full = train_mlp_oracle(train, epochs=2, batch=size, seed=1, columns=ALL_COLUMNS)
        assert model.params.tobytes() == full.tobytes()


class TestFusedStep:
    """The training step writes into reused buffers (``_Workspace``, Adadelta
    scratch) and is bitwise equal to the allocating reference kernel."""

    @pytest.fixture(scope="class")
    def train(self):
        # 400 training rows: batches of 249, 250 and 251 leave a short last batch.
        spec = SynthSpec(n_problems=8, n_points=60, dims=(2, 5), n_clusters=(2, 3), seed=21)
        train, _meta_it, _meta_et = sample_pair_splits(make_synthetic_repository(spec), seed=1, max_pairs=40)
        assert len(train) == 200
        return train

    @pytest.mark.parametrize("batch", [1, 249, 250, 251])
    def test_params_match_reference_kernel(self, train, batch, monkeypatch):
        built = []

        class Workspace(similarity_net._Workspace):
            def __init__(self, model, rows):
                built.append(rows)
                super().__init__(model, rows)

        monkeypatch.setattr(similarity_net, "_Workspace", Workspace)
        model = train_mlp(train, epochs=2, batch=batch, seed=1)
        assert sorted(built) == sorted({batch, 400 % batch or batch})  # one per batch size, built once
        params = train_mlp_oracle(train, epochs=2, batch=batch, seed=1)
        assert model.params.tobytes() == params.tobytes()

    @pytest.mark.parametrize("batch", [249, 251])
    def test_every_column_active_matches_reference_kernel(self, batch):
        spec = SynthSpec(n_problems=8, n_points=60, dims=(10, 10), n_clusters=(2, 3), seed=21)
        train, _meta_it, _meta_et = sample_pair_splits(make_synthetic_repository(spec), seed=1, max_pairs=40)
        assert np.array_equal(similarity_net._active_columns(train), ALL_COLUMNS) and 2 * len(train) % batch
        model = train_mlp(train, epochs=2, batch=batch, seed=1)
        assert model.params.tobytes() == train_mlp_oracle(train, epochs=2, batch=batch, seed=1).tobytes()

    def test_calls_share_no_state(self, train):
        first = train_mlp(train, epochs=2, batch=250, seed=1).params.tobytes()
        other = pair_set(np.random.default_rng(3).standard_normal((90, FEATURE_DIM)), np.arange(90) % 2)
        train_mlp(other, epochs=2, batch=250, seed=2)  # another net width and other batch sizes between
        assert train_mlp(train, epochs=2, batch=250, seed=1).params.tobytes() == first

    @pytest.mark.parametrize("rows", [1, 7, 250])
    def test_gradients_match_reference_with_and_without_workspace(self, rows):
        rng = np.random.default_rng(rows)
        net = similarity_net._sub_net(init_mlp(seed=5), np.arange(25))
        workspace = similarity_net._Workspace(net, rows)
        for _ in range(2):  # a reused workspace gives the same bits again
            x, y = rng.standard_normal((rows, 25)), rng.integers(0, 2, size=rows)
            loss, (grads_w, grads_b) = nll_loss_and_grads_reference(net, x, y)
            expected = np.concatenate([g.ravel() for g in (*grads_w, *grads_b)])
            # A model with only weights and biases, as the reference oracle builds, needs no workspace.
            plain = SimpleNamespace(weights=net.weights, biases=net.biases)
            for model, ws in ((net, workspace), (net, None), (plain, None)):
                got_loss, (got_w, got_b) = nll_loss_and_grads(model, x, y, ws)
                flat = np.concatenate([g.ravel() for g in (*got_w, *got_b)])
                assert got_loss == loss and flat.tobytes() == expected.tobytes()
            assert all(np.shares_memory(g, workspace.grad) for g in workspace.grads_w + workspace.grads_b)
            assert workspace.grad.tobytes() == expected.tobytes()  # laid out like MlpModel.params

    def test_step_allocates_no_layer_output(self):
        # With its workspace and scratch, a step allocates less than one (250, 100)
        # layer output (the allocating kernel takes more than twice that: every
        # layer output, the gradients and their concatenation).
        rng = np.random.default_rng(0)
        net = similarity_net._sub_net(init_mlp(seed=5), np.arange(25))
        workspace = similarity_net._Workspace(net, 250)
        scratch = (np.empty_like(net.params), np.empty_like(net.params))
        acc_grad, acc_update = np.zeros_like(net.params), np.zeros_like(net.params)
        x, y = rng.standard_normal((250, 25)), rng.integers(0, 2, size=250)

        def step():
            nll_loss_and_grads(net, x, y, workspace)
            adadelta_step(net.params, workspace.grad, acc_grad, acc_update, scratch)

        step()
        _result, peak = traced_peak_mb(step)
        assert peak * 2**20 < 250 * 100 * 8

    def test_log_probs_match_reference(self):
        rng = np.random.default_rng(11)
        model = init_mlp(seed=6)
        x = rng.standard_normal((40, FEATURE_DIM))
        expected = log_probs_reference(model, x)
        assert model.forward(x).tobytes() == expected.tobytes()
        swapped = log_probs_reference(model, swap_blocks(x))
        p, _decision = predict_features(model, x)
        assert p.tobytes() == ((np.exp(expected[:, 1]) + np.exp(swapped[:, 1])) / 2.0).tobytes()


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

    @pytest.mark.parametrize("with_scratch", [False, True], ids=["fresh", "scratch"])
    def test_matches_reference_bits_on_signed_zeros(self, with_scratch):
        # Gradients of +0.0, -0.0, negative and positive values, on parameters
        # that include signed zeros: every bit of the parameter, both
        # accumulators and the returned delta equals the reference's.
        grads = np.array([0.0, -0.0, -3.5, 2.25, 1e-300, -1e-300, 0.0, -0.0])
        param = np.array([0.0, -0.0, 1.0, -2.0, 0.0, -0.0, -0.0, 0.0])
        state = [param.copy(), np.zeros(8), np.zeros(8)]
        ref = [param.copy(), np.zeros(8), np.zeros(8)]
        scratch = (np.empty(8), np.empty(8)) if with_scratch else None
        for step in range(4):
            grad = grads * (step + 1) if step % 2 else grads[::-1].copy()
            delta = adadelta_step(state[0], grad, state[1], state[2], scratch)
            expected = adadelta_step_reference(ref[0], grad, ref[1], ref[2])
            assert delta.tobytes() == expected.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(state, ref))


class TestPrediction:
    def test_decision_symmetry(self):
        rng = np.random.default_rng(9)
        ds, truth = toy_dataset(rng)
        model = init_mlp(seed=5)
        for _ in range(10):
            i, j = rng.choice(ds.n, size=2, replace=False)
            pi, di = predict_features(model, pair_features(build_pair_features([(ds, truth)], [(0, [i], [j])])))
            pj, dj = predict_features(model, pair_features(build_pair_features([(ds, truth)], [(0, [j], [i])])))
            assert pi[0] == pj[0] and di[0] == dj[0]

    def test_matches_swapped_copy_and_restores_input(self):
        # The two-order average over a block-swapped copy, kept as the oracle.
        rng = np.random.default_rng(14)
        model = init_mlp(seed=7)
        x = rng.standard_normal((30, FEATURE_DIM))
        before = x.copy()
        expected = (np.exp(model.forward(x)[:, 1]) + np.exp(model.forward(swap_blocks(x))[:, 1])) / 2.0
        p, decision = predict_features(model, x)
        assert np.array_equal(p, expected) and np.array_equal(decision, expected > 0.5)
        assert np.array_equal(x, before)  # swapped in place and back
        before.setflags(write=False)
        assert np.array_equal(predict_features(model, before)[0], expected)  # a read-only matrix is copied

    def test_columns_are_read_through_their_first_layer_rows(self):
        rng = np.random.default_rng(15)
        model = init_mlp(seed=8)
        columns = np.array([0, 1, 2, PAD_DIM, PAD_DIM + 1, PAD_DIM + 2, 2 * PAD_DIM, 2 * PAD_DIM + 1, FEATURE_DIM - 1])
        x = np.zeros((40, FEATURE_DIM))
        x[:, columns] = rng.standard_normal((40, columns.size))
        p, decision = predict_features(model, np.ascontiguousarray(x[:, columns]), columns)
        expected, expected_decision = predict_features(model, x)
        np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0)
        assert np.array_equal(decision, expected_decision)

    @pytest.mark.parametrize("rows", [1, 3, 5, 40])
    @pytest.mark.parametrize("active", [False, True], ids=["all-columns", "active-columns"])
    def test_memory_order_moves_no_bit(self, rows, active):
        # x[:, columns] of a row-major matrix is column-major; it is predicted as a row-major copy.
        rng = np.random.default_rng(16)
        model = init_mlp(seed=9)
        # A 2-d problem's active columns: both coordinates in each block, covariance entries (0,0), (0,1), (1,1).
        columns = np.array([0, 1, PAD_DIM, PAD_DIM + 1, 2 * PAD_DIM, 2 * PAD_DIM + 1, 2 * PAD_DIM + 10])
        columns = columns if active else np.arange(FEATURE_DIM)
        wide = rng.standard_normal((rows, FEATURE_DIM))
        f = wide[:, columns] if active else np.asfortranarray(wide)
        c = np.ascontiguousarray(f)
        assert f.flags.f_contiguous and not f.flags.c_contiguous or rows == 1
        before = f.copy(order="F")
        p_c, d_c = predict_features(model, c, columns)
        p_f, d_f = predict_features(model, f, columns)
        assert p_c.tobytes() == p_f.tobytes() and np.array_equal(d_c, d_f)
        assert f.tobytes(order="A") == before.tobytes(order="A")

    @pytest.mark.parametrize(
        "columns",
        [
            [1, 0, PAD_DIM, PAD_DIM + 1],
            [0, 0, PAD_DIM, PAD_DIM],
            [0, PAD_DIM + 1],
            [0, PAD_DIM, FEATURE_DIM],
            [-1, PAD_DIM - 1],
        ],
        ids=["descending", "repeated", "unpaired", "past-the-end", "negative"],
    )
    def test_bad_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="columns must ascend"):
            predict_features(init_mlp(seed=8), np.zeros((3, len(columns))), columns)

    def test_half_probability_is_different(self):
        # a zero-weight model outputs exactly p = 0.5, decided as "different"
        model = init_mlp(seed=6)
        for w in model.weights:
            w[:] = 0.0
        p, decision = predict_features(model, np.zeros((1, FEATURE_DIM)))
        assert p[0] == 0.5 and not decision[0]


class TestMajorityBaseline:
    def make(self, labels, dataset_ids=0):
        return pair_set(np.zeros((len(labels), FEATURE_DIM)), labels, dataset_ids)

    def test_seventy_percent_same(self):
        pairs = self.make([1] * 7 + [0] * 3)
        assert majority_baseline(pairs) == pytest.approx(0.7)

    def test_all_same(self):
        assert majority_baseline(self.make([1] * 5)) == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="pair set must be non-empty"):
            majority_baseline(self.make([]))

    def test_balanced(self):
        assert majority_baseline(self.make([0, 1] * 4)) == 0.5

    def test_mean_over_problems(self):
        pairs = self.make([1] * 4 + [0] * 9 + [1], [0] * 4 + [1] * 10)
        assert majority_baseline(pairs) == pytest.approx((1.0 + 0.9) / 2)

    def test_interleaved_problems(self):
        pairs = self.make([1, 1, 0, 1, 0], [0, 0, 1, 0, 0])
        assert majority_baseline(pairs) == pytest.approx((0.75 + 1.0) / 2)

    def test_ids_without_rows_take_no_part(self):
        # ids 0-4 and 6-8 have no rows; the result is that of ids 0 and 1
        contiguous = majority_baseline(self.make([1] * 4 + [0] * 9 + [1], [0] * 4 + [1] * 10))
        assert majority_baseline(self.make([1] * 4 + [0] * 9 + [1], [5] * 4 + [9] * 10)) == contiguous

    def test_non_contiguous_ids_match_first_appearance_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            groups = np.sort(rng.choice(1000, size=int(rng.integers(1, 8)), replace=False))
            sizes = rng.integers(1, 12, size=groups.size)
            pairs = self.make(rng.integers(0, 2, size=sizes.sum()), np.repeat(groups, sizes))
            assert majority_baseline(pairs) == majority_baseline_oracle(pairs)


def model_accuracy_oracle(model, pairs):
    """Whole-set scoring: (probabilities, decisions, accuracy) from one
    ``predict_features`` call on the set's whole feature matrix in its
    active columns (a one-row matrix of all 75 columns is multiplied
    differently, and rounds differently)."""
    columns = similarity_net._active_columns(pairs)
    x = pair_features(pairs)[:, columns]
    p, decisions = predict_features(model, np.ascontiguousarray(x), columns)
    return p, decisions, float((decisions.astype(int) == pairs.labels).mean())


def part_and_oracle_digests(sizes):
    """Yield (m, digest of the part-by-part results, digest of the oracle's) for
    each m in ``sizes``: the sha256 of the probabilities, decisions and accuracy
    of m pairs drawn from a small trained repository's meta-ET set."""
    repo = make_synthetic_repository(SynthSpec(n_problems=12, n_points=60, dims=(2, 5), seed=7))
    train, _meta_it, _meta_et = sample_pair_splits(repo, max_pairs=300)
    model = train_mlp(train, epochs=2)
    _meta_train, _meta_it, pool = sample_pair_splits(repo, max_pairs=1500)
    rng = np.random.default_rng(4)
    for m in sizes:
        rows = rng.integers(0, len(pool), size=m)
        pairs = PairSet(
            points=pool.points,
            covariances=pool.covariances,
            rows_i=pool.rows_i[rows],
            rows_j=pool.rows_j[rows],
            blocks=pool.blocks[rows],
            labels=pool.labels[rows],
            dataset_ids=pool.dataset_ids[rows],
        )
        p, decisions = similarity_net._predict_pairs(model, pairs)
        parts = (p, decisions, np.float64(similarity_net._model_accuracy(model, pairs)))
        whole = model_accuracy_oracle(model, pairs)
        digests = [hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest() for arrays in (parts, whole)]
        yield m, *digests


PART_SIZES = (1, PREDICT_ROWS, PREDICT_ROWS + 1, PREDICT_ROWS + 108, 5 * PREDICT_ROWS + 1)

# Run at one BLAS thread, where the bits are deterministic; prints one line per size.
PART_CHILD = f"""
from test_similarity_net import part_and_oracle_digests

for line in part_and_oracle_digests({PART_SIZES!r}):
    print(*line)
"""


class TestPredictPairs:
    """``_predict_pairs`` predicts a set in balanced parts of at most
    ``PREDICT_ROWS`` rows; the whole-matrix ``model_accuracy_oracle`` is the reference."""

    @pytest.fixture(scope="class")
    def digests(self):
        skip_unless_pinned_numpy_and_blas()
        lines = run_python_child(PART_CHILD, "1").splitlines()
        return {int(m): (parts, whole) for m, parts, whole in (line.split() for line in lines)}

    @pytest.mark.parametrize("m", PART_SIZES)
    def test_bitwise_equal_to_whole_matrix_oracle(self, digests, m):
        parts, whole = digests[m]
        assert parts == whole

    def test_empty_set(self):
        pairs = build_pair_features({}, [])
        model = init_mlp(seed=0)
        p, decisions = similarity_net._predict_pairs(model, pairs)
        assert p.shape == decisions.shape == (0,) and p.dtype == float and decisions.dtype == bool
        with pytest.raises(ValueError, match="pair set must be non-empty"):  # not the mean of no pairs
            similarity_net._model_accuracy(model, pairs)

    def test_parts_are_balanced(self, monkeypatch):
        repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, seed=3))
        _meta_train, _meta_it, pairs = sample_pair_splits(repo, max_pairs=60)
        sizes = []

        def predict(model, features, columns=None):
            sizes.append(features.shape[0])
            return predict_features(model, features, columns)

        monkeypatch.setattr(similarity_net, "PREDICT_ROWS", 70)
        monkeypatch.setattr(similarity_net, "predict_features", predict)
        similarity_net._predict_pairs(init_mlp(seed=0), pairs)
        m = len(pairs)
        assert len(sizes) == -(-m // 70) and sum(sizes) == m and max(sizes) - min(sizes) <= 1


class TestEvaluateBsf:
    def test_untrained_near_chance_and_fields(self):
        repo = make_synthetic_repository(
            SynthSpec(n_problems=8, n_points=60, n_clusters=(2, 3), seed=33)
        )
        _meta_train, meta_it, meta_et = sample_pair_splits(repo, seed=2, max_pairs=60)
        model = init_mlp(seed=0)
        accuracies = evaluate_bsf(model, meta_it, meta_et)
        assert len(accuracies) == 4 and all(0.0 <= acc <= 1.0 for acc in accuracies)
        _acc_meta_it, _acc_meta_et, acc_majority_it, acc_majority_et = accuracies
        assert acc_majority_it >= 0.5 and acc_majority_et >= 0.5

    @pytest.mark.parametrize("side", [0, 1], ids=["meta_it", "meta_et"])
    def test_empty_test_set_rejected(self, side):
        # The model is not scored on an empty set, whose mean accuracy would be nan.
        repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, seed=3))
        _meta_train, *test_sets = sample_pair_splits(repo, max_pairs=60)
        test_sets[side] = build_pair_features({}, [])
        with pytest.raises(ValueError, match="pair set must be non-empty"):
            evaluate_bsf(init_mlp(seed=0), *test_sets)


def traced_peak_mb(fn, *args, **kwargs):
    """(fn's result, the peak of memory that fn allocated, in MB), by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


class TestPairnetMemory:
    """The benchmark's ``pairnet`` repository and bsf seed: pair sets hold row
    indices, and feature rows are built only where they are used."""

    @pytest.fixture(scope="class")
    def pairnet(self):
        workload = WORKLOADS["pairnet"]
        repo = make_synthetic_repository(SynthSpec(seed=DEFAULT_SEED, **workload.synth))
        return repo, workload.pipeline_seed

    def test_sample_pair_splits_peak(self, pairnet):
        # The three sets' (m, 75) feature matrices alone would take 50 MB.
        repo, seed = pairnet
        split, peak = traced_peak_mb(sample_pair_splits, repo, seed=seed)
        assert [len(pairs) for pairs in split] == [25000, 25000, 35000]
        assert peak < 10

    def test_evaluate_bsf_peak(self, pairnet):
        # Sets are predicted in parts of at most PREDICT_ROWS pairs, so only one part's
        # feature rows (at most 4.9 MB) and layer outputs are live, never a whole set's
        # matrix (21 MB for meta-ET) and its (m, 100) layer outputs.
        repo, seed = pairnet
        _meta_train, meta_it, meta_et = sample_pair_splits(repo, seed=seed)
        _evaluation, peak = traced_peak_mb(evaluate_bsf, init_mlp(seed), meta_it, meta_et)
        assert peak < 20

    def test_gathered_rows_match_per_dataset_oracle(self, pairnet):
        repo, seed = pairnet
        sets = sample_pair_splits(repo, seed=seed)
        for pairs, (features, labels, dataset_ids) in zip(sets, sample_pair_splits_oracle(repo, seed, 2500)):
            assert np.array_equal(pair_features(pairs), features)
            assert np.array_equal(pairs.labels, labels)
            assert np.array_equal(pairs.dataset_ids, dataset_ids)

    def test_training_matches_materialized_oracle(self, pairnet):
        repo, seed = pairnet
        train, _meta_it, _meta_et = sample_pair_splits(repo, seed=seed)
        model = train_mlp(train, epochs=1, seed=seed)
        params = train_mlp_oracle(train, epochs=1, batch=250, seed=seed)
        assert model.params.tobytes() == params.tobytes()
