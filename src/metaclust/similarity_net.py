"""Learned pairwise same-cluster predictor.

Pairs of points from labeled datasets are turned into 75-dimensional feature
vectors (two zero-padded 10-coordinate blocks plus the 55 upper-triangle
entries of the zero-embedded covariance matrix).  A small MLP trained with
Adadelta on negative log-likelihood predicts whether a pair shares a class;
prediction averages the two feature orders so decisions are symmetric.  The
prescient per-problem majority rule serves as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from metaclust.data_model import Dataset, MetaRepository, covariance, derive_seed, normalize_dataset

__all__ = [
    "PairSet",
    "SplitTriple",
    "MlpModel",
    "BsfEvaluation",
    "ADADELTA_RHO",
    "ADADELTA_EPS",
    "build_pair_features",
    "concat_pair_sets",
    "swap_blocks",
    "sample_pair_splits",
    "init_mlp",
    "nll_loss_and_grads",
    "adadelta_step",
    "train_mlp",
    "predict_pair",
    "predict_features",
    "majority_baseline",
    "evaluate_bsf",
]

PAD_DIM = 10
COV_DIM = PAD_DIM * (PAD_DIM + 1) // 2  # 55
FEATURE_DIM = 2 * PAD_DIM + COV_DIM  # 75
LAYER_DIMS = (FEATURE_DIM, 100, 50, 25, 12, 2)

ADADELTA_RHO = 0.9
ADADELTA_EPS = 1e-6


@dataclass(frozen=True)
class PairSet:
    """m sampled pairs, one row each: 75 features, same-class label, provenance.

    ``features`` is (m, 75) float64, ``labels`` an int m-vector (None for
    unlabeled data), ``dataset_ids`` the source dataset of each row and ``i``,
    ``j`` its ordered row indices in that dataset.  Every array is read-only.
    """

    features: np.ndarray
    labels: Optional[np.ndarray]
    dataset_ids: np.ndarray
    i: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 2 or f.shape[1] != FEATURE_DIM or not np.all(np.isfinite(f)):
            raise ValueError(f"features must be a finite (m, {FEATURE_DIM}) matrix")
        m = f.shape[0]
        fields = {"features": f}
        if self.labels is not None:
            fields["labels"] = np.asarray(self.labels, dtype=int)
        fields["dataset_ids"] = np.asarray(self.dataset_ids, dtype=str)
        fields["i"] = np.asarray(self.i, dtype=int)
        fields["j"] = np.asarray(self.j, dtype=int)
        for name, arr in fields.items():
            if arr.shape[0] != m or (name != "features" and arr.ndim != 1):
                raise ValueError(f"{name} must have one entry per feature row")
            arr = arr.view()  # read-only view; the caller's array stays as it was
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]


def concat_pair_sets(sets: Sequence[PairSet]) -> PairSet:
    """Rows of ``sets`` stacked in order; all labeled or all unlabeled."""
    return PairSet(
        features=np.concatenate([s.features for s in sets]),
        labels=None if sets[0].labels is None else np.concatenate([s.labels for s in sets]),
        dataset_ids=np.concatenate([s.dataset_ids for s in sets]),
        i=np.concatenate([s.i for s in sets]),
        j=np.concatenate([s.j for s in sets]),
    )


def swap_blocks(features: np.ndarray) -> np.ndarray:
    """Feature rows with the two coordinate blocks exchanged: the reversed pairs."""
    f = np.asarray(features, dtype=float)
    return np.concatenate([f[..., PAD_DIM : 2 * PAD_DIM], f[..., :PAD_DIM], f[..., 2 * PAD_DIM :]], axis=-1)


def _covariance_features(points: np.ndarray) -> np.ndarray:
    """Upper triangle (row-major) of the covariance embedded in a 10x10 block.

    Entries outside the leading d x d principal block are zero, so padded
    diagonals are 0, not 1.
    """
    d = points.shape[1]
    embedded = np.zeros((PAD_DIM, PAD_DIM))
    embedded[:d, :d] = covariance(points)
    iu = np.triu_indices(PAD_DIM)
    return embedded[iu]


def build_pair_features(dataset: Dataset, rows_i, rows_j) -> PairSet:
    """Features of the ordered pairs (rows_i[t], rows_j[t]); label 1 iff same class.

    The covariance block depends only on the dataset, so it is computed once
    and shared by every row.
    """
    if dataset.d > PAD_DIM:
        raise ValueError(f"dataset has {dataset.d} > {PAD_DIM} features")
    rows_i = np.asarray(rows_i, dtype=int)
    rows_j = np.asarray(rows_j, dtype=int)
    if rows_i.ndim != 1 or rows_i.shape != rows_j.shape:
        raise ValueError("rows_i and rows_j must be index vectors of one length")
    if np.any(rows_i == rows_j):
        raise ValueError("pair indices must differ")
    d = dataset.d
    features = np.zeros((rows_i.shape[0], FEATURE_DIM))
    features[:, :d] = dataset.points[rows_i]
    features[:, PAD_DIM : PAD_DIM + d] = dataset.points[rows_j]
    features[:, 2 * PAD_DIM :] = _covariance_features(dataset.points)
    labels = None
    if dataset.labels is not None:
        labels = (dataset.labels[rows_i] == dataset.labels[rows_j]).astype(int)
    return PairSet(
        features=features,
        labels=labels,
        dataset_ids=np.full(rows_i.shape[0], dataset.id),
        i=rows_i,
        j=rows_j,
    )


@dataclass(frozen=True)
class SplitTriple:
    """Meta-train (symmetry-augmented), internal-test and external-test pairs."""

    meta_train: PairSet
    meta_it: PairSet
    meta_et: PairSet


def _sample_pairs(rng: np.random.Generator, rows: np.ndarray, cap: int) -> tuple:
    """Up to ``cap`` unordered row pairs as two index vectors; with replacement
    only when the universe is smaller than the cap."""
    m = rows.shape[0]
    universe = m * (m - 1) // 2
    if universe == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    all_i, all_j = np.triu_indices(m, 1)
    picks = rng.choice(universe, size=cap, replace=universe < cap)
    return rows[all_i[picks]], rows[all_j[picks]]


def _augment_with_swaps(pairs: PairSet) -> PairSet:
    """Rows 2t and 2t+1 are pair t and its reversed copy."""
    m = len(pairs)

    def interleave(fwd, rev):
        out = np.empty((2 * m,) + fwd.shape[1:], dtype=fwd.dtype)
        out[0::2] = fwd
        out[1::2] = rev
        return out

    return PairSet(
        features=interleave(pairs.features, swap_blocks(pairs.features)),
        labels=np.repeat(pairs.labels, 2),
        dataset_ids=np.repeat(pairs.dataset_ids, 2),
        i=interleave(pairs.i, pairs.j),
        j=interleave(pairs.j, pairs.i),
    )


def sample_pair_splits(
    repo: MetaRepository,
    seed: int = 0,
    max_pairs: int = 2500,
    max_examples: int = 1000,
    max_features: int = PAD_DIM,
    max_category_retries: int = 20,
) -> SplitTriple:
    """Sample the (meta-train, meta-IT, meta-ET) pair sets from a repository.

    Qualifying labeled datasets are assigned to one of two categories with
    equal probability.  Category-1 datasets are shuffled and row-halved:
    the first half feeds meta-train pairs, the following rows feed meta-IT
    pairs (the halves are disjoint).  Category-2 datasets contribute no
    training data and feed meta-ET only.  Meta-train is then augmented with
    one swapped copy per pair.
    """
    qualifying = [
        ds
        for ds, _truth in repo.problems
        if isinstance(ds, Dataset) and ds.labels is not None and ds.n <= max_examples and ds.d <= max_features
    ]
    if not qualifying:
        raise ValueError("no qualifying datasets in the repository")

    categories = None
    for attempt in range(max_category_retries):
        rng = np.random.default_rng(derive_seed(repo.seed, seed, attempt))
        draw = rng.integers(0, 2, size=len(qualifying))
        if 0 in draw and 1 in draw:
            categories = draw
            break
    if categories is None:
        raise ValueError("could not populate both dataset categories")

    meta_train = []
    meta_it = []
    meta_et = []

    def add_pairs(target: list, ds: Dataset, rows: np.ndarray) -> None:
        rows_i, rows_j = _sample_pairs(rng, rows, max_pairs)
        if rows_i.shape[0]:
            target.append(build_pair_features(ds, rows_i, rows_j))

    for ds, cat in zip(qualifying, categories):
        ds = normalize_dataset(ds)
        perm = rng.permutation(ds.n)
        if cat == 0:
            half = min(ds.n // 2, max_pairs)
            add_pairs(meta_train, ds, perm[:half])
            add_pairs(meta_it, ds, perm[half : half + max_pairs])
        else:
            add_pairs(meta_et, ds, perm[:max_pairs])

    if not meta_train or not meta_it or not meta_et:
        raise ValueError("a pair set came out empty; repository too small")
    return SplitTriple(
        meta_train=_augment_with_swaps(concat_pair_sets(meta_train)),
        meta_it=concat_pair_sets(meta_it),
        meta_et=concat_pair_sets(meta_et),
    )


class MlpModel:
    """Fully connected net 75-100-50-25-12-2: ReLU hidden layers, log-softmax out.

    Carries the Adadelta running averages (squared gradients and squared
    updates) alongside the parameters.
    """

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        dims = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        if tuple(dims) != LAYER_DIMS:
            raise ValueError(f"layer dims must be {LAYER_DIMS}, got {tuple(dims)}")
        self.acc_grad = [
            [np.zeros_like(w) for w in self.weights],
            [np.zeros_like(b) for b in self.biases],
        ]
        self.acc_update = [
            [np.zeros_like(w) for w in self.weights],
            [np.zeros_like(b) for b in self.biases],
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Log-probabilities, shape (batch, 2)."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        z = h @ self.weights[-1] + self.biases[-1]
        return z - _logsumexp(z)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def init_mlp(seed: int = 0) -> MlpModel:
    """Glorot-uniform weights (plus or minus sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(derive_seed(seed, 0))
    weights = []
    biases = []
    for fan_in, fan_out in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def nll_loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple:
    """Mean negative log-likelihood and its gradients w.r.t. every parameter."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    batch = x.shape[0]

    activations = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    z = h @ model.weights[-1] + model.biases[-1]
    log_probs = z - _logsumexp(z)
    loss = -float(log_probs[np.arange(batch), y].mean())

    # Backprop: d(loss)/dz = (softmax - onehot) / batch.
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


def adadelta_step(param, grad, acc_grad, acc_update, rho: float = ADADELTA_RHO, eps: float = ADADELTA_EPS):
    """In-place Adadelta update; returns the applied delta."""
    acc_grad *= rho
    acc_grad += (1.0 - rho) * grad * grad
    delta = -np.sqrt(acc_update + eps) / np.sqrt(acc_grad + eps) * grad
    acc_update *= rho
    acc_update += (1.0 - rho) * delta * delta
    param += delta
    return delta


def train_mlp(
    meta_train: PairSet,
    epochs: int = 10,
    batch: int = 250,
    seed: int = 0,
    model: Optional[MlpModel] = None,
) -> MlpModel:
    """Train on the pair set: NLL objective, Adadelta updates, fixed shuffles."""
    if len(meta_train) == 0 or meta_train.labels is None:
        raise ValueError("training set must be non-empty and labeled")
    x = meta_train.features
    y = meta_train.labels
    if model is None:
        model = init_mlp(seed)

    n = x.shape[0]
    for epoch in range(epochs):
        rng = np.random.default_rng(derive_seed(seed, 1 + epoch))
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            _loss, (grads_w, grads_b) = nll_loss_and_grads(model, x[idx], y[idx])
            for layer in range(len(model.weights)):
                adadelta_step(model.weights[layer], grads_w[layer], model.acc_grad[0][layer], model.acc_update[0][layer])
                adadelta_step(model.biases[layer], grads_b[layer], model.acc_grad[1][layer], model.acc_update[1][layer])
    return model


def predict_features(model: MlpModel, features: np.ndarray) -> tuple:
    """(probability_same, decision) with symmetric two-order averaging.

    Works on a (batch, 75) matrix; the swapped order is derived by exchanging
    the two coordinate blocks.  Decision is same-cluster iff the averaged
    probability strictly exceeds 0.5.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    p_fwd = np.exp(model.forward(features)[:, 1])
    p_swp = np.exp(model.forward(swap_blocks(features))[:, 1])
    p = (p_fwd + p_swp) / 2.0
    return p, p > 0.5


def predict_pair(model: MlpModel, dataset: Dataset, i: int, j: int) -> tuple:
    """(probability_same, decision) for one pair of a dataset."""
    pairs = build_pair_features(dataset, [i], [j])
    p, decision = predict_features(model, pairs.features)
    return float(p[0]), bool(decision[0])


def majority_baseline(pairs: PairSet) -> float:
    """Prescient per-problem majority rule accuracy, averaged over problems."""
    if pairs.labels is None:
        raise ValueError("majority baseline needs labeled pairs")
    _ids, first, problem = np.unique(pairs.dataset_ids, return_index=True, return_inverse=True)
    n_same = np.bincount(problem, weights=pairs.labels)
    n_pairs = np.bincount(problem)
    accs = []
    for t in np.argsort(first):  # problems in order of first appearance
        frac_same = int(n_same[t]) / int(n_pairs[t])
        accs.append(max(frac_same, 1.0 - frac_same))
    return sum(accs) / len(accs)


@dataclass(frozen=True)
class BsfEvaluation:
    acc_meta_it: float
    acc_meta_et: float
    acc_majority_it: float
    acc_majority_et: float


def _model_accuracy(model: MlpModel, pairs: PairSet) -> float:
    _p, decisions = predict_features(model, pairs.features)
    return float((decisions.astype(int) == pairs.labels).mean())


def evaluate_bsf(model: MlpModel, split: SplitTriple) -> BsfEvaluation:
    """Pair accuracy of the model and the majority baseline on both test sets."""
    return BsfEvaluation(
        acc_meta_it=_model_accuracy(model, split.meta_it),
        acc_meta_et=_model_accuracy(model, split.meta_et),
        acc_majority_it=majority_baseline(split.meta_it),
        acc_majority_et=majority_baseline(split.meta_et),
    )
