"""Learned pairwise same-cluster predictor.

Pairs of points from labeled datasets are turned into 75-dimensional feature
vectors (two zero-padded 10-coordinate blocks plus the 55 upper-triangle
entries of the zero-embedded covariance matrix).  A small MLP trained with
Adadelta on negative log-likelihood predicts whether a pair shares a class.
Each pair is stored once; training and prediction both see it in the two
orders, derived with ``swap_blocks``, and prediction averages the orders so
decisions are symmetric.  The prescient per-problem majority rule serves as
the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from metaclust.data_model import DataError, MetaRepository, covariance, derive_seed, normalize_dataset

__all__ = [
    "PairSet",
    "SplitTriple",
    "MlpModel",
    "BsfEvaluation",
    "ADADELTA_RHO",
    "ADADELTA_EPS",
    "build_pair_features",
    "swap_blocks",
    "sample_pair_splits",
    "init_mlp",
    "nll_loss_and_grads",
    "adadelta_step",
    "train_mlp",
    "predict_features",
    "majority_baseline",
    "evaluate_bsf",
]

PAD_DIM = 10
COV_DIM = PAD_DIM * (PAD_DIM + 1) // 2  # 55
FEATURE_DIM = 2 * PAD_DIM + COV_DIM  # 75
LAYER_DIMS = (FEATURE_DIM, 100, 50, 25, 12, 2)
# Shapes of the parameters in ``MlpModel.params`` order: every weight, then every bias.
PARAM_SHAPES = tuple(zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])) + tuple((fan_out,) for fan_out in LAYER_DIMS[1:])

ADADELTA_RHO = 0.9
ADADELTA_EPS = 1e-6
MAX_CATEGORY_RETRIES = 20  # draws of the two dataset categories before giving up
MAX_EXAMPLES = 1000  # datasets with more points take no part in the pair sets


@dataclass(frozen=True)
class PairSet:
    """m sampled pairs, one row each: 75 features, same-class label, source dataset.

    ``features`` is (m, 75) float64, ``labels`` an int m-vector and
    ``dataset_ids`` the int code of each row's source dataset (its position
    in the repository).  Every array is read-only.
    """

    features: np.ndarray
    labels: np.ndarray
    dataset_ids: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 2 or f.shape[1] != FEATURE_DIM or not np.all(np.isfinite(f)):
            raise ValueError(f"features must be a finite (m, {FEATURE_DIM}) matrix")
        m = f.shape[0]
        fields = {
            "features": f,
            "labels": np.asarray(self.labels, dtype=int),
            "dataset_ids": np.asarray(self.dataset_ids, dtype=int),
        }
        for name, arr in fields.items():
            if arr.shape[0] != m or (name != "features" and arr.ndim != 1):
                raise ValueError(f"{name} must have one entry per feature row")
            arr = arr.view()  # read-only view; the caller's array stays as it was
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]


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


def build_pair_features(problems, picks) -> PairSet:
    """One pair set: for each pick (p, rows_i, rows_j), in order, the ordered
    pairs (rows_i[t], rows_j[t]) of the (Dataset, truth Partition) ``problems[p]``.

    A row's label is 1 iff the truth puts both points in one part, and its
    dataset id is p.  Every array is allocated once at full size, and each
    pick's covariance block is computed once and shared by its rows.
    """
    picks = [(p, np.asarray(rows_i, dtype=int), np.asarray(rows_j, dtype=int)) for p, rows_i, rows_j in picks]
    m = sum(rows_i.size for _p, rows_i, _rows_j in picks)
    features = np.zeros((m, FEATURE_DIM))
    labels = np.empty(m, dtype=int)
    dataset_ids = np.empty(m, dtype=int)
    stop = 0
    for p, rows_i, rows_j in picks:
        dataset, truth = problems[p]
        if dataset.d > PAD_DIM:
            raise ValueError(f"dataset has {dataset.d} > {PAD_DIM} features")
        if rows_i.ndim != 1 or rows_i.shape != rows_j.shape:
            raise ValueError("rows_i and rows_j must be index vectors of one length")
        if np.any(rows_i == rows_j):
            raise ValueError("pair indices must differ")
        block = slice(stop, stop + rows_i.size)
        features[block, : dataset.d] = dataset.points[rows_i]
        features[block, PAD_DIM : PAD_DIM + dataset.d] = dataset.points[rows_j]
        features[block, 2 * PAD_DIM :] = _covariance_features(dataset.points)
        labels[block] = truth.labels[rows_i] == truth.labels[rows_j]
        dataset_ids[block] = p
        stop = block.stop
    return PairSet(features=features, labels=labels, dataset_ids=dataset_ids)


@dataclass(frozen=True)
class SplitTriple:
    """Meta-train, internal-test and external-test pairs, each pair stored once."""

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


def sample_pair_splits(repo: MetaRepository, seed: int = 0, max_pairs: int = 2500) -> SplitTriple:
    """Sample the (meta-train, meta-IT, meta-ET) pair sets from a repository.

    A problem qualifies if it has at most ``MAX_EXAMPLES`` points and
    ``PAD_DIM`` features.  Qualifying datasets are assigned to one of two
    categories with equal probability.  Category-1 datasets are shuffled and
    row-halved: the first half feeds meta-train pairs, the following rows
    feed meta-IT pairs (the halves are disjoint).  Category-2 datasets
    contribute no training data and feed meta-ET only.  Every set holds each sampled pair
    once, in one order; ``train_mlp`` derives the reversed order itself.
    A row's dataset id is its position in ``repo.problems``, so ids ascend in
    order of first appearance.  Each set is built in one call once its pairs are drawn.
    A repository that cannot fill all three sets raises ``DataError``.
    """
    qualifying = [p for p, (ds, _truth) in enumerate(repo.problems) if ds.n <= MAX_EXAMPLES and ds.d <= PAD_DIM]
    if not qualifying:
        raise DataError("no qualifying datasets in the repository")

    categories = None
    for attempt in range(MAX_CATEGORY_RETRIES):
        rng = np.random.default_rng(derive_seed(repo.seed, seed, attempt))
        draw = rng.integers(0, 2, size=len(qualifying))
        if 0 in draw and 1 in draw:
            categories = draw
            break
    if categories is None:
        raise DataError("could not populate both dataset categories")

    problems = {}
    train_picks, it_picks, et_picks = [], [], []
    for p, cat in zip(qualifying, categories):
        ds, truth = repo.problems[p]
        problems[p] = (normalize_dataset(ds), truth)
        perm = rng.permutation(ds.n)
        if cat == 0:
            half = min(ds.n // 2, max_pairs)
            train_picks.append((p, *_sample_pairs(rng, perm[:half], max_pairs)))
            it_picks.append((p, *_sample_pairs(rng, perm[half : half + max_pairs], max_pairs)))
        else:
            et_picks.append((p, *_sample_pairs(rng, perm[:max_pairs], max_pairs)))

    split = SplitTriple(*(build_pair_features(problems, picks) for picks in (train_picks, it_picks, et_picks)))
    if not (len(split.meta_train) and len(split.meta_it) and len(split.meta_et)):
        raise DataError("a pair set came out empty; repository too small")
    return split


class MlpModel:
    """Fully connected net 75-100-50-25-12-2: ReLU hidden layers, log-softmax out.

    Every parameter lives in one flat float64 vector ``params``: the weight
    matrices, then the biases, in layer order.  ``weights`` and ``biases`` are
    reshaped views into it, and ``acc_grad`` and ``acc_update`` are the
    Adadelta running averages (squared gradients and squared updates), flat
    vectors of the same size.  The constructor copies the arrays it is given.
    """

    def __init__(self, weights, biases):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        shapes = tuple(a.shape for a in arrays)
        if shapes != PARAM_SHAPES:
            raise ValueError(f"layer dims {LAYER_DIMS} need parameter shapes {PARAM_SHAPES}, got {shapes}")
        self.params = np.concatenate([a.ravel() for a in arrays])
        parts = np.split(self.params, np.cumsum([a.size for a in arrays])[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        self.weights = views[: len(views) // 2]
        self.biases = views[len(views) // 2 :]
        self.acc_grad = np.zeros_like(self.params)
        self.acc_update = np.zeros_like(self.params)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Log-probabilities, shape (batch, 2)."""
        return _log_probs(self, x)


def _log_probs(model: MlpModel, x: np.ndarray, activations: Optional[list] = None) -> np.ndarray:
    """Log-probabilities of x's rows; appends each hidden layer to ``activations`` if given."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if activations is not None:
            activations.append(h)
    z = h @ model.weights[-1] + model.biases[-1]
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
    log_probs = _log_probs(model, x, activations)
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


def adadelta_step(param, grad, acc_grad, acc_update):
    """In-place elementwise Adadelta update (ADADELTA_RHO, ADADELTA_EPS); returns the delta."""
    acc_grad *= ADADELTA_RHO
    acc_grad += (1.0 - ADADELTA_RHO) * grad * grad
    delta = -np.sqrt(acc_update + ADADELTA_EPS) / np.sqrt(acc_grad + ADADELTA_EPS) * grad
    acc_update *= ADADELTA_RHO
    acc_update += (1.0 - ADADELTA_RHO) * delta * delta
    param += delta
    return delta


def train_mlp(meta_train: PairSet, epochs: int = 10, batch: int = 250, seed: int = 0) -> MlpModel:
    """Train on both orders of every pair: NLL objective, Adadelta updates, fixed shuffles.

    Each epoch shuffles 2m training rows, where row r is pair r // 2, block-
    swapped when r is odd, with that pair's label.  Each batch makes one
    Adadelta step on the flat parameter vector.
    """
    if len(meta_train) == 0:
        raise ValueError("training set must be non-empty")
    model = init_mlp(seed)
    n = 2 * len(meta_train)
    for epoch in range(epochs):
        rng = np.random.default_rng(derive_seed(seed, 1 + epoch))
        order = rng.permutation(n)
        for start in range(0, n, batch):
            rows = order[start : start + batch]
            pairs = rows // 2
            swapped = rows % 2 == 1
            x = meta_train.features[pairs]
            x[swapped] = swap_blocks(x[swapped])
            _loss, (grads_w, grads_b) = nll_loss_and_grads(model, x, meta_train.labels[pairs])
            grad = np.concatenate([g.ravel() for g in (*grads_w, *grads_b)])
            adadelta_step(model.params, grad, model.acc_grad, model.acc_update)
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


def majority_baseline(pairs: PairSet) -> float:
    """Prescient per-problem majority rule accuracy, averaged over problems.

    Problems are taken in ascending id order; ids without rows take no part.
    """
    n_pairs = np.bincount(pairs.dataset_ids)
    n_same = np.bincount(pairs.dataset_ids, weights=pairs.labels)
    present = n_pairs > 0
    frac_same = n_same[present] / n_pairs[present]
    accs = np.maximum(frac_same, 1.0 - frac_same).tolist()
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
