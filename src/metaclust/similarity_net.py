"""Learned pairwise same-cluster predictor.

Pairs of points from labeled datasets are turned into 75-dimensional feature
vectors (two zero-padded 10-coordinate blocks plus the 55 upper-triangle
entries of the zero-embedded covariance matrix).  A small MLP trained with
Adadelta on negative log-likelihood predicts whether a pair shares a class.
Each pair is stored once, as two row indices into its dataset's points, and
feature rows are built only when they are needed, and only in the feature
columns that the pair set can make non-zero (``_active_columns``): on
problems of fewer than 10 dimensions the padded columns are exactly 0, and
the net reads them through first-layer weights that training never moves.
Training and prediction both see each pair in the two orders (the reversed
order exchanges the two coordinate blocks), and prediction averages the
orders so decisions are symmetric.  The prescient per-problem majority rule
serves as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from metaclust.data_model import DataError, MetaRepository, covariance, derive_seed, normalize_dataset

__all__ = [
    "PairSet",
    "MlpModel",
    "ADADELTA_RHO",
    "ADADELTA_EPS",
    "build_pair_features",
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


def _param_shapes(n_inputs: int) -> tuple:
    """Shapes of the parameters in ``MlpModel.params`` order, every weight and
    then every bias, of a net that reads ``n_inputs`` feature columns."""
    dims = (n_inputs, *LAYER_DIMS[1:])
    return tuple(zip(dims[:-1], dims[1:])) + tuple((fan_out,) for fan_out in dims[1:])


PARAM_SHAPES = _param_shapes(FEATURE_DIM)

ADADELTA_RHO = 0.9
ADADELTA_EPS = 1e-6
MAX_CATEGORY_RETRIES = 20  # draws of the two dataset categories before giving up
MAX_EXAMPLES = 1000  # datasets with more points take no part in the pair sets
PREDICT_ROWS = 8192  # most pairs predicted at once when a whole set is scored


@dataclass(frozen=True)
class PairSet:
    """m sampled pairs, one row each, stored as row indices into point blocks.

    ``points`` stacks zero-padded (n, 10) blocks of dataset points and
    ``covariances`` holds each block's 55 covariance features, one row per
    block (``build_pair_features`` makes one block per non-empty pick).
    Pair r is the ordered pair of points rows
    (``rows_i[r]``, ``rows_j[r]``) of block ``blocks[r]``, with the
    same-class label ``labels[r]`` and the int code ``dataset_ids[r]`` of its
    source dataset (its position in the repository).  Every array is
    read-only; ``_feature_rows`` builds feature rows on demand.
    """

    points: np.ndarray
    covariances: np.ndarray
    rows_i: np.ndarray
    rows_j: np.ndarray
    blocks: np.ndarray
    labels: np.ndarray
    dataset_ids: np.ndarray

    def __post_init__(self):
        fields = {name: np.asarray(getattr(self, name), dtype=float) for name in ("points", "covariances")}
        for name, width in (("points", PAD_DIM), ("covariances", COV_DIM)):
            arr = fields[name]
            if arr.ndim != 2 or arr.shape[1] != width or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite (rows, {width}) matrix")
        vectors = ("rows_i", "rows_j", "blocks", "labels", "dataset_ids")
        fields.update((name, np.asarray(getattr(self, name), dtype=int)) for name in vectors)
        if any(fields[name].ndim != 1 or fields[name].shape != fields["labels"].shape for name in vectors):
            raise ValueError(f"{', '.join(vectors)} must be vectors with one entry per pair")
        for name, table in (("rows_i", "points"), ("rows_j", "points"), ("blocks", "covariances")):
            if not np.all((fields[name] >= 0) & (fields[name] < fields[table].shape[0])):
                raise ValueError(f"{name} must index rows of {table}")
        for name, arr in fields.items():
            arr = arr.view()  # read-only view; the caller's array stays as it was
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.labels.shape[0]


def _active_columns(pairs: PairSet) -> np.ndarray:
    """The feature columns that ``pairs`` can make non-zero, as ascending indices into the 75.

    A point column that is non-zero in any row of ``pairs.points`` is taken
    in both coordinate blocks, so the reversed order is still an exchange of
    two equal blocks; a covariance column is taken if it is non-zero in any
    row of ``pairs.covariances``.  Every other column is 0 in every feature
    row of the set.
    """
    point = np.flatnonzero(np.any(pairs.points != 0, axis=0))
    cov = np.flatnonzero(np.any(pairs.covariances != 0, axis=0))
    return np.concatenate([point, PAD_DIM + point, 2 * PAD_DIM + cov])


def _block_width(columns: np.ndarray) -> int:
    """How many of ``columns`` each coordinate block holds."""
    return int(np.searchsorted(columns, PAD_DIM))


def _column_tables(pairs: PairSet, columns: np.ndarray) -> tuple:
    """``pairs``' points and covariance tables cut to the feature ``columns``:
    (points, covariances), each a fresh row-major matrix."""
    width = _block_width(columns)
    points = pairs.points[:, columns[:width]]
    covariances = pairs.covariances[:, columns[2 * width :] - 2 * PAD_DIM]
    return np.ascontiguousarray(points), np.ascontiguousarray(covariances)


def _feature_rows(points: np.ndarray, covariances: np.ndarray, first, second, blocks, out=None) -> np.ndarray:
    """A feature matrix (``out`` if given, else a fresh one): row t holds
    ``points`` rows first[t] and second[t], then ``covariances`` row blocks[t].

    With a ``PairSet``'s own tables the rows are its (rows, 75) feature rows;
    with tables from ``_column_tables`` they hold only those columns.
    """
    width = points.shape[1]
    x = np.empty((first.shape[0], 2 * width + covariances.shape[1])) if out is None else out
    x[:, :width] = points[first]
    x[:, width : 2 * width] = points[second]
    x[:, 2 * width :] = covariances[blocks]
    return x


def _swap_coordinate_blocks(x: np.ndarray, width: int) -> None:
    """Exchange the two ``width``-column coordinate blocks of x's rows in place: the reversed pairs."""
    first = x[:, :width].copy()
    x[:, :width] = x[:, width : 2 * width]
    x[:, width : 2 * width] = first


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
    dataset id is p.  Each non-empty pick adds one block: its dataset's
    zero-padded points and its covariance features, computed once.  Rows
    outside ``[0, n)`` of their dataset and pairs of one point are rejected.
    """
    picks = [(p, np.asarray(rows_i, dtype=int), np.asarray(rows_j, dtype=int)) for p, rows_i, rows_j in picks]
    for p, rows_i, rows_j in picks:
        dataset, _truth = problems[p]
        if dataset.d > PAD_DIM:
            raise ValueError(f"dataset has {dataset.d} > {PAD_DIM} features")
        if rows_i.ndim != 1 or rows_i.shape != rows_j.shape:
            raise ValueError("rows_i and rows_j must be index vectors of one length")
        if np.any((rows_i < 0) | (rows_i >= dataset.n) | (rows_j < 0) | (rows_j >= dataset.n)):
            raise ValueError(f"pair rows must lie in [0, {dataset.n})")
        if np.any(rows_i == rows_j):
            raise ValueError("pair indices must differ")
    picks = [pick for pick in picks if pick[1].size]
    m = sum(rows_i.size for _p, rows_i, _rows_j in picks)
    points = np.zeros((sum(problems[p][0].n for p, _rows_i, _rows_j in picks), PAD_DIM))
    covariances = np.empty((len(picks), COV_DIM))
    rows = np.empty((2, m), dtype=int)
    blocks = np.empty(m, dtype=int)
    labels = np.empty(m, dtype=int)
    dataset_ids = np.empty(m, dtype=int)
    offset = stop = 0
    for b, (p, rows_i, rows_j) in enumerate(picks):
        dataset, truth = problems[p]
        points[offset : offset + dataset.n, : dataset.d] = dataset.points
        covariances[b] = _covariance_features(dataset.points)
        pair_rows = slice(stop, stop + rows_i.size)
        rows[0, pair_rows] = rows_i + offset
        rows[1, pair_rows] = rows_j + offset
        blocks[pair_rows] = b
        labels[pair_rows] = truth.labels[rows_i] == truth.labels[rows_j]
        dataset_ids[pair_rows] = p
        offset += dataset.n
        stop = pair_rows.stop
    return PairSet(
        points=points,
        covariances=covariances,
        rows_i=rows[0],
        rows_j=rows[1],
        blocks=blocks,
        labels=labels,
        dataset_ids=dataset_ids,
    )


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


def sample_pair_splits(repo: MetaRepository, seed: int = 0, max_pairs: int = 2500) -> tuple:
    """Sample the ``(meta_train, meta_it, meta_et)`` pair sets from a repository.

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
    if not isinstance(max_pairs, (int, np.integer)) or max_pairs < 2:
        raise ValueError(f"max_pairs must be an int >= 2, got {max_pairs!r}")
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

    split = tuple(build_pair_features(problems, picks) for picks in (train_picks, it_picks, et_picks))
    if not all(len(pairs) for pairs in split):
        raise DataError("a pair set came out empty; repository too small")
    return split


class MlpModel:
    """Fully connected net 75-100-50-25-12-2: ReLU hidden layers, log-softmax out.

    Every parameter lives in one flat float64 vector ``params``: the weight
    matrices, then the biases, in layer order.  ``weights`` and ``biases`` are
    reshaped views into it.  The constructor copies the arrays it is given.
    A net may read fewer than the 75 feature columns: the first weight matrix
    then has one row per column read (``_sub_net``).
    """

    def __init__(self, weights, biases):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        shapes = tuple(a.shape for a in arrays)
        n_inputs = len(arrays[0]) if arrays and arrays[0].ndim else FEATURE_DIM
        if n_inputs > FEATURE_DIM or shapes != _param_shapes(n_inputs):
            raise ValueError(
                f"layer dims {LAYER_DIMS}, with at most {FEATURE_DIM} inputs, need parameter shapes "
                f"{PARAM_SHAPES} with that many first-layer rows, got {shapes}"
            )
        self.params = np.concatenate([a.ravel() for a in arrays])
        views = _flat_views(self.params, shapes)
        self.weights = views[: len(views) // 2]
        self.biases = views[len(views) // 2 :]

    def forward(self, x: np.ndarray, outputs: Optional[list] = None) -> np.ndarray:
        """Log-probabilities, shape (batch, 2); layer outputs go into ``outputs`` if given (``_log_probs``)."""
        return _log_probs(self, x, outputs)


def _flat_views(flat: np.ndarray, shapes) -> list:
    """Views of ``flat``'s consecutive pieces, one reshaped to each of ``shapes``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _log_probs(model: MlpModel, x: np.ndarray, outputs: Optional[list] = None) -> np.ndarray:
    """Log-probabilities of x's rows, returned in the last layer's output.

    Layer l's output is written into ``outputs[l]``, a C-ordered (rows,
    fan_out) matrix, if ``outputs`` is given, else into a fresh array.
    """
    h = np.atleast_2d(np.asarray(x, dtype=float))
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = np.matmul(h, w, out=None if outputs is None else outputs[layer])
        h += b
        if layer < last:
            np.maximum(h, 0.0, out=h)
    h -= _logsumexp(h)
    return h


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


class _Workspace:
    """The buffers of a net's training steps on batches of ``rows`` rows, reused step after step.

    ``x`` takes a batch's feature rows and ``outputs[l]`` layer l's output;
    ``masks[l]`` takes hidden layer l's ReLU mask.  ``grad`` is one flat
    vector laid out like ``MlpModel.params``, and ``grads_w`` and
    ``grads_b`` are reshaped views into it.  The net may be any object with
    ``weights`` and ``biases`` lists.
    """

    def __init__(self, model, rows: int):
        shapes = [w.shape for w in model.weights] + [b.shape for b in model.biases]
        self.x = np.empty((rows, model.weights[0].shape[0]))
        self.outputs = [np.empty((rows, w.shape[1])) for w in model.weights]
        self.masks = [np.empty(h.shape, dtype=bool) for h in self.outputs[:-1]]
        self.grad = np.empty(sum(math.prod(shape) for shape in shapes))
        views = _flat_views(self.grad, shapes)
        self.grads_w, self.grads_b = views[: len(model.weights)], views[len(model.weights) :]
        self.rows = np.arange(rows)


def nll_loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray, workspace: Optional[_Workspace] = None) -> tuple:
    """Mean negative log-likelihood and its gradients w.r.t. every parameter:
    (loss, (grads_w, grads_b)).

    Layer outputs and gradients go into ``workspace``, a ``_Workspace`` of
    ``model`` for x's row count (a fresh one if none is given), so the
    gradients are views of its flat ``grad`` that the next call with it
    overwrites.  The backward pass writes the delta of each hidden layer's
    output over that output, once the weight gradient above it and its ReLU
    mask are taken.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    batch = x.shape[0]
    ws = _Workspace(model, batch) if workspace is None else workspace

    log_probs = _log_probs(model, x, ws.outputs)
    loss = -float(log_probs[ws.rows, y].mean())

    # Backprop: d(loss)/dz = (softmax - onehot) / batch.
    delta = np.exp(log_probs, out=log_probs)
    delta[ws.rows, y] -= 1.0
    delta /= batch
    activations = [x, *ws.outputs[:-1]]
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=ws.grads_w[layer])
        np.sum(delta, axis=0, out=ws.grads_b[layer])
        if layer > 0:
            mask = np.greater(activations[layer], 0, out=ws.masks[layer - 1])
            delta = np.matmul(delta, model.weights[layer].T, out=activations[layer])
            np.multiply(delta, mask, out=delta)
    return loss, (ws.grads_w, ws.grads_b)


def adadelta_step(param, grad, acc_grad, acc_update, scratch=None):
    """In-place elementwise Adadelta update (ADADELTA_RHO, ADADELTA_EPS); returns the delta.

    The update is ``delta = -sqrt(acc_update + eps) / sqrt(acc_grad + eps) * grad``,
    computed in that order of operations through ``scratch``, two arrays
    shaped like ``param`` (fresh ones if not given), without the negation:
    t = -delta, ``param -= t`` and ``acc_update += ((1 - rho) * t) * t``
    have the bits of ``param += delta`` and ``((1 - rho) * delta) * delta``
    in IEEE arithmetic.  The returned delta is held in the first scratch array.
    """
    t, s = (np.empty_like(param), np.empty_like(param)) if scratch is None else scratch
    acc_grad *= ADADELTA_RHO
    np.multiply(grad, 1.0 - ADADELTA_RHO, out=s)
    s *= grad
    acc_grad += s
    np.add(acc_update, ADADELTA_EPS, out=t)
    np.sqrt(t, out=t)
    np.add(acc_grad, ADADELTA_EPS, out=s)
    np.sqrt(s, out=s)
    t /= s
    t *= grad
    acc_update *= ADADELTA_RHO
    np.multiply(t, 1.0 - ADADELTA_RHO, out=s)
    s *= t
    acc_update += s
    param -= t
    return np.negative(t, out=t)


def _sub_net(model: MlpModel, columns: np.ndarray) -> MlpModel:
    """A net with ``model``'s parameters that reads only the feature ``columns``:
    its first weight matrix is ``model.weights[0][columns]``."""
    return MlpModel([model.weights[0][columns], *model.weights[1:]], model.biases)


def _write_back(model: MlpModel, net: MlpModel, columns: np.ndarray) -> None:
    """Copy the parameters of ``net``, a trained ``_sub_net(model, columns)``,
    into ``model``; the first-layer rows of the other columns keep their values."""
    model.weights[0][columns] = net.weights[0]
    model.params[model.weights[0].size :] = net.params[net.weights[0].size :]


def train_mlp(meta_train: PairSet, epochs: int = 10, batch: int = 250, seed: int = 0) -> MlpModel:
    """Train on both orders of every pair: NLL objective, Adadelta updates, fixed shuffles.

    Each epoch shuffles 2m training rows, where row r is pair r // 2, in
    reversed order when r is odd, with that pair's label.  Each epoch looks
    up the rows' points rows, covariance rows and labels once, in shuffled
    order; each batch's feature rows are gathered for it, and each batch
    makes one Adadelta step on the flat parameter vector.  A step allocates
    no array of a layer's size: feature rows, layer outputs and gradients
    go into the ``_Workspace`` of the batch's size (one for the full batch,
    one for a short last batch), and Adadelta runs through two scratch
    vectors.

    Only the set's active feature columns (``_active_columns``) are built and
    trained: a sub-net (``_sub_net``) holds the first-layer rows of those
    columns and every other parameter, with its own Adadelta accumulators,
    and is written back into the full model at the end.  The other
    first-layer rows keep their initial values; full-width training leaves
    them so too, since their inputs, and so their gradients, are 0.
    """
    if len(meta_train) == 0:
        raise ValueError("training set must be non-empty")
    if not isinstance(epochs, (int, np.integer)) or epochs < 1:
        raise ValueError(f"epochs must be an int >= 1, got {epochs!r}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    columns = _active_columns(meta_train)
    points, covariances = _column_tables(meta_train, columns)
    model = init_mlp(seed)
    net = _sub_net(model, columns)
    acc_grad, acc_update = np.zeros_like(net.params), np.zeros_like(net.params)
    scratch = (np.empty_like(net.params), np.empty_like(net.params))
    n = 2 * len(meta_train)
    # One workspace for the full batch and one for a short last batch.
    workspaces = {rows: _Workspace(net, rows) for rows in {min(batch, n), n - (n - 1) // batch * batch}}
    # One column per pair: its two points rows, its covariance row and its label.
    table = np.stack([meta_train.rows_i, meta_train.rows_j, meta_train.blocks, meta_train.labels])
    for epoch in range(epochs):
        rng = np.random.default_rng(derive_seed(seed, 1 + epoch))
        order = rng.permutation(n)
        plan = table[:, order // 2]
        swapped = order % 2 == 1
        plan[:2, swapped] = plan[1::-1, swapped]  # odd rows give their pair in reversed order
        for start in range(0, n, batch):
            first, second, blocks, labels = plan[:, start : start + batch]
            workspace = workspaces[labels.shape[0]]
            x = _feature_rows(points, covariances, first, second, blocks, out=workspace.x)
            nll_loss_and_grads(net, x, labels, workspace)
            adadelta_step(net.params, workspace.grad, acc_grad, acc_update, scratch)
    _write_back(model, net, columns)
    return model


def predict_features(model: MlpModel, features: np.ndarray, columns=None) -> tuple:
    """(probability_same, decision) with symmetric two-order averaging.

    Works on a (batch, len(columns)) matrix holding the feature ``columns``
    (ascending indices into the 75, the same coordinates in both blocks, as
    ``_active_columns`` gives them; by default all 75); ``model`` reads them
    through the matching rows of its first weight matrix.  The swapped order
    is derived by exchanging the two coordinate blocks of a writable
    C-ordered matrix in place, and back before return; any other is copied
    to one first, as a caller's memory order would move last bits (the width
    still can: a row on 75 columns against its active ones).  Decision is
    same-cluster iff the averaged probability strictly exceeds 0.5.
    """
    columns = np.arange(FEATURE_DIM) if columns is None else np.asarray(columns, dtype=int)
    width = _block_width(columns)
    ascending = np.array_equal(columns, np.unique(columns[(columns >= 0) & (columns < FEATURE_DIM)]))
    if not (ascending and np.array_equal(columns[width : 2 * width], columns[:width] + PAD_DIM)):
        raise ValueError(f"columns must ascend in [0, {FEATURE_DIM}) and hold the same coordinates in both blocks")
    net = _sub_net(model, columns)
    x = np.require(np.atleast_2d(features), dtype=float, requirements="CW")
    # One pair of buffers serves both orders: even layers write into the first, odd ones into the second.
    rows, widths = x.shape[0], [w.shape[1] for w in net.weights]
    pair = [np.empty(rows * max(widths[parity::2])) for parity in (0, 1)]
    outputs = [pair[layer % 2][: rows * fan_out].reshape(rows, fan_out) for layer, fan_out in enumerate(widths)]
    p_fwd = np.exp(net.forward(x, outputs)[:, 1])
    _swap_coordinate_blocks(x, width)
    p_swp = np.exp(net.forward(x, outputs)[:, 1])
    _swap_coordinate_blocks(x, width)
    p = (p_fwd + p_swp) / 2.0
    return p, p > 0.5


def majority_baseline(pairs: PairSet) -> float:
    """Prescient per-problem majority rule accuracy, averaged over problems.

    Problems are taken in ascending id order; ids without rows take no part.
    """
    if not len(pairs):
        raise ValueError("pair set must be non-empty")
    n_pairs = np.bincount(pairs.dataset_ids)
    n_same = np.bincount(pairs.dataset_ids, weights=pairs.labels)
    present = n_pairs > 0
    frac_same = n_same[present] / n_pairs[present]
    accs = np.maximum(frac_same, 1.0 - frac_same).tolist()
    return sum(accs) / len(accs)


def _predict_pairs(model: MlpModel, pairs: PairSet) -> tuple:
    """(probability_same, decision) of every pair, predicted in balanced parts.

    The m pairs are cut into ``ceil(m / PREDICT_ROWS)`` parts of near-equal
    size (``np.array_split``), and only one part's feature rows and layer
    outputs are live at a time.  The rows hold only the set's active
    columns (``_active_columns``, found once per set).  The parts are
    balanced rather than fixed slices with a short last one: with numpy
    2.4.6 and scipy-openblas 0.3.31, balanced parts give probabilities
    bitwise equal to one whole-matrix ``predict_features`` call, while a
    short remainder slice moved the last bits of some.
    """
    m = len(pairs)
    columns = _active_columns(pairs)
    points, covariances = _column_tables(pairs, columns)
    probabilities = np.empty(m)
    decisions = np.empty(m, dtype=bool)
    for part in np.array_split(np.arange(m), max(1, math.ceil(m / PREDICT_ROWS))):
        x = _feature_rows(points, covariances, pairs.rows_i[part], pairs.rows_j[part], pairs.blocks[part])
        probabilities[part], decisions[part] = predict_features(model, x, columns)
    return probabilities, decisions


def _model_accuracy(model: MlpModel, pairs: PairSet) -> float:
    """Accuracy on one non-empty set, predicted part by part (``_predict_pairs``)."""
    if not len(pairs):
        raise ValueError("pair set must be non-empty")
    _p, decisions = _predict_pairs(model, pairs)
    return float((decisions.astype(int) == pairs.labels).mean())


def evaluate_bsf(model: MlpModel, meta_it: PairSet, meta_et: PairSet) -> tuple:
    """``(acc_meta_it, acc_meta_et, acc_majority_it, acc_majority_et)``: pair
    accuracy of the model and of the majority baseline on both test sets."""
    return (
        _model_accuracy(model, meta_it),
        _model_accuracy(model, meta_et),
        majority_baseline(meta_it),
        majority_baseline(meta_et),
    )
