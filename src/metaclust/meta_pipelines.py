"""Meta-learning experiment pipelines.

Three train/predict/evaluate pipelines over a labeled problem repository:

* algorithm selection: per-member linear models over meta-features predict
  the achievable ARI and the best-predicted member clusters new data;
* meta-k: per-k linear models map silhouette to predicted ARI and the
  best-predicted k replaces the silhouette-argmax heuristic;
* outlier-fraction sweep: the meta-k pipeline rerun at each pruning fraction
  to choose a single best fraction to remove.

All stages are deterministic functions of (repository, seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from metaclust.clusterers import ClustererSpec, kmeans, run_spec
from metaclust.data_model import (
    DataError,
    Dataset,
    MetaRepository,
    Partition,
    covariance,
    derive_seed,
    normalize_points,
    squared_distances,
)
from metaclust.metrics import adjusted_rand_index, silhouette_score
from metaclust.regression import fit_least_squares, phi_features, predict, symmetric_eigen_extrema

__all__ = [
    "MemberRecord",
    "DEFAULT_K_RANGE",
    "generate_runs",
    "repo_runs",
    "train_meta_k",
    "evaluate_meta_k",
    "member_records",
    "train_algo_select",
    "select_algorithm",
    "evaluate_algo_select",
    "sweep_outlier_fraction",
]

DEFAULT_K_RANGE = tuple(range(2, 11))
DEFAULT_RESTARTS = 10


def _prune_indices(points: np.ndarray, theta: float, use_raw_norm: bool) -> tuple:
    """(outlier indices, inlier indices): floor(theta*n) furthest points set aside."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    n = points.shape[0]
    n_out = int(math.floor(theta * n))
    if n_out == 0:
        return np.empty(0, dtype=int), np.arange(n)
    ref = points if use_raw_norm else points - points.mean(axis=0)
    dist = np.sqrt((ref**2).sum(axis=1))
    order = np.lexsort((np.arange(n), -dist))
    return np.sort(order[:n_out]), np.sort(order[n_out:])


def _first_appearance_labels(labels: np.ndarray) -> np.ndarray:
    """Each row of an (R, n) label array renumbered 0, 1, ... in order of
    first appearance; every label 0..max must occur in every row.

    Two rows come out equal exactly when they are the same partition.
    """
    present = labels[:, :, None] == np.arange(labels.max() + 1)
    first = present.argmax(axis=1)  # (R, K): where each label first occurs
    rank = np.argsort(np.argsort(first, axis=1), axis=1)
    return np.take_along_axis(rank, labels, axis=1)


def generate_runs(
    dataset: Dataset,
    truth: Partition,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    theta: float = 0.0,
    use_raw_norm: bool = False,
) -> tuple:
    """Single-start k-means runs for every (k, run) cell of an ascending k range.

    Returns ``(silhouette, ari)``, two read-only ``(len(k_range), restarts)``
    arrays: row i holds the runs of ``k_range[i]``, so row-major order is
    (k, run) order.

    Each run uses its own sub-seed, and the runs of one k are one lockstep
    ``kmeans`` call.  Silhouette is computed on the pruned data when
    theta > 0, from one distance matrix shared by all cells, and the
    squared distances under it seed every run's k-means++ init.  ARI is
    always computed against the full-data partition after reattaching pruned
    points to their nearest center.  Both scores are computed once per
    distinct partition, the only ones built as a ``Partition``, and reused
    for every cell that repeats it under other part ids: neither score
    depends on the part ids, to the bit.
    """
    k_range = tuple(k_range)
    if not k_range or any(a >= b for a, b in zip(k_range, k_range[1:])):
        raise ValueError(f"k_range must ascend without repeats, got {k_range}")
    points = dataset.points
    outliers, inliers = _prune_indices(points, theta, use_raw_norm)
    work = points if outliers.size == 0 else points[inliers]
    if work.shape[0] < k_range[-1]:
        raise ValueError(f"{work.shape[0]} points cannot support k={k_range[-1]}")

    sq = squared_distances(work)
    dist = np.sqrt(sq)  # the bits of pairwise_distances(work)
    sil = np.empty((len(k_range), restarts))
    ari = np.empty((len(k_range), restarts))
    sil_of, ari_of = {}, {}  # score by the partition's first-appearance labels
    for i, k in enumerate(k_range):
        seeds = [derive_seed(derive_seed(seed, k, run), 0) for run in range(restarts)]
        labels, sizes, centers, _ = kmeans(work, k, seeds, sq_dist=sq)
        sil_keys = _first_appearance_labels(labels)
        if outliers.size == 0:
            ari_keys = sil_keys  # the same partitions, scored beside the silhouettes below
        else:
            d2 = ((points[outliers][None, :, None, :] - centers[:, None, :, :]) ** 2).sum(axis=3)
            full_labels = np.empty((restarts, points.shape[0]), dtype=np.int64)
            full_labels[:, inliers] = labels
            full_labels[:, outliers] = np.argmin(d2, axis=2)
            ari_keys = _first_appearance_labels(full_labels)
        for run in range(restarts):
            key = sil_keys[run].tobytes()
            if key not in sil_of:
                partition = Partition._dense(labels[run], sizes[run])
                sil_of[key] = silhouette_score(work, partition, dist=dist)
                if outliers.size == 0:
                    ari_of[key] = adjusted_rand_index(truth, partition)
            sil[i, run] = sil_of[key]
            key = ari_keys[run].tobytes()
            if key not in ari_of:
                full = Partition._dense(full_labels[run], np.bincount(full_labels[run], minlength=k))
                ari_of[key] = adjusted_rand_index(truth, full)
            ari[i, run] = ari_of[key]
    for a in (sil, ari):
        a.setflags(write=False)
    return sil, ari


def repo_runs(
    repo: MetaRepository,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    theta: float = 0.0,
    use_raw_norm: bool = False,
) -> tuple:
    """``(silhouette, ari)``: every problem's ``generate_runs`` arrays (one
    sub-seed per problem), stacked into read-only ``(problems,
    len(k_range), restarts)`` arrays, so a split side is ``sil[idx]``."""
    if not repo.problems:
        raise ValueError("the repository has no problems to run")
    runs = [
        generate_runs(ds, truth, k_range, restarts, derive_seed(seed, i), theta, use_raw_norm)
        for i, (ds, truth) in enumerate(repo.problems)
    ]
    stacks = tuple(np.stack(side) for side in zip(*runs))
    for a in stacks:
        a.setflags(write=False)
    return stacks


def _stack_shape(sil: np.ndarray, ari: np.ndarray, side: str) -> tuple:
    """The (problems, k rows, runs) shape of one split side's run stacks."""
    if sil.ndim != 3 or sil.shape != ari.shape:
        raise ValueError("silhouette and ari must both be (problems, k rows, runs) arrays")
    if not len(sil):
        raise ValueError(f"{side} set must be non-empty")
    return sil.shape


def train_meta_k(sil: np.ndarray, ari: np.ndarray) -> np.ndarray:
    """Fit per-k least squares of ARI on silhouette, pooled over problems and runs.

    ``sil`` and ``ari`` are ``(problems, k rows, runs)`` stacks, as
    ``repo_runs`` returns; k row i is pooled in (problem, run) order.
    Returns the read-only ``(k rows, 2)`` array whose row i holds the slope
    and intercept of k row i.
    """
    _problems, rows, _runs = _stack_shape(sil, ari, "training")
    pooled_sil, pooled_ari = (a.transpose(1, 0, 2).reshape(rows, -1) for a in (sil, ari))
    coef = np.array([fit_least_squares(s[:, None], a) for s, a in zip(pooled_sil, pooled_ari)])
    coef.setflags(write=False)
    return coef


def evaluate_meta_k(coef: np.ndarray, k_range: Sequence[int], sil: np.ndarray, ari: np.ndarray) -> tuple:
    """``(rmse_meta, rmse_baseline, mean_ari_meta, mean_ari_baseline)`` over the test problems.

    Row i of ``coef`` and ``k_range[i]`` belong to k row i of the
    ``(problems, k rows, runs)`` stacks.  On each problem the best-fit k has
    the highest best-run ARI, the baseline takes the cell of highest
    silhouette and meta-k the cell of highest predicted ARI; every rule
    takes the first maximum in (k, run) order, so ties go to the smaller k,
    then run.  The RMSEs measure the chosen k against the best-fit k, and
    the chosen cells' ARIs are averaged in problem order.
    """
    problems, rows, runs = _stack_shape(sil, ari, "test")
    if coef.shape != (rows, 2) or len(k_range) != rows:
        raise ValueError(f"need one (slope, intercept) row and one k per k row, got {coef.shape} and {k_range}")
    # One predict call per k row on a (problems * runs, 1) column: one product per entry, as per run.
    predicted = np.stack(
        [predict(c, sil[:, i].reshape(-1, 1)).reshape(problems, runs) for i, c in enumerate(coef)], axis=1
    )
    k = np.asarray(k_range)
    k_star = k[np.argmax(ari.max(axis=2), axis=1)]
    cells = [np.argmax(a.reshape(problems, -1), axis=1) for a in (predicted, sil)]  # meta, baseline
    rmse = [math.sqrt(int(((k[cell // runs] - k_star) ** 2).sum()) / problems) for cell in cells]
    mean_ari = [sum(ari.reshape(problems, -1)[np.arange(problems), cell].tolist()) / problems for cell in cells]
    return (*rmse, *mean_ari)


@dataclass(frozen=True, eq=False)
class MemberRecord:
    """Every family member's run on one problem, in member order.

    Row j of the read-only (members, 5) ``rows`` is member j's meta-feature
    row, or the flagged ``[d, n, lo, hi, 0]`` where ``has_features[j]`` is
    false; ``ari[j]`` is its ARI against the truth, 0 if its run failed.
    """

    dataset_id: str
    rows: np.ndarray
    has_features: np.ndarray
    ari: np.ndarray


def member_records(specs: Sequence[ClustererSpec], problems: Sequence, seed: int = 0) -> list:
    """One ``MemberRecord`` per (dataset, truth) problem, in problem order.

    Member j runs once per problem with seed ``derive_seed(seed, j)``; a
    command builds the records once and each split gathers its rows.  A run
    that raises ``ValueError`` has ARI 0 and no meta-features, and
    meta-features that raise it leave none; any other exception propagates.
    Per problem, the distance matrix and eigenvalue extrema are computed once
    for every member's meta-features, and the squared distances of the raw
    (and, if a member normalizes, the normalized) points once for every run.
    """
    specs = [replace(spec, seed=derive_seed(seed, j)) for j, spec in enumerate(specs)]
    records = []
    for dataset, truth in problems:
        sq_dist = {False: squared_distances(dataset.points)}
        if any(spec.normalize_first for spec in specs):
            sq_dist[True] = squared_distances(normalize_points(dataset.points))
        dist = np.sqrt(sq_dist[False])  # the bits of pairwise_distances(dataset.points)
        lo, hi = extrema = symmetric_eigen_extrema(covariance(dataset.points))
        rows = np.tile([dataset.d, dataset.n, lo, hi, 0.0], (len(specs), 1))
        has_features, ari = np.zeros(len(specs), dtype=bool), np.zeros(len(specs))
        for j, spec in enumerate(specs):
            try:
                partition = run_spec(spec, dataset.points, sq_dist=sq_dist[spec.normalize_first])
            except ValueError:
                continue
            ari[j] = adjusted_rand_index(truth, partition)
            try:
                rows[j], has_features[j] = phi_features(dataset, partition, dist, extrema), True
            except ValueError:
                pass
        for a in (rows, has_features, ari):
            a.setflags(write=False)
        records.append(MemberRecord(dataset.id, rows, has_features, ari))
    return records


def train_algo_select(train: Sequence) -> np.ndarray:
    """Fit one ARI regression per family member on its rows of the training records.

    Returns the read-only ``(members, 6)`` coefficient array: row j holds
    member j's five weights and intercept.  The rows stack in problem order;
    a flagged row, without meta-features, has target 0 (rows are kept so
    designs stay aligned).
    """
    if not train:
        raise ValueError("training set must be non-empty")
    rows = np.stack([record.rows for record in train], axis=1)  # (members, problems, 5)
    has_features = np.stack([record.has_features for record in train], axis=1)
    targets = np.where(has_features, np.stack([record.ari for record in train], axis=1), 0.0)
    coef = np.array([fit_least_squares(x, y) for x, y in zip(rows, targets)])
    coef.setflags(write=False)
    return coef


def select_algorithm(coef: np.ndarray, record: MemberRecord) -> int:
    """The position of the member with the highest predicted ARI on the record's problem.

    Row j of ``coef`` is member j's (weights, intercept), as ``train_algo_select`` returns.

    Ties break toward the earliest member, and a member without meta-features
    is no candidate; ``DataError`` names the dataset if none can be scored.
    """
    best, best_score = None, None
    for j, (member_coef, row, scored) in enumerate(zip(coef, record.rows, record.has_features, strict=True)):
        if not scored:
            continue
        score = predict(member_coef, row)  # a dot product per member: one matrix product need not round alike
        if best is None or score > best_score:  # strict: ties keep the earlier member
            best, best_score = j, score
    if best is None:
        raise DataError(f"dataset {record.dataset_id!r}: no family member could be scored")
    return best


def evaluate_algo_select(coef: np.ndarray, test: Sequence) -> tuple:
    """(meta mean ARI, [fixed-member mean ARI in member order]) over the test records.

    ARIs are summed as Python floats in problem order; a failed run adds 0.
    """
    if not test:
        raise ValueError("test set must be non-empty")
    meta_total, member_totals = 0.0, [0.0] * len(coef)
    for record in test:
        aris = record.ari.tolist()
        meta_total += aris[select_algorithm(coef, record)]
        member_totals = [total + ari for total, ari in zip(member_totals, aris)]
    n = len(test)
    return meta_total / n, [total / n for total in member_totals]


DEFAULT_P_GRID = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)


def sweep_outlier_fraction(
    repo: MetaRepository,
    splits: Sequence,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    use_raw_norm: bool = False,
) -> tuple:
    """Rerun the meta-k pipeline at each pruning fraction and compare test ARI.

    ``splits`` are ``(train_idx, test_idx)`` pairs, as ``split_repository``
    returns.  Returns ``(ari, best_p)``: ``ari[s, j]`` is split s's mean test
    ARI at ``p_grid[j]``, and ``best_p[s]`` the fraction with split s's
    highest ARI, ties going to the smaller p.  The run grid of a fraction
    does not depend on the split, so it is computed once per fraction, and
    every split is evaluated on it before the next fraction's grid replaces
    it.  Per-k models are refit for every (p, split); silhouettes come from
    the pruned data, ARIs from the full data after reattachment.  The p = 0
    column reproduces the plain meta-k pipeline exactly.
    """
    ari = np.empty((len(splits), len(p_grid)))
    for j, p in enumerate(p_grid):
        run_sil, run_ari = repo_runs(repo, k_range, restarts, seed, theta=p, use_raw_norm=use_raw_norm)
        for s, (train_idx, test_idx) in enumerate(splits):
            coef = train_meta_k(run_sil[train_idx], run_ari[train_idx])
            ari[s, j] = evaluate_meta_k(coef, k_range, run_sil[test_idx], run_ari[test_idx])[2]
    ascending = np.argsort(p_grid)  # argmax takes the first maximum, so ties go to the smaller p
    best_p = np.asarray(p_grid, dtype=float)[ascending][np.argmax(ari[:, ascending], axis=1)]
    return ari, best_p
