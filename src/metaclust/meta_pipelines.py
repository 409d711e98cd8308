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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from metaclust.clusterers import ClustererSpec, kmeans, run_spec
from metaclust.data_model import Dataset, MetaRepository, Partition, SplitSpec, covariance, derive_seed, split_repository
from metaclust.metrics import adjusted_rand_index, pairwise_distances, silhouette_score
from metaclust.regression import LinearModel, fit_least_squares, phi_features, predict, symmetric_eigen_extrema

__all__ = [
    "RunRecord",
    "MetaKModel",
    "MetaKEvaluation",
    "AlgoSelectModel",
    "OutlierSweepResult",
    "DEFAULT_K_RANGE",
    "generate_runs",
    "repo_runs",
    "best_fit_k",
    "baseline_k_silhouette",
    "baseline_record",
    "train_meta_k",
    "predict_k",
    "meta_selected_record",
    "evaluate_meta_k",
    "train_algo_select",
    "select_algorithm",
    "evaluate_algo_select",
    "sweep_outlier_fraction",
]

DEFAULT_K_RANGE = tuple(range(2, 11))
DEFAULT_RESTARTS = 10


@dataclass(frozen=True)
class RunRecord:
    """One base-clusterer run: its silhouette, its ARI (if labeled), its partition."""

    dataset_id: str
    k: int
    run_index: int
    silhouette: float
    ari: Optional[float]
    partition: Partition


def _prune_indices(points: np.ndarray, theta: float, use_raw_norm: bool) -> tuple:
    """(outlier indices, inlier indices): floor(theta*n) furthest points set aside."""
    n = points.shape[0]
    n_out = int(math.floor(theta * n))
    if n_out == 0:
        return np.empty(0, dtype=int), np.arange(n)
    ref = points if use_raw_norm else points - points.mean(axis=0)
    dist = np.sqrt((ref**2).sum(axis=1))
    order = np.lexsort((np.arange(n), -dist))
    return np.sort(order[:n_out]), np.sort(order[n_out:])


def generate_runs(
    dataset: Dataset,
    truth: Optional[Partition],
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    theta: float = 0.0,
    use_raw_norm: bool = False,
) -> list:
    """Single-start k-means runs for every (k, run) cell.

    Each run uses its own sub-seed.  Silhouette is always computed (on the
    pruned data when theta > 0, from one distance matrix shared by all
    cells); ARI is computed iff a ground truth is given, always against the
    full-data partition after reattaching pruned points to their nearest
    center.
    """
    points = dataset.points
    outliers, inliers = _prune_indices(points, theta, use_raw_norm)
    work = points if outliers.size == 0 else points[inliers]
    if work.shape[0] < max(k_range):
        raise ValueError(f"{work.shape[0]} points cannot support k={max(k_range)}")

    dist = pairwise_distances(work)
    records = []
    for k in k_range:
        for run in range(restarts):
            result = kmeans(work, k, restarts=1, seed=derive_seed(seed, k, run))
            sil = silhouette_score(work, result.partition, dist=dist)
            if outliers.size == 0:
                full = result.partition
            else:
                parts = [list(inliers[list(p)]) for p in result.partition.parts]
                d2 = ((points[outliers][:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
                for out_idx, center_idx in zip(outliers, np.argmin(d2, axis=1)):
                    parts[center_idx].append(int(out_idx))
                full = Partition(n_items=points.shape[0], parts=tuple(tuple(sorted(p)) for p in parts))
            ari = adjusted_rand_index(truth.n_items, truth, full) if truth is not None else None
            records.append(
                RunRecord(
                    dataset_id=dataset.id,
                    k=k,
                    run_index=run,
                    silhouette=sil,
                    ari=ari,
                    partition=full,
                )
            )
    return records


def repo_runs(
    repo: MetaRepository,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    theta: float = 0.0,
    use_raw_norm: bool = False,
) -> list:
    """Per-problem run records for the whole repository (one sub-seed per problem)."""
    return [
        generate_runs(ds, truth, k_range, restarts, derive_seed(seed, i), theta, use_raw_norm)
        for i, (ds, truth) in enumerate(repo.problems)
    ]


def best_fit_k(records: Sequence[RunRecord]) -> int:
    """The k whose best-run ARI is maximal; ties go to the smallest k."""
    best_per_k: dict = {}
    for rec in records:
        if rec.ari is None:
            raise ValueError("best_fit_k needs labeled records")
        if rec.k not in best_per_k or rec.ari > best_per_k[rec.k]:
            best_per_k[rec.k] = rec.ari
    return min(best_per_k, key=lambda k: (-best_per_k[k], k))


def baseline_record(records: Sequence[RunRecord]) -> RunRecord:
    """The record with maximal silhouette; ties toward smaller (k, run)."""
    return min(records, key=lambda r: (-r.silhouette, r.k, r.run_index))


def baseline_k_silhouette(records: Sequence[RunRecord]) -> int:
    """The silhouette-argmax heuristic's choice of k."""
    return baseline_record(records).k


@dataclass(frozen=True)
class MetaKModel:
    """One silhouette-to-ARI linear model per candidate k."""

    models: tuple  # tuple of (k, LinearModel), ascending k

    def __post_init__(self):
        models = tuple(self.models)
        ks = [k for k, _m in models]
        if ks != sorted(set(ks)):
            raise ValueError("exactly one model per k, ascending")
        object.__setattr__(self, "models", models)

    def model_for(self, k: int) -> LinearModel:
        for kk, m in self.models:
            if kk == k:
                return m
        raise KeyError(f"no model for k={k}")

    @property
    def k_range(self) -> tuple:
        return tuple(k for k, _m in self.models)


def train_meta_k(per_problem_records: Sequence, k_range: Sequence[int] = DEFAULT_K_RANGE) -> MetaKModel:
    """Fit per-k least squares of ARI on silhouette, pooled over problems and runs."""
    by_k: dict = {k: ([], []) for k in k_range}
    for records in per_problem_records:
        for rec in records:
            if rec.k in by_k:
                if rec.ari is None:
                    raise ValueError("training records must carry ARI")
                by_k[rec.k][0].append([rec.silhouette])
                by_k[rec.k][1].append(rec.ari)
    models = []
    for k in k_range:
        feats, targets = by_k[k]
        if not feats:
            raise ValueError(f"no training records for k={k}")
        models.append((k, fit_least_squares(feats, targets)))
    return MetaKModel(models=tuple(models))


def meta_selected_record(model: MetaKModel, records: Sequence[RunRecord]) -> RunRecord:
    """The record with maximal predicted ARI; ties toward smaller (k, run).

    Per-k scores are maxima over runs, so the global argmax coincides with
    argmax-over-k of the per-k maxima, with the same tie-breaking.
    """
    return min(
        records,
        key=lambda r: (-predict(model.model_for(r.k), [r.silhouette]), r.k, r.run_index),
    )


def predict_k(model: MetaKModel, records: Sequence[RunRecord]) -> int:
    """Predicted best k: argmax over k of the per-k max predicted ARI."""
    return meta_selected_record(model, records).k


@dataclass(frozen=True)
class MetaKEvaluation:
    rmse_meta: float
    rmse_baseline: float
    mean_ari_meta: float
    mean_ari_baseline: float


def evaluate_meta_k(model: MetaKModel, test_records: Sequence) -> MetaKEvaluation:
    """RMSE of meta/baseline k against the best-fit k, plus achieved mean ARI.

    ``test_records`` is a list of per-problem labeled record lists.
    """
    sq_meta = []
    sq_base = []
    ari_meta = []
    ari_base = []
    for records in test_records:
        k_star = best_fit_k(records)
        meta_rec = meta_selected_record(model, records)
        base_rec = baseline_record(records)
        sq_meta.append((meta_rec.k - k_star) ** 2)
        sq_base.append((base_rec.k - k_star) ** 2)
        ari_meta.append(meta_rec.ari)
        ari_base.append(base_rec.ari)
    n = len(test_records)
    return MetaKEvaluation(
        rmse_meta=math.sqrt(sum(sq_meta) / n),
        rmse_baseline=math.sqrt(sum(sq_base) / n),
        mean_ari_meta=sum(ari_meta) / n,
        mean_ari_baseline=sum(ari_base) / n,
    )


@dataclass(frozen=True)
class AlgoSelectModel:
    """Per-member linear models over the 5 meta-features, plus failure count."""

    members: tuple  # tuple of (ClustererSpec, LinearModel)
    n_failed_rows: int = 0


def train_algo_select(specs: Sequence[ClustererSpec], train: Sequence, seed: int = 0) -> AlgoSelectModel:
    """Fit one ARI-predicting model per family member on the training problems.

    A member failure yields a flagged training row with silhouette 0 and
    target ARI 0 (rows are kept so design matrices stay aligned).
    """
    if not train:
        raise ValueError("training set must be non-empty")
    members = []
    n_failed = 0
    for j, spec in enumerate(specs):
        spec = ClustererSpec(
            kind=spec.kind,
            k=spec.k,
            normalize_first=spec.normalize_first,
            restarts=spec.restarts,
            seed=derive_seed(seed, j),
        )
        feats = []
        targets = []
        for ds, truth in train:
            try:
                result = run_spec(spec, ds.points)
                phi = phi_features(ds, result.partition)
                ari = adjusted_rand_index(truth.n_items, truth, result.partition)
            except ValueError:
                lo, hi = symmetric_eigen_extrema(covariance(ds.points))
                phi_vec = np.array([ds.d, ds.n, lo, hi, 0.0])
                feats.append(phi_vec)
                targets.append(0.0)
                n_failed += 1
                continue
            feats.append(phi.as_vector())
            targets.append(ari)
        members.append((spec, fit_least_squares(feats, targets)))
    return AlgoSelectModel(members=tuple(members), n_failed_rows=n_failed)


def select_algorithm(model: AlgoSelectModel, dataset: Dataset) -> tuple:
    """Run every member, predict its ARI, output the best-predicted clustering.

    Returns (member name, partition, {name: predicted ARI}, {name: partition
    of every member whose run succeeded}).  Ties break toward the earliest
    member; failing members are skipped, and an error is raised only if
    every member fails.
    """
    scores = {}
    partitions = {}
    candidates = []
    for spec, lm in model.members:
        try:
            result = run_spec(spec, dataset.points)
        except ValueError:
            continue
        partitions[spec.name] = result.partition
        try:
            phi = phi_features(dataset, result.partition)
        except ValueError:
            continue
        a_j = predict(lm, phi.as_vector())
        scores[spec.name] = a_j
        candidates.append((a_j, len(candidates), spec.name, result.partition))
    if not candidates:
        raise RuntimeError("every family member failed on this dataset")
    best = min(candidates, key=lambda c: (-c[0], c[1]))
    return best[2], best[3], scores, partitions


def evaluate_algo_select(model: AlgoSelectModel, test: Sequence) -> tuple:
    """(meta mean ARI, {member name: fixed-member mean ARI}) on labeled problems.

    Each member runs once per test problem, inside ``select_algorithm``; its
    partition is scored here.  A failed run contributes ARI 0.
    """
    meta_total = 0.0
    member_totals = {spec.name: 0.0 for spec, _lm in model.members}
    for ds, truth in test:
        _name, partition, _scores, partitions = select_algorithm(model, ds.without_labels())
        meta_total += adjusted_rand_index(truth.n_items, truth, partition)
        for spec, _lm in model.members:
            if spec.name in partitions:
                member_totals[spec.name] += adjusted_rand_index(truth.n_items, truth, partitions[spec.name])
    n = len(test)
    return meta_total / n, {name: total / n for name, total in member_totals.items()}


@dataclass(frozen=True)
class OutlierSweepResult:
    """Mean test ARI per pruning fraction; best_p attains the max (ties: smaller p)."""

    per_p: tuple  # tuple of (p, mean test ARI), in p order
    best_p: float


DEFAULT_P_GRID = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)


def sweep_outlier_fraction(
    repo: MetaRepository,
    splits: Sequence[SplitSpec],
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    k_range: Sequence[int] = DEFAULT_K_RANGE,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    use_raw_norm: bool = False,
) -> list:
    """Rerun the meta-k pipeline at each pruning fraction and compare test ARI.

    Returns one ``OutlierSweepResult`` per split, in split order.  The run
    grid of a fraction does not depend on the split, so it is computed once
    per fraction, and every split is evaluated on it before the next
    fraction's grid replaces it.  Per-k models are refit for every (p, split);
    silhouettes come from the pruned data, ARIs from the full data after
    reattachment.  The p = 0 column reproduces the plain meta-k pipeline
    exactly.
    """
    split_indices = [split_repository(repo, split) for split in splits]
    per_split = [[] for _ in split_indices]
    for p in p_grid:
        records = repo_runs(repo, k_range, restarts, seed, theta=p, use_raw_norm=use_raw_norm)
        for per_p, (train_idx, test_idx) in zip(per_split, split_indices):
            model = train_meta_k([records[i] for i in train_idx], k_range)
            evaluation = evaluate_meta_k(model, [records[i] for i in test_idx])
            per_p.append((p, evaluation.mean_ari_meta))
    return [
        OutlierSweepResult(per_p=tuple(per_p), best_p=min(per_p, key=lambda t: (-t[1], t[0]))[0])
        for per_p in per_split
    ]
