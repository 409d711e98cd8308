"""Supervised machinery for the meta layer.

Least-squares linear regression (with a ridge fallback for rank-deficient
designs) and the five-number meta-feature vector used by the algorithm
selector: dimensionality, example count, covariance eigenvalue extrema, and
the silhouette of the candidate clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from metaclust.data_model import Dataset, Partition
from metaclust.metrics import silhouette_score

__all__ = [
    "LinearModel",
    "fit_least_squares",
    "predict",
    "phi_features",
    "symmetric_eigen_extrema",
]

RIDGE_JITTER = 1e-8


@dataclass(frozen=True)
class LinearModel:
    """Fitted regression weights plus intercept."""

    weights: np.ndarray
    intercept: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)) or not np.isfinite(self.intercept):
            raise ValueError("model coefficients must be a finite vector and scalar")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def fit_least_squares(features: Sequence, targets: Sequence[float]) -> LinearModel:
    """Minimize sum((w.x + c - y)^2) via the normal equations.

    Rank-deficient designs are solved with a ridge jitter on the normal
    equations instead of failing; the fit is deterministic.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("need at least 1 sample")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features/targets length mismatch")
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = design.T @ design
    rhs = design.T @ y
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        gram = gram + RIDGE_JITTER * np.eye(gram.shape[0])
    coef = np.linalg.solve(gram, rhs)
    return LinearModel(weights=coef[:-1], intercept=float(coef[-1]))


def predict(model: LinearModel, x: Sequence[float]) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(f"dimension mismatch: model has {model.weights.shape[0]} weights, input has shape {x.shape}")
    return float(model.weights @ x + model.intercept)


def symmetric_eigen_extrema(s: np.ndarray) -> tuple:
    """Smallest and largest eigenvalue of a symmetric matrix.

    The input must be square and symmetric within 1e-9; it is symmetrized
    exactly before ``np.linalg.eigvalsh`` (LAPACK) computes its spectrum.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("matrix must be square")
    if np.abs(s - s.T).max(initial=0.0) > 1e-9:
        raise ValueError("matrix is not symmetric within 1e-9")
    eig = np.linalg.eigvalsh((s + s.T) / 2.0)
    return float(eig[0]), float(eig[-1])


def phi_features(dataset: Dataset, c: Partition, dist: np.ndarray, extrema: tuple) -> np.ndarray:
    """The meta-feature vector [d, m, sigma_min, sigma_max, silhouette] of
    (dataset, candidate clustering).

    sigma_min and sigma_max are the extreme eigenvalues of the population
    covariance, which must be PSD up to 1e-9 * max(1, sigma_max), since the
    roundoff of ``eigvalsh`` scales with sigma_max.  ``dist`` is
    ``pairwise_distances(dataset.points)``, passed on to ``silhouette_score``,
    and ``extrema`` is ``symmetric_eigen_extrema(covariance(dataset.points))``;
    callers scoring many clusterings of one dataset compute each once.
    """
    lo, hi = extrema
    if lo < -1e-9 * max(1.0, hi):
        raise ValueError(f"covariance must be PSD up to tolerance, got sigma_min={lo}")
    sil = silhouette_score(dataset.points, c, dist=dist)
    return np.array([dataset.d, dataset.n, lo, hi, sil], dtype=float)
