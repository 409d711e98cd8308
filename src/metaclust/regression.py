"""Supervised machinery for the meta layer.

Least-squares linear regression (minimum-norm for rank-deficient designs)
and the five-number meta-feature rows used by the algorithm selector:
dimensionality, example count, covariance eigenvalue extrema, and the
silhouette of each candidate clustering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from metaclust.data_model import DataError, Dataset
from metaclust.metrics import silhouette_score

__all__ = [
    "fit_least_squares",
    "predict",
    "phi_features",
    "symmetric_eigen_extrema",
    "silhouette_score",  # not called here: perfbench/test_perfbench.py checks that the tracer patches this binding
]

_OVERFLOW = "the least-squares solution overflows float64"


def fit_least_squares(features: Sequence, targets: Sequence[float]) -> np.ndarray:
    """Minimize sum((w.x + c - y)^2) with LAPACK's SVD least squares.

    Returns the read-only coefficient vector: one weight per feature column,
    then the intercept c.  The design matrix is solved directly, not through
    the normal equations, so no feature's scale is squared; a rank-deficient
    design gets the minimum-norm solution.  Non-finite input, or a solution
    that overflows float64, raises ``DataError``.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("need at least 1 sample")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features/targets length mismatch")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("meta-features and targets must be finite")
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    if not np.isfinite(coef).all():
        raise DataError(_OVERFLOW)
    coef.setflags(write=False)
    return coef


def predict(coef: np.ndarray, x) -> np.ndarray | float:
    """``x @ coef[:-1] + coef[-1]``: a float for one feature row, a vector for a matrix of rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != coef.shape[0] - 1:
        raise ValueError(f"dimension mismatch: model has {coef.shape[0] - 1} weights, input has shape {x.shape}")
    y = x @ coef[:-1] + coef[-1]
    return float(y) if x.ndim == 1 else y


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


def phi_features(dataset: Dataset, silhouettes: Sequence[float], extrema: tuple) -> np.ndarray:
    """The (len(silhouettes), 5) rows [d, m, sigma_min, sigma_max, silhouette]
    of a dataset, one per candidate clustering's silhouette.

    ``extrema`` is ``symmetric_eigen_extrema(covariance(dataset.points))``, the
    population covariance's, which must be PSD up to 1e-9 * max(1, sigma_max)
    since the roundoff of ``eigvalsh`` scales with sigma_max; else ``ValueError``.
    """
    lo, hi = extrema
    if lo < -1e-9 * max(1.0, hi):
        raise ValueError(f"covariance must be PSD up to tolerance, got sigma_min={lo}")
    sil = np.asarray(silhouettes, dtype=float)
    return np.column_stack([np.tile([dataset.d, dataset.n, lo, hi], (sil.size, 1)), sil])
