"""Least squares, the Jacobi eigensolver and the meta-feature vector."""

import numpy as np
import pytest

from metaclust.data_model import Dataset, Partition, labels_to_partition
from metaclust.regression import (
    LinearModel,
    PhiFeatures,
    fit_least_squares,
    phi_features,
    predict,
    symmetric_eigen_extrema,
)


class TestFitLeastSquares:
    def test_exact_line(self):
        model = fit_least_squares([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        assert model.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_constant_target(self):
        model = fit_least_squares([[0.0], [1.0], [2.0]], [3.0, 3.0, 3.0])
        assert model.weights[0] == pytest.approx(0.0, abs=1e-9)
        assert model.intercept == pytest.approx(3.0, abs=1e-9)

    def test_normal_equation_optimality(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        model = fit_least_squares(x, y)
        design = np.hstack([x, np.ones((50, 1))])
        coef = np.concatenate([model.weights, [model.intercept]])
        residual = design @ coef - y
        assert np.abs(design.T @ residual).max() <= 1e-6

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 3))
        y = x @ [2.0, -1.0, 0.5] + 0.25 + 0.01 * rng.standard_normal(40)
        model = fit_least_squares(x, y)
        design = np.hstack([x, np.ones((40, 1))])
        ref, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert model.weights == pytest.approx(ref[:-1], abs=1e-8)
        assert model.intercept == pytest.approx(ref[-1], abs=1e-8)

    def test_rank_deficient_is_deterministic(self):
        x = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]  # collinear columns
        y = [1.0, 2.0, 3.0]
        a = fit_least_squares(x, y)
        b = fit_least_squares(x, y)
        assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept
        pred = [predict(a, row) for row in x]
        assert pred == pytest.approx(y, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_least_squares([], [])


class TestPredict:
    def test_identity_model(self):
        assert predict(LinearModel(weights=np.array([1.0]), intercept=0.0), [7.0]) == 7.0

    def test_arithmetic(self):
        model = LinearModel(weights=np.array([2.0, -1.0]), intercept=0.5)
        assert predict(model, [1.0, 1.0]) == pytest.approx(1.5)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        model = LinearModel(weights=rng.standard_normal(4), intercept=0.7)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        assert predict(model, x1) + predict(model, x2) - 0.7 == pytest.approx(predict(model, x1 + x2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(LinearModel(weights=np.array([1.0]), intercept=0.0), [1.0, 2.0])


class TestEigenExtrema:
    def test_diagonal(self):
        assert symmetric_eigen_extrema(np.diag([3.0, 1.0])) == (1.0, 3.0)

    def test_worked_two_by_two(self):
        lo, hi = symmetric_eigen_extrema(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(3.0, abs=1e-10)

    def test_one_by_one(self):
        assert symmetric_eigen_extrema(np.array([[4.5]])) == (4.5, 4.5)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            s = a @ a.T  # PSD
            lo, hi = symmetric_eigen_extrema(s)
            ref = np.linalg.eigvalsh(s)
            assert lo == pytest.approx(ref[0], rel=1e-8, abs=1e-8)
            assert hi == pytest.approx(ref[-1], rel=1e-8, abs=1e-8)

    def test_rayleigh_bounds(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        s = (a + a.T) / 2
        lo, hi = symmetric_eigen_extrema(s)
        for _ in range(100):
            x = rng.standard_normal(6)
            q = x @ s @ x / (x @ x)
            assert lo - 1e-9 <= q <= hi + 1e-9

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eigen_extrema(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPhiFeatures:
    def test_diagonal_covariance(self):
        rng = np.random.default_rng(5)
        n = 4000
        pts = rng.standard_normal((n, 2)) * [1.0, 2.0]
        pts -= pts.mean(axis=0)
        # exact population covariance by construction after whitening
        u, svals, vt = np.linalg.svd(pts, full_matrices=False)
        pts = (u * np.sqrt(n)) @ np.diag([1.0, 2.0]) @ vt
        ds = Dataset(id="p", points=pts)
        c = Partition(n, (tuple(range(n // 2)), tuple(range(n // 2, n))))
        phi = phi_features(ds, c)
        assert phi.sigma_min == pytest.approx(1.0, rel=1e-9)
        assert phi.sigma_max == pytest.approx(4.0, rel=1e-9)
        assert phi.d == 2 and phi.m == n

    def test_shape_fields(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((17, 3))
        ds = Dataset(id="s", points=pts)
        c = labels_to_partition([0, 1] * 8 + [0])
        phi = phi_features(ds, c)
        assert phi.d == 3 and phi.m == 17

    def test_row_permutation_moves_only_sil_parts(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((12, 2))
        labels = np.array([0, 1] * 6)
        perm = rng.permutation(12)
        a = phi_features(Dataset(id="a", points=pts), labels_to_partition(labels))
        b = phi_features(
            Dataset(id="b", points=pts[perm]), labels_to_partition(labels[perm])
        )
        assert a.sigma_min == pytest.approx(b.sigma_min, abs=1e-12)
        assert a.sigma_max == pytest.approx(b.sigma_max, abs=1e-12)
        assert a.sil == pytest.approx(b.sil, abs=1e-12)

    def test_vector_layout(self):
        phi = PhiFeatures(d=2, m=10, sigma_min=0.5, sigma_max=2.0, sil=0.3)
        assert list(phi.as_vector()) == [2.0, 10.0, 0.5, 2.0, 0.3]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PhiFeatures(d=1, m=2, sigma_min=-0.5, sigma_max=1.0, sil=0.0)
