"""Least squares, the eigenvalue extrema and the meta-feature vector."""

import numpy as np
import pytest

from metaclust.data_model import (
    DataError,
    Dataset,
    Partition,
    SynthSpec,
    covariance,
    labels_to_partition,
    make_synthetic_repository,
)
from metaclust.metrics import pairwise_distances, silhouette_score
from metaclust.regression import (
    fit_least_squares,
    phi_features,
    predict,
    symmetric_eigen_extrema,
)


RIDGE_JITTER = 1e-8


def normal_equations_oracle(features, targets):
    """The normal-equations solve the library used before its SVD least
    squares, kept as an oracle: ``design.T @ design`` with a ridge jitter when
    it is rank-deficient."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        gram = gram + RIDGE_JITTER * np.eye(gram.shape[0])
    return np.linalg.solve(gram, design.T @ np.asarray(targets, dtype=float))


def meta_k_design(rng, m):
    """(m, 1) silhouettes with ARI-like targets: one k of meta-k's training set."""
    sil = rng.uniform(-0.2, 0.9, (m, 1))
    return sil, np.clip(0.8 * sil[:, 0] + 0.1 + 0.1 * rng.standard_normal(m), -0.5, 1.0)


def algo_select_design(rng, m, n=None):
    """(m, 5) meta-feature rows [d, n, sigma_min, sigma_max, silhouette] with
    ARI-like targets.  Each row draws its own n unless ``n`` is given; one n
    for every problem makes the n column a multiple of the intercept."""
    d = rng.integers(1, 7, m).astype(float)
    lo = rng.uniform(0.0, 0.5, m)
    n = rng.integers(40, 300, m).astype(float) if n is None else np.full(m, float(n))
    rows = np.column_stack([d, n, lo, lo + rng.uniform(0.5, 3.0, m), rng.uniform(-0.2, 0.9, m)])
    return rows, np.clip(rows[:, 4] - 0.05 * d + 0.1 * rng.standard_normal(m), -0.5, 1.0)


class TestFitLeastSquares:
    def test_exact_line(self):
        coef = fit_least_squares([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        assert coef == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_constant_target(self):
        coef = fit_least_squares([[0.0], [1.0], [2.0]], [3.0, 3.0, 3.0])
        assert coef == pytest.approx([0.0, 3.0], abs=1e-9)

    def test_coefficients_are_a_read_only_vector(self):
        coef = fit_least_squares(np.arange(8.0).reshape(4, 2) ** 2, [1.0, 0.0, 2.0, 5.0])
        assert coef.shape == (3,) and coef.dtype == float
        with pytest.raises(ValueError):
            coef[0] = 1.0

    def test_normal_equation_optimality(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        coef = fit_least_squares(x, y)
        design = np.hstack([x, np.ones((50, 1))])
        residual = design @ coef - y
        assert np.abs(design.T @ residual).max() <= 1e-6

    def test_matches_lstsq_oracle(self):
        # A full-rank design: the normal-equations oracle solves the same problem.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 3))
        y = x @ [2.0, -1.0, 0.5] + 0.25 + 0.01 * rng.standard_normal(40)
        coef = fit_least_squares(x, y)
        assert coef == pytest.approx(normal_equations_oracle(x, y), abs=1e-8)

    @pytest.mark.parametrize("design", [meta_k_design, algo_select_design])
    def test_training_predictions_match_the_normal_equations_oracle(self, design):
        rng = np.random.default_rng(20)
        for trial in range(200):
            x, y = design(rng, int(rng.integers(8, 80)))
            fitted = predict(fit_least_squares(x, y), x)
            np.testing.assert_allclose(fitted, predict(normal_equations_oracle(x, y), x), rtol=1e-9, err_msg=trial)

    def test_rank_deficient_is_minimum_norm(self):
        # One n for every problem, as in a repository of equal-sized datasets.
        rng = np.random.default_rng(21)
        for trial in range(200):
            m = int(rng.integers(8, 80))
            x, y = algo_select_design(rng, m, n=150)
            design = np.hstack([x, np.ones((m, 1))])
            coef = fit_least_squares(x, y)
            np.testing.assert_allclose(coef, np.linalg.pinv(design) @ y, rtol=1e-9, atol=1e-12, err_msg=trial)
            # The oracle's ridge moves its fit by about its jitter over the
            # smallest nonzero eigenvalue of the Gram matrix, up to 1e-7 of the
            # largest prediction on these designs.
            fitted, ridge = predict(coef, x), predict(normal_equations_oracle(x, y), x)
            assert np.abs(fitted - ridge).max() <= 1e-6 * np.abs(ridge).max(), trial

    def test_rank_deficient_is_deterministic(self):
        x = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]  # collinear columns
        y = [1.0, 2.0, 3.0]
        a = fit_least_squares(x, y)
        b = fit_least_squares(x, y)
        assert np.array_equal(a, b)
        pred = [predict(a, row) for row in x]
        assert pred == pytest.approx(y, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_least_squares([], [])

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_huge_features_give_finite_coefficients(self, scale):
        # x^2 is past float64's 1.8e308 at each scale; the design itself is not squared.
        x = np.array([[1.0, 2.0], [3.0, 1.0], [0.5, 4.0]]) * [1.0, scale]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            coef = fit_least_squares(x, [0.0, 1.0, 0.5])
        assert np.isfinite(coef).all()

    def test_large_finite_fit_is_no_error(self):
        x = np.array([[1.0], [3.0], [0.5]]) * 1e100
        coef = fit_least_squares(x, [0.0, 1.0, 0.5])
        assert np.isfinite(coef).all()

    def test_overflowing_solution_is_data_error(self):
        # Finite input whose exact slope, -3.4e321, is past float64's range.
        with pytest.raises(DataError, match="overflows float64"):
            fit_least_squares([[0.0], [1e-13]], [1.7e308, -1.7e308])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_data_error(self, bad):
        for features, targets in (([[0.0], [bad], [2.0]], [0.0, 1.0, 2.0]), ([[0.0], [1.0], [2.0]], [0.0, bad, 2.0])):
            with pytest.raises(DataError, match="must be finite"):
                fit_least_squares(features, targets)


class TestPredict:
    def test_identity_model(self):
        assert predict(np.array([1.0, 0.0]), [7.0]) == 7.0

    def test_arithmetic(self):
        assert predict(np.array([2.0, -1.0, 0.5]), [1.0, 1.0]) == pytest.approx(1.5)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        coef = np.append(rng.standard_normal(4), 0.7)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        assert predict(coef, x1) + predict(coef, x2) - 0.7 == pytest.approx(predict(coef, x1 + x2))

    def test_row_gives_a_float_and_matrix_a_vector(self):
        coef = np.array([2.0, -1.0, 0.5])
        rows = np.array([[1.0, 1.0], [0.0, 2.0], [3.0, 0.0]])
        assert type(predict(coef, rows[0])) is float
        assert predict(coef, rows).tolist() == [predict(coef, row) for row in rows] == [1.5, -1.5, 6.5]

    def test_dimension_mismatch(self):
        for x in ([1.0, 2.0], [[1.0, 2.0]], 1.0, [[[1.0]]]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                predict(np.array([1.0, 0.0]), x)

    def test_matrix_of_one_column_matches_the_scalar_path_bit_for_bit(self):
        # meta-k scores a k row of silhouettes with one call on an (R, 1)
        # matrix; each value must equal the one-row dot product plus intercept.
        rng = np.random.default_rng(10)
        for trial in range(2000):
            w, c = rng.standard_normal(2) * 10.0 ** rng.integers(-3, 4, 2)
            sil = rng.uniform(-1.0, 1.0, int(rng.integers(1, 30)))
            scalar = [float(np.array([w]) @ np.array([s]) + c) for s in sil]
            assert predict(np.array([w, c]), sil[:, None]).tolist() == scalar, trial

    def test_row_of_a_stacked_matrix_matches_a_separate_vector(self):
        # algo-select scores member j with row j of its (M, 6) coefficient array.
        rng = np.random.default_rng(11)
        for trial in range(2000):
            coef = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-4, 5, (4, 6))
            row = rng.standard_normal(5) * [1.0, 100.0, 10.0, 10.0, 1.0]
            for j in range(4):
                w, c = coef[j, :-1].copy(), float(coef[j, -1])
                assert predict(coef[j], row) == float(w @ row + c), trial


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


D, M, SIGMA_MIN, SIGMA_MAX, SIL = range(5)  # the meta-feature vector's layout


def phi_of(ds, c):
    """``phi_features`` with the distance matrix and eigenvalue extrema computed for this call."""
    return phi_features(ds, c, pairwise_distances(ds.points), symmetric_eigen_extrema(covariance(ds.points)))


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
        phi = phi_of(ds, c)
        assert phi[SIGMA_MIN] == pytest.approx(1.0, rel=1e-9)
        assert phi[SIGMA_MAX] == pytest.approx(4.0, rel=1e-9)
        assert phi[D] == 2 and phi[M] == n

    def test_shape_fields(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((17, 3))
        ds = Dataset(id="s", points=pts)
        c = labels_to_partition([0, 1] * 8 + [0])
        phi = phi_of(ds, c)
        assert phi[D] == 3 and phi[M] == 17

    def test_row_permutation_moves_only_sil_parts(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((12, 2))
        labels = np.array([0, 1] * 6)
        perm = rng.permutation(12)
        a = phi_of(Dataset(id="a", points=pts), labels_to_partition(labels))
        b = phi_of(Dataset(id="b", points=pts[perm]), labels_to_partition(labels[perm]))
        assert a[SIGMA_MIN] == pytest.approx(b[SIGMA_MIN], abs=1e-12)
        assert a[SIGMA_MAX] == pytest.approx(b[SIGMA_MAX], abs=1e-12)
        assert a[SIL] == pytest.approx(b[SIL], abs=1e-12)

    def test_vector_layout(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((10, 2)) * [1.0, 3.0]
        ds = Dataset(id="v", points=pts)
        c = labels_to_partition([0, 1] * 5)
        lo, hi = symmetric_eigen_extrema(np.cov(pts, rowvar=False, bias=True))
        phi = phi_of(ds, c)
        assert phi.shape == (5,) and phi.dtype == float
        assert phi[D] == 2.0 and phi[M] == 10.0
        assert phi[SIGMA_MIN] == pytest.approx(lo, rel=1e-12) and phi[SIGMA_MAX] == pytest.approx(hi, rel=1e-12)
        assert phi[SIL] == silhouette_score(pts, c)

    def test_negative_sigma_rejected(self):
        ds = Dataset(id="n", points=np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError, match="PSD"):
            phi_features(ds, labels_to_partition([0, 0, 1, 1]), pairwise_distances(ds.points), (-0.5, 1.0))

    def test_tiny_negative_sigma_tolerated(self):
        ds = Dataset(id="t", points=np.arange(8.0).reshape(4, 2))
        dist = pairwise_distances(ds.points)
        assert phi_features(ds, labels_to_partition([0, 0, 1, 1]), dist, (-1e-10, 1.0))[SIGMA_MIN] == -1e-10

    def test_collinear_columns_at_large_scale_tolerated(self):
        # Columns (x, 3x) at 1e9 scale: the roundoff in sigma_min scales with sigma_max.
        ds, truth = make_synthetic_repository(SynthSpec(n_problems=1, n_points=40, seed=5)).problems[0]
        x = ds.points[:, 0]
        ds = Dataset(id="c", points=np.column_stack([x * 1e9, 3 * x * 1e9]))
        dist = pairwise_distances(ds.points)
        lo, hi = symmetric_eigen_extrema(covariance(ds.points))
        assert abs(lo) <= 1e-9 * hi
        assert np.array_equal(phi_features(ds, truth, dist, (lo, hi))[[SIGMA_MIN, SIGMA_MAX]], [lo, hi])
        # sigma_min = -8192 at sigma_max = 2.7e20 is roundoff; the bound is 1e-9 * max(1, sigma_max).
        assert phi_features(ds, truth, dist, (-8192.0, 2.7e20))[SIGMA_MIN] == -8192.0
        with pytest.raises(ValueError, match="PSD"):
            phi_features(ds, truth, dist, (-3e11, 2.7e20))

    def test_precomputed_distances_give_the_same_vector(self):
        rng = np.random.default_rng(9)
        for n, d in ((5, 1), (23, 2), (40, 4)):
            pts = np.round(rng.standard_normal((n, d)), 1)  # coincident points too
            ds = Dataset(id="x", points=pts)
            c = labels_to_partition(rng.integers(0, 3, n) if n > 5 else [0, 1, 1, 2, 2])
            lo, hi = symmetric_eigen_extrema(covariance(pts))
            assert np.array_equal(phi_of(ds, c), [d, n, lo, hi, silhouette_score(pts, c)])
