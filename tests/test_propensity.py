"""IRLS logistic regression: recovery, pathologies, and contracts."""

import numpy as np
import pytest
from scipy.special import expit, logit

from ivrand import PropensityError, fit_logistic, predict


def _simulate(n, coefs, seed=0):
    rng = np.random.default_rng(seed)
    k = len(coefs) - 1
    x = rng.standard_normal((n, k))
    p = expit(coefs[0] + x @ coefs[1:])
    y = (rng.random(n) < p).astype(int)
    return x, y


class TestFitLogistic:
    def test_zero_signal_null_model(self):
        rng = np.random.default_rng(1)
        n = 20_000
        x = rng.standard_normal((n, 3))
        y = (rng.random(n) < 0.5).astype(int)
        model = fit_logistic(x, y)
        assert model.converged
        assert np.abs(model.slopes).max() < 0.05
        assert model.intercept == pytest.approx(logit(y.mean()), abs=0.05)

    def test_coefficient_recovery(self):
        coefs = np.array([-0.5, 0.8, -0.3, 0.1])
        x, y = _simulate(50_000, coefs, seed=2)
        model = fit_logistic(x, y)
        assert model.converged
        assert np.abs(model.coefficients - coefs).max() < 0.05

    def test_score_equations_at_optimum(self):
        coefs = np.array([0.2, -0.6, 0.4])
        x, y = _simulate(5_000, coefs, seed=3)
        model = fit_logistic(x, y)
        xs = (x - model.centers) / model.scales
        resid = y - predict(model, x)
        assert np.abs(xs.T @ resid).max() <= 1e-6 * len(y)
        assert abs(resid.sum()) <= 1e-6 * len(y)

    def test_perfect_separation_flagged(self):
        x = np.concatenate([-1 - np.arange(10) / 10, 1 + np.arange(10) / 10])
        y = (x > 0).astype(int)
        model = fit_logistic(x[:, None], y)
        assert model.separation_flag
        assert not model.converged

    def test_separation_with_ridge_converges(self):
        x = np.concatenate([-1 - np.arange(10) / 10, 1 + np.arange(10) / 10])
        y = (x > 0).astype(int)
        model = fit_logistic(x[:, None], y, ridge=1.0)
        assert model.converged
        assert not model.separation_flag
        assert np.isfinite(model.coefficients).all()

    def test_deviance_never_increases(self):
        coefs = np.array([0.0, 1.5, -2.0])
        x, y = _simulate(2_000, coefs, seed=4)
        model = fit_logistic(x, y)
        trace = np.array(model.deviance_trace)
        assert (np.diff(trace) <= 1e-9).all()

    def test_rescaling_invariance(self):
        coefs = np.array([0.3, 0.7, -0.2])
        x, y = _simulate(3_000, coefs, seed=5)
        base = fit_logistic(x, y)
        scaled = x.copy()
        scaled[:, 0] *= 250.0
        other = fit_logistic(scaled, y)
        assert other.coefficients[1] == pytest.approx(
            base.coefficients[1] / 250.0, rel=1e-8
        )
        np.testing.assert_allclose(
            predict(other, scaled), predict(base, x), atol=1e-10
        )

    def test_constant_labels_rejected(self):
        with pytest.raises(PropensityError, match="constant"):
            fit_logistic(np.random.default_rng(0).standard_normal((30, 2)),
                         np.ones(30))

    def test_rank_deficient_names_columns(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(100)
        x = np.column_stack([col, 2.0 * col])
        y = (rng.random(100) < 0.5).astype(int)
        with pytest.raises(PropensityError, match="x1"):
            fit_logistic(x, y)

    def test_constant_column_rejected(self):
        rng = np.random.default_rng(7)
        x = np.column_stack([rng.standard_normal(50), np.full(50, 3.0)])
        y = (rng.random(50) < 0.5).astype(int)
        with pytest.raises(PropensityError, match="constant column"):
            fit_logistic(x, y, covariate_names=("a", "b"))

    def test_negative_ridge_rejected(self):
        x, y = _simulate(200, [0.0, 1.0])
        with pytest.raises(ValueError, match="ridge"):
            fit_logistic(x, y, ridge=-1.0)

    def test_too_few_rows(self):
        with pytest.raises(PropensityError, match="rows"):
            fit_logistic(np.eye(3), np.array([0, 1, 0]))


def _manual_model(coefficients):
    from ivrand import PropensityModel

    coefficients = np.asarray(coefficients, dtype=np.float64)
    k = len(coefficients) - 1
    return PropensityModel(
        coefficients=coefficients,
        centers=np.zeros(k),
        scales=np.ones(k),
        converged=True,
        n_iterations=0,
        deviance=0.0,
        deviance_trace=(0.0,),
        separation_flag=False,
        ridge=0.0,
    )


class TestPredict:
    def test_all_zero_coefficients(self):
        x = np.random.default_rng(8).standard_normal((1_000, 1))
        model = _manual_model([0.0, 0.0])
        np.testing.assert_array_equal(predict(model, x), np.full(1_000, 0.5))

    def test_intercept_only(self):
        x = np.random.default_rng(9).standard_normal((1_000, 1))
        model = _manual_model([logit(0.3), 0.0])
        np.testing.assert_allclose(predict(model, x), 0.3, rtol=1e-12)

    def test_long_double_reference(self):
        coefs = np.array([-0.2, 0.9, -0.4, 0.15])
        x, y = _simulate(4_000, coefs, seed=10)
        model = fit_logistic(x, y)
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((100, 3))
        eta = (np.longdouble(model.intercept)
               + rows.astype(np.longdouble) @ model.slopes.astype(np.longdouble))
        reference = (1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
        np.testing.assert_allclose(predict(model, rows), reference, atol=1e-12)

    def test_clamping_counted(self):
        coefs = np.array([0.0, 1.0])
        x, y = _simulate(500, coefs, seed=12)
        model = fit_logistic(x, y)
        clamp: list = []
        out = predict(model, np.array([[100.0], [-100.0], [0.0]]),
                      clamp_counter=clamp)
        assert clamp[0] == 2
        assert out.min() >= 1e-6 and out.max() <= 1 - 1e-6

    def test_dimension_mismatch(self):
        coefs = np.array([0.0, 1.0, 0.5])
        x, y = _simulate(500, coefs, seed=13)
        model = fit_logistic(x, y)
        with pytest.raises(PropensityError, match="covariates"):
            predict(model, np.ones((4, 3)))
