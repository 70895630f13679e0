"""Propensity-score estimation by maximum-likelihood logistic regression.

Fitting is iteratively reweighted least squares on internally
standardized covariates (for conditioning with mixed-scale columns),
with step-halving so the deviance never increases between reported
iterations, an optional ridge penalty on the slope coefficients, and
detection of the separation pathology.  Coefficients are reported on
the original covariate scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .errors import PropensityError

SEPARATION_COEF_BOUND = 10.0
PREDICT_EPS = 1e-6
MAX_ITER = 100
TOLERANCE = 1e-8


@dataclass(frozen=True)
class PropensityModel:
    """A fitted logistic model for a binary assignment label."""

    coefficients: np.ndarray          # intercept first, original scale
    centers: np.ndarray
    scales: np.ndarray
    converged: bool
    n_iterations: int
    deviance: float
    deviance_trace: tuple[float, ...]
    separation_flag: bool
    ridge: float

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def slopes(self) -> np.ndarray:
        return self.coefficients[1:]


def _expit(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _deviance(y: np.ndarray, eta: np.ndarray) -> float:
    # -2 loglik written via log1p(exp(-|eta|)) for stability
    softplus = np.logaddexp(0.0, -np.abs(eta))
    loglik = np.where(y == 1, np.where(eta >= 0, -softplus, eta - softplus),
                      np.where(eta >= 0, -eta - softplus, -softplus))
    return float(-2.0 * loglik.sum())


def _dependent_columns(x: np.ndarray, names) -> list:
    """Names of columns that are linear combinations of earlier ones."""
    dependent = []
    basis = np.empty((x.shape[0], 0))
    for j in range(x.shape[1]):
        col = x[:, j]
        if basis.shape[1]:
            proj, *_ = np.linalg.lstsq(basis, col, rcond=None)
            resid = col - basis @ proj
        else:
            resid = col
        if np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(col)):
            dependent.append(names[j])
        else:
            basis = np.column_stack([basis, col])
    return dependent


@one_blas_thread()
def fit_logistic(
    covariates,
    labels,
    ridge: float = 0.0,
    covariate_names=None,
) -> PropensityModel:
    """Maximum-likelihood logistic fit of labels on covariates.

    ``deviance`` is the objective actually minimized: -2 log-likelihood
    plus ``ridge`` times the squared slope norm (on the standardized
    scale).  ``converged`` is True when the objective change fell below
    ``TOLERANCE`` within ``MAX_ITER`` iterations and no separation was
    flagged (``ridge`` 0 and a standardized slope magnitude above
    ``SEPARATION_COEF_BOUND``).  Non-convergence is reported on the model,
    not raised.  A negative ``ridge`` (which would reward large
    coefficients) raises ``ValueError``.
    """
    if not ridge >= 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(labels, dtype=np.float64)
    n, k = x.shape
    names = list(covariate_names) if covariate_names is not None else [
        f"x{j}" for j in range(k)
    ]
    if y.shape != (n,):
        raise PropensityError("labels length does not match covariate rows")
    if not np.isin(y, (0.0, 1.0)).all():
        raise PropensityError("labels must be binary 0/1")
    if y.min() == y.max():
        raise PropensityError("labels are constant; nothing to fit")
    if n <= k + 1:
        raise PropensityError(f"need more than K+1 = {k + 1} rows, got {n}")

    centers = x.mean(axis=0)
    scales = x.std(axis=0, ddof=0)
    degenerate = scales == 0.0
    if degenerate.any():
        cols = [names[j] for j in np.flatnonzero(degenerate)]
        raise PropensityError(
            f"rank-deficient design after standardization: constant column(s) "
            f"{', '.join(cols)}"
        )
    xs = (x - centers) / scales
    dependent = _dependent_columns(xs, names)
    if dependent:
        raise PropensityError(
            "rank-deficient design after standardization: column(s) "
            f"{', '.join(str(c) for c in dependent)} are linearly dependent"
        )

    design = np.column_stack([np.ones(n), xs])
    penalty = np.zeros(k + 1)
    penalty[1:] = ridge

    beta = np.zeros(k + 1)
    eta = design @ beta
    objective = _deviance(y, eta) + float(penalty @ (beta**2))
    trace = [objective]
    plateau = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        p = _expit(eta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        grad = design.T @ (y - p) - 2.0 * penalty * beta
        hess = (design.T * w) @ design + 2.0 * np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # step-halving keeps the objective nonincreasing
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            cand_eta = design @ candidate
            cand_obj = _deviance(y, cand_eta) + float(penalty @ (candidate**2))
            if cand_obj <= objective:
                break
            scale *= 0.5
        else:
            candidate, cand_eta, cand_obj = beta, eta, objective
        delta = objective - cand_obj
        beta, eta, objective = candidate, cand_eta, cand_obj
        trace.append(objective)
        if abs(delta) < TOLERANCE:
            plateau = True
            break

    # Runaway unpenalized coefficients mean the likelihood is unbounded along
    # a separating direction, so a plateau there is not an interior optimum.
    separation = bool(
        ridge == 0.0 and np.abs(beta[1:]).max(initial=0.0) > SEPARATION_COEF_BOUND
    )
    converged = plateau and not separation

    coefs = np.empty(k + 1)
    coefs[1:] = beta[1:] / scales
    coefs[0] = beta[0] - float((beta[1:] * centers / scales).sum())
    coefs.setflags(write=False)
    return PropensityModel(
        coefficients=coefs,
        centers=centers,
        scales=scales,
        converged=converged,
        n_iterations=iterations,
        deviance=objective,
        deviance_trace=tuple(trace),
        separation_flag=separation,
        ridge=ridge,
    )


@one_blas_thread()
def predict(model: PropensityModel, covariates, clamp_counter: list | None = None) -> np.ndarray:
    """Fitted probabilities for new rows, clamped to open (0, 1).

    Clamping at ``PREDICT_EPS`` keeps downstream Bernoulli samplers
    inside their strict open-interval precondition; the number of
    clamped values is appended to ``clamp_counter`` when given.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != len(model.slopes):
        raise PropensityError(
            f"model has {len(model.slopes)} covariates, data has {x.shape[1]}"
        )
    eta = model.intercept + x @ model.slopes
    p = _expit(eta)
    clamped = int(((p < PREDICT_EPS) | (p > 1.0 - PREDICT_EPS)).sum())
    if clamp_counter is not None:
        clamp_counter.append(clamped)
    return np.clip(p, PREDICT_EPS, 1.0 - PREDICT_EPS)
