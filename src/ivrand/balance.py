"""Balance and bias statistics over a binary assignment.

Covariate-specific statistics: the prevalence difference (difference in
covariate means between assigned and unassigned groups), its
standardized version (SCMD), and bias (the prevalence difference
divided by the exposure prevalence difference across the same
assignment).  The global statistic is the Mahalanobis distance of the
mean-difference vector under an estimate of its covariance.

Undefined values (zero standardizer with a nonzero numerator, zero bias
denominator, Mahalanobis distance with a perfectly separated covariate)
are returned as NaN so callers can count and exclude them explicitly
rather than crash mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import StatisticError

# Relative singular-value cutoff for the covariance pseudo-inverse.
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class GlobalBalance:
    """Mahalanobis distance of the mean-difference vector."""

    mahalanobis: float
    sqrt_mahalanobis: float
    covariance_rank: int
    pseudo_inverse_used: bool


def _split(assignment: np.ndarray):
    z = np.asarray(assignment)
    treated = z == 1
    n1 = int(treated.sum())
    n0 = len(z) - n1
    if n1 == 0 or n0 == 0:
        raise StatisticError("assignment has an empty group")
    return treated, n1, n0


def prevalence_difference(covariate_column, assignment) -> float:
    """Mean of the covariate over assigned units minus unassigned units."""
    x = np.asarray(covariate_column, dtype=np.float64)
    treated, _, _ = _split(_values(assignment))
    return float(x[treated].mean() - x[~treated].mean())


def _values(assignment) -> np.ndarray:
    return assignment.values if hasattr(assignment, "values") else np.asarray(assignment)


def scmd(covariate_column, assignment) -> float:
    """Standardized covariate mean difference.

    Standardizer is sqrt((s1^2 + s0^2) / 2) with N-1 variance
    denominators.  A zero difference is 0 regardless of the
    standardizer; a nonzero difference with a zero standardizer is NaN.
    """
    x = np.asarray(covariate_column, dtype=np.float64)
    z = _values(assignment)
    treated, n1, n0 = _split(z)
    diff = float(x[treated].mean() - x[~treated].mean())
    if diff == 0.0:
        return 0.0
    s1 = x[treated].var(ddof=1) if n1 > 1 else 0.0
    s0 = x[~treated].var(ddof=1) if n0 > 1 else 0.0
    denom = np.sqrt((s1 + s0) / 2.0)
    if denom == 0.0:
        return float("nan")
    return diff / float(denom)


def instrument_strength(assignment, exposure) -> float:
    """Exposure prevalence difference across the assignment."""
    return prevalence_difference(np.asarray(exposure, dtype=np.float64), assignment)


def iv_bias(covariate_column, assignment, exposure, denominator: float | None = None) -> float:
    """Covariate prevalence difference scaled by instrument strength.

    With ``denominator`` given (the fixed-observed mode), that value is
    used; otherwise the strength is recomputed from this assignment.
    A zero denominator yields NaN.
    """
    num = prevalence_difference(covariate_column, assignment)
    if denominator is None:
        denominator = instrument_strength(assignment, exposure)
    if denominator == 0.0:
        return float("nan")
    return num / denominator


def mean_difference_covariance(covariates, assignment) -> np.ndarray:
    """Covariance estimate for the mean-difference vector.

    Pooled within-group sample covariance scaled by (1/N1 + 1/N0).
    Requires at least two units per group.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    treated, n1, n0 = _split(_values(assignment))
    if n1 < 2 or n0 < 2:
        raise StatisticError(
            f"pooled covariance needs >= 2 units per group (got {n1} and {n0})"
        )
    x1 = x[treated]
    x0 = x[~treated]
    c1 = np.atleast_2d(np.cov(x1, rowvar=False, ddof=1))
    c0 = np.atleast_2d(np.cov(x0, rowvar=False, ddof=1))
    pooled = ((n1 - 1) * c1 + (n0 - 1) * c0) / (n1 + n0 - 2)
    return pooled * (1.0 / n1 + 1.0 / n0)


def mahalanobis_from_components(mean_diff, covariance) -> GlobalBalance:
    """Quadratic form of a mean-difference vector under its covariance.

    Uses a Moore-Penrose pseudo-inverse with a relative singular-value
    cutoff so collinear covariates (indicator expansions) degrade to the
    projected full-rank computation instead of failing.
    """
    d = np.asarray(mean_diff, dtype=np.float64).ravel()
    s = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
    u, sv, vt = np.linalg.svd(s, hermitian=True)
    kept = _kept(sv)
    rank = int(kept.sum())
    inv_sv = np.where(kept, 1.0 / np.where(kept, sv, 1.0), 0.0)
    # d^T V diag(1/s) U^T d
    md = float((vt @ d) @ (inv_sv * (u.T @ d)))
    md = max(md, 0.0)
    return GlobalBalance(
        mahalanobis=md,
        sqrt_mahalanobis=float(np.sqrt(md)),
        covariance_rank=rank,
        pseudo_inverse_used=rank < len(d),
    )


def _kept(sv: np.ndarray) -> np.ndarray:
    """Singular values above the relative pseudo-inverse cutoff."""
    if sv.size == 0 or sv[0] <= 0.0:
        return np.zeros_like(sv, dtype=bool)
    return sv > PINV_RCOND * sv[0]


def mahalanobis(covariates, assignment) -> GlobalBalance:
    """Global balance of an assignment over all covariates.

    Undefined (NaN) when the pooled covariance has lower rank than the
    total scatter of the covariates: some combination of them is constant
    within both groups, so the assignment separates it perfectly.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    z = _values(assignment)
    treated, _, _ = _split(z)
    diff = x[treated].mean(axis=0) - x[~treated].mean(axis=0)
    cov = mean_difference_covariance(x, assignment)
    result = mahalanobis_from_components(diff, cov)
    xc = x - x.mean(axis=0)
    total_rank = int(_kept(np.linalg.svd(xc.T @ xc, compute_uv=False,
                                         hermitian=True)).sum())
    if result.covariance_rank < total_rank:
        return replace(result, mahalanobis=float("nan"), sqrt_mahalanobis=float("nan"))
    return result

