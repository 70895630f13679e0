"""Balance and bias statistics over a binary assignment.

Covariate-specific statistics: the prevalence difference (difference in
covariate means between assigned and unassigned groups), its
standardized version (SCMD), and bias (the prevalence difference
divided by the exposure prevalence difference across the same
assignment).  The global statistic is the Mahalanobis distance of the
mean-difference vector under an estimate of its covariance.

``_Evaluator`` defines each statistic, and when it is undefined, once:
the test engine calls it on chunks of draws, and ``prevalence_difference``,
``scmd``, ``iv_bias`` and ``mahalanobis`` are one-row calls of it.
Undefined values are NaN, so callers can count and exclude them rather
than crash mid-run.  ``mean_difference_covariance`` and
``mahalanobis_from_components`` are an independent SVD oracle for the
closed-form Mahalanobis distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from ._workspace import Workspace
from .errors import StatisticError

# Relative eigenvalue cutoff of the column-scaled scatter and covariance
# pseudo-inverses.
PINV_RCOND = 1e-10

# The statistics that read only the covariate sums and the treated count
GLOBAL_STATISTICS = ("mahalanobis", "sqrt_mahalanobis")

# The evaluator's product is summed over panels of this many units: a
# 32-row float64 panel is 256 KiB, which stays in a core's L2 cache.
PANEL_UNITS = 1024


@dataclass(frozen=True)
class GlobalBalance:
    """Mahalanobis distance of the mean-difference vector."""

    mahalanobis: float
    sqrt_mahalanobis: float
    covariance_rank: int
    pseudo_inverse_used: bool


def _column_scale(scatter):
    """Root of a scatter matrix's diagonal, a zero entry taken as 1."""
    scale = np.sqrt(np.diag(scatter))
    return np.where(scale > 0.0, scale, 1.0)


def _strength(t1, n1, n0, exposure_sum):
    """Exposure prevalence difference, the bias denominator, from the group-1
    exposure sum ``t1``: for a 0/1 exposure each group mean is correctly rounded."""
    return t1 / n1 - (exposure_sum - t1) / n0


class _Evaluator:
    """Vectorized evaluation of balance statistics over draw chunks.

    Uses globally centered covariates so the total-scatter identity for
    the pooled covariance is well conditioned; centering changes no
    statistic (mean differences and within-group covariances are shift
    invariant).  ``covariates`` is (N, K); ``exposure=None`` fills the
    exposure row of the product with zeros.  Bias divides by
    ``fixed_strength``, or by each draw's own strength when it is None.
    """

    def __init__(self, covariates: np.ndarray, exposure: np.ndarray | None, statistics,
                 fixed_strength: float | None):
        self.n, self.k = covariates.shape
        xc = covariates - covariates.mean(axis=0)
        # a constant column centres to exactly 0, not to its rounded mean's
        # residue, so the rank cut below drops it at any scale
        xc[:, (covariates == covariates[0]).all(axis=0)] = 0.0
        self.col_sums = xc.sum(axis=0)
        xc_sq = xc**2
        self.sq_sums = xc_sq.sum(axis=0)
        # The centred covariates do not sum to 0 exactly, so a zero mean
        # difference evaluates to a rounding residue.  s1 and the column sums
        # are each off by at most N eps sum|xc_j| (a recursive sum's bound),
        # so |diff| <= 2 N eps sum|xc_j| (1/N1 + 1/N0) is set to exactly 0:
        # a binary covariate split in equal shares then ties with every draw
        # that splits it so.
        self.diff_tol = 2.0 * self.n * np.finfo(np.float64).eps * np.abs(xc).sum(axis=0)
        # whiten @ whiten.T inverts the total scatter T = xc^T xc on its
        # range.  Its eigenvalues are cut off like the covariance
        # pseudo-inverse below, on T / (s s^T), s the root of T's diagonal,
        # so a covariate's units do not decide the rank
        scatter = xc.T @ xc
        scale = _column_scale(scatter)
        eigval, eigvec = np.linalg.eigh(scatter / np.outer(scale, scale))
        kept = eigval > PINV_RCOND * max(eigval[-1], 0.0)
        self.whiten = eigvec[:, kept] / np.sqrt(eigval[kept]) / scale[:, None]
        exposure = (np.zeros(self.n) if exposure is None
                    else np.asarray(exposure, dtype=np.float64))
        self.exposure_sum = float(exposure.sum())
        self.statistics = tuple(statistics)
        # a zero fixed denominator leaves bias undefined, as a zero
        # per-draw strength does
        self.fixed_strength = np.nan if fixed_strength == 0.0 else fixed_strength
        # The product stacked_t @ z^T gives every group-1 sum of a chunk.
        # Statistics all in GLOBAL_STATISTICS take the narrow rows
        # [xc^T | 1]; any others take the wide rows
        # [xc^T | (xc^2)^T | 1 | exposure].  BLAS rounds an output by its
        # place in the product, so within one layout a draw's statistics do
        # not depend on which others are requested; a global statistic may
        # differ in its last bits between the two layouts.  The count and
        # exposure rows sum 0/1 values, exact in any order.  Stored
        # C-contiguous, each row one contiguous operand: on one BLAS thread
        # this product is faster than z @ stacked with stacked (N, rows).
        k = self.k
        narrow = set(self.statistics) <= set(GLOBAL_STATISTICS)
        self.count_row = k if narrow else 2 * k
        self.stacked_t = np.empty((k + 1 if narrow else 2 * k + 2, self.n))
        self.stacked_t[:k] = xc.T
        self.stacked_t[self.count_row] = 1.0
        if not narrow:
            self.stacked_t[k:2 * k] = xc_sq.T
            self.stacked_t[-1] = exposure

    def group_sums(self, z_chunk: np.ndarray, workspace: Workspace | None = None
                   ) -> np.ndarray:
        """(B, rows) group-1 sums of a (B, N) chunk: (stacked_t @ z^T)^T.

        ``rows`` is K + 1 for the narrow layout and 2K + 2 for the wide
        one; column ``count_row`` holds the treated counts.

        The sums are accumulated over panels of ``PANEL_UNITS`` units, each
        cast into one reused (B, min(N, PANEL_UNITS)) float64 buffer (the
        ``workspace``'s ``"panel"``) that stays in cache, so no float64 copy
        of the whole chunk is made.  Up to ``PANEL_UNITS`` units that is one
        product; above, the panel sums round differently from one product,
        in the last bits.
        """
        rows = len(z_chunk)
        panel = (workspace or Workspace()).get("panel", (rows, min(self.n, PANEL_UNITS)),
                                               np.float64)
        sums = np.empty((len(self.stacked_t), rows))
        term = np.empty_like(sums)
        for lo in range(0, self.n, PANEL_UNITS):
            hi = min(lo + PANEL_UNITS, self.n)
            cast = panel[:, :hi - lo]
            np.copyto(cast, z_chunk[:, lo:hi])
            if lo == 0:
                np.matmul(self.stacked_t[:, lo:hi], cast.T, out=sums)
            else:
                np.matmul(self.stacked_t[:, lo:hi], cast.T, out=term)
                sums += term
        return sums.T

    def __call__(self, z_chunk: np.ndarray, workspace: Workspace | None = None) -> dict:
        """Statistics for a (B, N) chunk of assignments."""
        k = self.k
        sums = self.group_sums(z_chunk, workspace)
        s1 = sums[:, :k]
        n1 = sums[:, self.count_row]
        n0 = self.n - n1
        s0 = self.col_sums[None, :] - s1
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = s1 / n1[:, None] - s0 / n0[:, None]
            diff[np.abs(diff) <= self.diff_tol * (1.0 / n1 + 1.0 / n0)[:, None]] = 0.0

        out: dict[str, np.ndarray] = {}
        if "prevalence_diff" in self.statistics:
            out["prevalence_diff"] = diff
        if "scmd" in self.statistics:
            q1 = sums[:, k:2 * k]
            q0 = self.sq_sums[None, :] - q1
            with np.errstate(divide="ignore", invalid="ignore"):
                ss1 = np.maximum(q1 - s1**2 / n1[:, None], 0.0)
                ss0 = np.maximum(q0 - s0**2 / n0[:, None], 0.0)
                v1 = np.where((n1 > 1)[:, None], ss1 / (n1 - 1.0)[:, None], 0.0)
                v0 = np.where((n0 > 1)[:, None], ss0 / (n0 - 1.0)[:, None], 0.0)
            pooled = np.sqrt((v1 + v0) / 2.0)
            # a covariate constant within both groups leaves a rounding
            # residue, not 0, in ss1 + ss0; as for Mahalanobis, a within-group
            # scatter of at most PINV_RCOND of the total makes SCMD undefined
            constant = ss1 + ss0 <= PINV_RCOND * self.sq_sums
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = diff / pooled
            out["scmd"] = np.where(diff == 0.0, 0.0,
                                   np.where((pooled == 0.0) | constant, np.nan, ratio))
        if "iv_bias" in self.statistics:
            if self.fixed_strength is None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    strength = _strength(sums[:, -1], n1, n0, self.exposure_sum)
                    bias = diff / strength[:, None]
                out["iv_bias"] = np.where(strength[:, None] == 0.0, np.nan, bias)
            else:
                out["iv_bias"] = diff / self.fixed_strength
        if "mahalanobis" in self.statistics or "sqrt_mahalanobis" in self.statistics:
            md = self._mahalanobis(n1, n0, diff)
            if "mahalanobis" in self.statistics:
                out["mahalanobis"] = md
            if "sqrt_mahalanobis" in self.statistics:
                out["sqrt_mahalanobis"] = np.sqrt(md)
        return out

    def _mahalanobis(self, n1, n0, diff) -> np.ndarray:
        """Closed form of d^T S+ d, S the pooled covariance of d.

        The pooled within-group scatter is the rank-one downdate
        T - c d d^T of the total scatter (c = N1 N0 / N), so by
        Sherman-Morrison M = (N - 2) c a / (1 - c a) with a = d^T T+ d.
        1 - c a = 0 means a covariate is constant within both groups,
        i.e. perfectly separated, and M is undefined (NaN), as SCMD is
        with a zero standardizer.
        """
        whitened = diff @ self.whiten
        ca = n1 * n0 / self.n * np.einsum("bk,bk->b", whitened, whitened)
        with np.errstate(divide="ignore", invalid="ignore"):
            md = (self.n - 2.0) * ca / (1.0 - ca)
        defined = (n1 >= 2) & (n0 >= 2) & (1.0 - ca > PINV_RCOND)
        return np.where(defined, md, np.nan)


def _split(assignment):
    treated = np.asarray(getattr(assignment, "values", assignment)) == 1
    n1 = int(treated.sum())
    n0 = len(treated) - n1
    if n1 == 0 or n0 == 0:
        raise StatisticError("assignment has an empty group")
    return treated, n1, n0


@one_blas_thread()
def _one_row(covariates, assignment, statistic: str, exposure=None,
             fixed_strength: float | None = None, min_group: int = 1):
    """The evaluator of a covariate column or matrix, and ``statistic`` of one row."""
    treated, n1, n0 = _split(assignment)
    if min(n1, n0) < min_group:
        raise StatisticError(
            f"{statistic} needs >= {min_group} units per group (got {n1} and {n0})")
    x = np.asarray(covariates, dtype=np.float64)
    evaluator = _Evaluator(x.reshape(len(x), -1), exposure, (statistic,), fixed_strength)
    return evaluator, evaluator(treated.astype(np.float64)[None, :])[statistic][0]


def prevalence_difference(covariate_column, assignment) -> float:
    """Mean of the covariate over assigned units minus unassigned units."""
    return float(_one_row(covariate_column, assignment, "prevalence_diff")[1][0])


def scmd(covariate_column, assignment) -> float:
    """Standardized covariate mean difference.

    Standardizer is sqrt((s1^2 + s0^2) / 2) with N-1 variance
    denominators.  A zero difference is 0; a nonzero difference whose
    within-group scatter is at most ``PINV_RCOND`` of the total is NaN.
    """
    return float(_one_row(covariate_column, assignment, "scmd")[1][0])


def instrument_strength(assignment, exposure) -> float:
    """Exposure prevalence difference across the assignment.

    The test engine's fixed bias denominator; for a 0/1 exposure it has
    the same bits as the per-draw denominator of the same assignment.
    """
    treated, n1, n0 = _split(assignment)
    d = np.asarray(exposure, dtype=np.float64)
    return float(_strength(d[treated].sum(), n1, n0, d.sum()))


def iv_bias(covariate_column, assignment, exposure, denominator: float | None = None) -> float:
    """Covariate prevalence difference scaled by instrument strength.

    With ``denominator`` given (the fixed-observed mode), that value is
    used; otherwise the strength is recomputed from this assignment.
    A zero denominator yields NaN.
    """
    return float(_one_row(covariate_column, assignment, "iv_bias", exposure, denominator)[1][0])


def mahalanobis(covariates, assignment) -> GlobalBalance:
    """Global balance of an assignment over all covariates.

    Undefined (NaN) when a covariate combination is constant within both
    groups; the pooled covariance then has one rank less than the total
    scatter.
    """
    evaluator, md = _one_row(covariates, assignment, "mahalanobis", min_group=2)
    rank = evaluator.whiten.shape[1] - int(np.isnan(md))
    return GlobalBalance(
        mahalanobis=float(md),
        sqrt_mahalanobis=float(np.sqrt(md)),
        covariance_rank=rank,
        pseudo_inverse_used=rank < evaluator.k,
    )


def mean_difference_covariance(covariates, assignment) -> np.ndarray:
    """Covariance estimate for the mean-difference vector.

    Pooled within-group sample covariance scaled by (1/N1 + 1/N0).
    Requires at least two units per group.  Each group is shifted by its
    first unit, so a column constant within a group has exactly zero
    covariance there.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    treated, n1, n0 = _split(assignment)
    if n1 < 2 or n0 < 2:
        raise StatisticError(
            f"pooled covariance needs >= 2 units per group (got {n1} and {n0})"
        )
    x1 = x[treated] - x[treated][0]
    x0 = x[~treated] - x[~treated][0]
    c1 = np.atleast_2d(np.cov(x1, rowvar=False, ddof=1))
    c0 = np.atleast_2d(np.cov(x0, rowvar=False, ddof=1))
    pooled = ((n1 - 1) * c1 + (n0 - 1) * c0) / (n1 + n0 - 2)
    return pooled * (1.0 / n1 + 1.0 / n0)


def mahalanobis_from_components(mean_diff, covariance) -> GlobalBalance:
    """Quadratic form of a mean-difference vector under its covariance.

    Uses a Moore-Penrose pseudo-inverse of the column-scaled covariance
    S / (s s^T), s the root of S's diagonal, with a relative singular-value
    cutoff, so collinear covariates (indicator expansions) degrade to the
    projected full-rank computation instead of failing, and a covariate's
    units do not decide the rank.
    """
    s = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
    scale = _column_scale(s)
    d = np.asarray(mean_diff, dtype=np.float64).ravel() / scale
    u, sv, vt = np.linalg.svd(s / np.outer(scale, scale), hermitian=True)
    kept = sv > PINV_RCOND * sv.max(initial=0.0)
    rank = int(kept.sum())
    inv_sv = np.where(kept, 1.0 / np.where(kept, sv, 1.0), 0.0)
    # d^T V diag(1/s) U^T d, on the scaled d and S
    md = float((vt @ d) @ (inv_sv * (u.T @ d)))
    md = max(md, 0.0)
    return GlobalBalance(
        mahalanobis=md,
        sqrt_mahalanobis=float(np.sqrt(md)),
        covariance_rank=rank,
        pseudo_inverse_used=rank < len(d),
    )
