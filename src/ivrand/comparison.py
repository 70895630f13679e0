"""Comparing instrument and exposure against a randomized benchmark.

Fits propensity models for the exposure and the instrument, draws
hypothetical assignments from the two fitted Bernoulli-trial mechanisms
and from complete randomization, and places the observed global balance
of each vector inside the benchmark distribution.  The four
reject/fail-to-reject combinations map to fixed recommendations:

    reject exposure, keep instrument -> use the IV design
    keep exposure, reject instrument -> reject the IV design
    keep both                        -> either analysis defensible
    reject both                      -> compare how far each one is
                                        from the randomized benchmark

In the reject-both case the separation diagnostics quantify whether the
instrument's randomization distribution sits closer to the benchmark
than the exposure's (the pragmatic "closer to as-if randomized" read).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .balance import _Evaluator  # noqa: F401  wrapped by name in perfbench/layers.py
from .data import Dataset, TestConfig
from .errors import PropensityError
from .mechanisms import MechanismSpec
from .propensity import PropensityModel, fit_logistic, predict
from .randtest import TestResult, _draw_set, pvalue, run_test
from .randtest import _evaluate_mechanism_draws  # noqa: F401  wrapped in perfbench/layers.py
from .rng import DOMAIN_BT_EXPOSURE, DOMAIN_BT_INSTRUMENT

CASE_RECOMMENDATIONS = {
    "case1": "Use IV analysis",
    "case2": "Reject IV analysis",
    "case3": "Use IV analysis or exposure analysis",
    "case4": "Compare balance or bias of D and Z",
}

RIDGE_FALLBACK = 1e-4


@dataclass(frozen=True)
class CaseClassification:
    label: str
    recommendation: str
    reject_exposure: bool
    reject_instrument: bool


@dataclass(frozen=True)
class SeparationDiagnostics:
    """How far apart two randomization distributions sit."""

    intervals_disjoint: bool
    overlap_fraction: float
    mean_gap: float


@dataclass(frozen=True)
class ComparisonResult:
    """``iv_bt`` and ``exp_bt`` are the ``sqrt_mahalanobis`` tests of the
    instrument and the exposure in draws from their own fitted
    Bernoulli-trial mechanisms (``n_redraws``: degenerate draws redrawn)."""

    cr_result: TestResult
    iv_bt: TestResult
    exp_bt: TestResult
    observed_iv: float
    observed_exp: float
    p_iv: float
    p_exp: float
    case: CaseClassification
    iv_vs_exp: SeparationDiagnostics
    iv_vs_cr: SeparationDiagnostics
    exp_vs_cr: SeparationDiagnostics
    iv_closer: bool
    instrument_model: PropensityModel
    exposure_model: PropensityModel
    ridge_fallback_used: bool

    def band(self, which: str) -> tuple[float, float]:
        result = {"cr": self.cr_result, "iv_bt": self.iv_bt, "exp_bt": self.exp_bt}[which]
        return result.q025, result.q975


def classify_case(p_exposure: float, p_instrument: float, alpha: float) -> CaseClassification:
    """Map the two test outcomes onto the four-case recommendation table."""
    if not (0.0 < p_exposure <= 1.0 and 0.0 < p_instrument <= 1.0):
        raise ValueError("p-values must lie in (0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    reject_d = p_exposure <= alpha
    reject_z = p_instrument <= alpha
    if reject_d and not reject_z:
        label = "case1"
    elif not reject_d and reject_z:
        label = "case2"
    elif not reject_d and not reject_z:
        label = "case3"
    else:
        label = "case4"
    return CaseClassification(
        label=label,
        recommendation=CASE_RECOMMENDATIONS[label],
        reject_exposure=reject_d,
        reject_instrument=reject_z,
    )


def separation_diagnostics(dist_a, dist_b) -> SeparationDiagnostics:
    """Band disjointness, histogram overlap, and mean gap of two draw sets.

    The overlap fraction is the overlap coefficient of the two
    normalized histograms on a shared binning of the pooled draws; it is
    symmetric and invariant to the order of draws within each set.
    """
    a = np.asarray(dist_a, dtype=np.float64)
    b = np.asarray(dist_b, dtype=np.float64)
    a = a[np.isfinite(a)]
    b = b[np.isfinite(b)]
    if a.size == 0 or b.size == 0:
        raise ValueError("both draw sets must be nonempty")
    qa = np.quantile(a, (0.025, 0.975))
    qb = np.quantile(b, (0.025, 0.975))
    disjoint = bool(qa[1] < qb[0] or qb[1] < qa[0])
    edges = np.histogram_bin_edges(np.concatenate([a, b]), bins="auto")
    hist_a, _ = np.histogram(a, bins=edges)
    hist_b, _ = np.histogram(b, bins=edges)
    overlap = float(np.minimum(hist_a / a.size, hist_b / b.size).sum())
    return SeparationDiagnostics(
        intervals_disjoint=disjoint,
        overlap_fraction=overlap,
        mean_gap=float(abs(a.mean() - b.mean())),
    )


def fit_propensities(dataset: Dataset, ridge: float = 0.0) -> tuple[PropensityModel, ...]:
    """Instrument and exposure models; on separation, fall back to a small ridge.

    A model with ``model.ridge != ridge`` is the ``RIDGE_FALLBACK`` refit of
    an unpenalized fit that did not converge.
    """
    x, names = dataset.covariates, dataset.covariate_names
    models = []
    for labels in (dataset.instrument, dataset.exposure):
        model = fit_logistic(x, labels, ridge=ridge, covariate_names=names)
        if not model.converged and ridge > 0.0:
            raise PropensityError(
                "propensity fit did not converge even with ridge "
                f"{ridge}; inspect the covariates"
            )
        if not model.converged:
            model = fit_logistic(x, labels, ridge=RIDGE_FALLBACK, covariate_names=names)
        if not model.converged:
            raise PropensityError(
                "propensity fit did not converge (separation suspected); the "
                f"ridge {RIDGE_FALLBACK} fallback did not converge either"
            )
        models.append(model)
    return tuple(models)


@one_blas_thread()
def compare_mechanisms(
    dataset: Dataset,
    config: TestConfig | None = None,
    ridge: float = 0.0,
    cr_result: TestResult | None = None,
    models: tuple[PropensityModel, PropensityModel] | None = None,
) -> ComparisonResult:
    """Run the full instrument-vs-exposure comparison.

    The complete-randomization benchmark permutes the instrument
    (conditioning on its observed treated count) and both observed
    global balance values are located in that one distribution.  The
    instrument's value and p-value are read off ``cr_result``, which is
    identical to an independent ``run_test`` with the same config; the
    exposure's value is read off its Bernoulli-trial ``TestResult``
    (``exp_bt.observed``) and its p-value is ``pvalue`` against the
    complete-randomization draws.  That p-value conditions on the instrument's
    treated count, not the exposure's: it relies on the Mahalanobis
    distance under complete randomization being close to chi-squared
    with K degrees of freedom whatever the treated count (Morgan & Rubin
    2012).  The exposure's own-count test is ``global.exposure`` in the
    report; drawing a second benchmark at the exposure's count is left
    out, as it would add a draw set to every report.  The two
    Bernoulli-trial distributions resample assignments from the fitted
    propensities without refitting per draw; ``models`` defaults to
    ``fit_propensities(dataset, ridge)``.
    """
    config = config or TestConfig()
    if cr_result is None:
        cr_result = run_test(
            dataset, "instrument", config,
            mechanism=MechanismSpec(kind="complete"),
            statistic="sqrt_mahalanobis",
        )
    elif (cr_result.statistic, cr_result.target, cr_result.seed, cr_result.n_draws,
          cr_result.exact) != ("sqrt_mahalanobis", "instrument", config.seed,
                               config.n_draws, False):
        raise ValueError("cr_result does not match this comparison's config")
    iv_model, exp_model = models or fit_propensities(dataset, ridge)
    iv_bt, exp_bt = (
        _draw_set(dataset, target, ("sqrt_mahalanobis",), config,
                  MechanismSpec.bernoulli(predict(model, dataset.covariates)),
                  domain, exact=False)["sqrt_mahalanobis"]
        for target, model, domain in (("instrument", iv_model, DOMAIN_BT_INSTRUMENT),
                                      ("exposure", exp_model, DOMAIN_BT_EXPOSURE)))
    observed_iv, p_iv = cr_result.observed, cr_result.p_value
    observed_exp = exp_bt.observed
    p_exp = pvalue(observed_exp, cr_result.draws)
    case = classify_case(p_exp, p_iv, config.alpha)

    iv_vs_exp = separation_diagnostics(iv_bt.draws, exp_bt.draws)
    iv_vs_cr = separation_diagnostics(iv_bt.draws, cr_result.draws)
    exp_vs_cr = separation_diagnostics(exp_bt.draws, cr_result.draws)
    iv_closer = bool(
        iv_vs_exp.intervals_disjoint and iv_vs_cr.mean_gap < exp_vs_cr.mean_gap
    )
    return ComparisonResult(
        cr_result=cr_result,
        iv_bt=iv_bt,
        exp_bt=exp_bt,
        observed_iv=observed_iv,
        observed_exp=observed_exp,
        p_iv=p_iv,
        p_exp=p_exp,
        case=case,
        iv_vs_exp=iv_vs_exp,
        iv_vs_cr=iv_vs_cr,
        exp_vs_cr=exp_vs_cr,
        iv_closer=iv_closer,
        instrument_model=iv_model,
        exposure_model=exp_model,
        ridge_fallback_used=iv_model.ridge != ridge or exp_model.ridge != ridge,
    )
