"""Case classification, separation diagnostics, and the full comparison."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, norm

from ivrand import (
    Dataset,
    MechanismSpec,
    ScenarioSpec,
    StatisticError,
    TestConfig,
    classify_case,
    compare_mechanisms,
    fit_logistic,
    fit_propensities,
    generate,
    predict,
    run_test,
    separation_diagnostics,
)
from ivrand import comparison, randtest, report
from ivrand.comparison import RIDGE_FALLBACK
from ivrand.randtest import TestResult
from ivrand.report import build_report

RECOMMENDATIONS = {
    "case1": "Use IV analysis",
    "case2": "Reject IV analysis",
    "case3": "Use IV analysis or exposure analysis",
    "case4": "Compare balance or bias of D and Z",
}


class TestClassifyCase:
    def test_reject_exposure_only(self):
        out = classify_case(p_exposure=0.01, p_instrument=0.20, alpha=0.05)
        assert out.label == "case1"
        assert out.recommendation == "Use IV analysis"

    def test_reject_instrument_only(self):
        out = classify_case(p_exposure=0.20, p_instrument=0.01, alpha=0.05)
        assert out.label == "case2"
        assert out.recommendation == "Reject IV analysis"

    def test_reject_neither(self):
        out = classify_case(p_exposure=0.20, p_instrument=0.30, alpha=0.05)
        assert out.label == "case3"
        assert out.recommendation == "Use IV analysis or exposure analysis"

    def test_reject_both(self):
        out = classify_case(p_exposure=0.01, p_instrument=0.01, alpha=0.05)
        assert out.label == "case4"
        assert out.recommendation == "Compare balance or bias of D and Z"

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0001, 1.0),
        st.floats(0.0001, 1.0),
        st.floats(0.001, 0.999),
    )
    def test_exhaustive_mapping(self, p_d, p_z, alpha):
        out = classify_case(p_d, p_z, alpha)
        expected = {
            (True, False): "case1",
            (False, True): "case2",
            (False, False): "case3",
            (True, True): "case4",
        }[(p_d <= alpha, p_z <= alpha)]
        assert out.label == expected
        assert out.recommendation == RECOMMENDATIONS[expected]
        assert out.reject_exposure == (p_d <= alpha)
        assert out.reject_instrument == (p_z <= alpha)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            classify_case(0.0, 0.5, 0.05)
        with pytest.raises(ValueError):
            classify_case(0.5, 0.5, 1.0)


def _result(draws) -> TestResult:
    """A global result summarizing ``draws`` as the engine summarizes a draw set."""
    return randtest._summarize("instrument", "sqrt_mahalanobis", None, 0.0,
                               np.asarray(draws, dtype=np.float64), TestConfig(),
                               MechanismSpec(kind="complete"))


class TestSeparationDiagnostics:
    def test_identical_draws(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4000)
        out = separation_diagnostics(_result(a), _result(a.copy()))
        assert out.overlap_fraction == pytest.approx(1.0)
        assert not out.intervals_disjoint
        assert out.mean_gap == 0.0

    def test_disjoint_supports(self):
        rng = np.random.default_rng(1)
        a = rng.random(2000)          # in [0, 1]
        b = 5.0 + rng.random(2000)    # in [5, 6]
        out = separation_diagnostics(_result(a), _result(b))
        assert out.intervals_disjoint
        assert out.overlap_fraction == 0.0
        assert out.mean_gap == pytest.approx(5.0, abs=0.1)

    def test_normal_shift_overlap_oracle(self):
        """Overlap of N(0,1) vs N(0.5,1) is 2 * Phi(-0.25) ~ 0.8026."""
        rng = np.random.default_rng(2)
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 0.5
        out = separation_diagnostics(_result(a), _result(b))
        assert out.overlap_fraction == pytest.approx(2 * norm.cdf(-0.25), abs=0.02)

    def test_symmetry_and_order_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(3000)
        b = rng.standard_normal(3000) * 1.4 + 0.3
        fwd = separation_diagnostics(_result(a), _result(b))
        rev = separation_diagnostics(_result(b), _result(a))
        assert fwd.overlap_fraction == pytest.approx(rev.overlap_fraction, rel=1e-12)
        assert (fwd.intervals_disjoint, fwd.mean_gap) == (rev.intervals_disjoint, rev.mean_gap)
        shuffled = separation_diagnostics(_result(rng.permutation(a)),
                                          _result(rng.permutation(b)))
        assert shuffled.overlap_fraction == pytest.approx(
            fwd.overlap_fraction, rel=1e-12
        )

    def test_undefined_draws_are_left_out(self):
        # NaN draws count in no histogram; the band and mean are the results'
        rng = np.random.default_rng(4)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 4.0
        with_nan = np.concatenate([a, np.full(300, np.nan)])
        ra, rb = _result(with_nan), _result(b)
        out = separation_diagnostics(ra, rb)
        assert out.overlap_fraction == separation_diagnostics(_result(a), rb).overlap_fraction
        assert out.intervals_disjoint == (ra.q975 < rb.q025)
        assert out.mean_gap == abs(ra.draw_mean - rb.draw_mean)


def _synthetic(seed, **kw):
    spec = ScenarioSpec(n_units=kw.pop("n_units", 600), k_covariates=4, seed=seed, **kw)
    return generate(spec)[0]


def _twelve_units() -> Dataset:
    """2 of 12 treated: Bernoulli draws are often degenerate (redrawn) or
    have a single treated unit (an undefined Mahalanobis distance)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 2))
    z = np.zeros(12, dtype=np.int8)
    z[rng.permutation(12)[:2]] = 1
    d = np.zeros(12, dtype=np.int8)
    d[rng.permutation(12)[:3]] = 1
    return Dataset(covariates=x, covariate_names=("a", "b"), instrument=z, exposure=d)


class TestCompareMechanisms:
    def test_constant_propensities_indistinguishable_from_cr(self):
        """Bernoulli with p = N_T/N for both models matches the complete
        randomization benchmark (up to its fixed-count conditioning)."""
        from ivrand.randtest import _Evaluator, _evaluate_mechanism_draws
        from ivrand.rng import DOMAIN_BT_EXPOSURE, DOMAIN_BT_INSTRUMENT

        ds = _synthetic(0, instrument_model="randomized",
                        confounding_strength=0.0, instrument_effect=0.0)
        cfg = TestConfig(n_draws=2000, seed=5)
        cr = run_test(ds, "instrument", cfg, statistic="sqrt_mahalanobis")
        p_const = np.full(ds.n_units, ds.n_treated_instrument / ds.n_units)
        evaluator = _Evaluator(ds.covariates, None, ("sqrt_mahalanobis",), None)
        spec = MechanismSpec.bernoulli(p_const)
        bt1, _ = _evaluate_mechanism_draws(spec, ds, evaluator, cfg,
                                           DOMAIN_BT_INSTRUMENT)
        bt2, _ = _evaluate_mechanism_draws(spec, ds, evaluator, cfg,
                                           DOMAIN_BT_EXPOSURE)
        a = bt1["sqrt_mahalanobis"]
        b = bt2["sqrt_mahalanobis"]
        assert ks_2samp(a, b).pvalue > 0.001
        assert ks_2samp(a, cr.draws).pvalue > 0.001
        assert ks_2samp(b, cr.draws).pvalue > 0.001

    def test_benchmark_barely_depends_on_treated_count(self):
        """The comparison places the exposure in the instrument's benchmark,
        drawn at the instrument's treated count; under complete
        randomization the Mahalanobis distance is close to chi-squared
        with K degrees of freedom whatever the count.  The two draw sets
        have different seeds: with one seed the draws at 200 treated would
        be subsets of the draws at 1,000."""
        rng = np.random.default_rng(11)
        n, k = 2_000, 5
        z = np.zeros(n, dtype=np.int8)
        z[rng.permutation(n)[:n // 2]] = 1
        ds = Dataset(covariates=rng.standard_normal((n, k)),
                     covariate_names=tuple(f"c{i}" for i in range(k)),
                     instrument=z, exposure=z[::-1].copy())
        draws = [
            run_test(ds, "instrument", TestConfig(n_draws=2_000, seed=seed),
                     mechanism=MechanismSpec.complete(n_treated),
                     statistic="sqrt_mahalanobis").draws
            for seed, n_treated in ((1, 1_000), (2, 200))
        ]
        assert ks_2samp(*draws).pvalue > 0.01

    def test_identical_copies(self):
        rng = np.random.default_rng(7)
        n = 400
        x = rng.standard_normal((n, 3))
        z = (rng.random(n) < 1 / (1 + np.exp(-x[:, 0]))).astype(np.int8)
        z[:2] = [0, 1]
        ds = Dataset(covariates=x, covariate_names=("a", "b", "c"),
                     instrument=z, exposure=z.copy())
        comp = compare_mechanisms(ds, TestConfig(n_draws=1500, seed=9))
        assert comp.cr_result.observed == pytest.approx(comp.exp_bt.observed, rel=1e-12)
        assert comp.cr_result.p_value == comp.p_exp
        assert comp.case.label in ("case3", "case4")
        ks = ks_2samp(comp.iv_bt.draws, comp.exp_bt.draws)
        assert ks.pvalue > 0.001

    def test_cr_distribution_single_source_of_truth(self):
        ds = _synthetic(1, instrument_model="randomized",
                        confounding_strength=1.0, instrument_effect=1.0)
        cfg = TestConfig(n_draws=400, seed=3)
        comp = compare_mechanisms(ds, cfg)
        alone = run_test(ds, "instrument", cfg,
                         mechanism=MechanismSpec(kind="complete"),
                         statistic="sqrt_mahalanobis")
        assert np.array_equal(comp.cr_result.draws, alone.draws)
        assert comp.cr_result.p_value == alone.p_value

    def test_discrimination_clean_iv(self):
        ds = _synthetic(2, n_units=1500, instrument_model="randomized",
                        confounding_strength=2.0, instrument_effect=1.0)
        comp = compare_mechanisms(ds, TestConfig(n_draws=500, seed=13, alpha=0.01))
        assert comp.case.label == "case1"
        assert comp.iv_closer
        assert comp.iv_vs_exp.intervals_disjoint

    def test_report_with_a_custom_count_keeps_the_benchmark(self):
        # the tests draw at 100 treated; the comparison's benchmark is still
        # the instrument's complete set at its observed 300
        ds = _synthetic(1, instrument_model="randomized",
                        confounding_strength=1.0, instrument_effect=1.0)
        assert ds.n_treated_instrument == 300
        cfg = TestConfig(n_draws=500, seed=3)
        doc = build_report(ds, cfg, mechanism=MechanismSpec.complete(100)).document
        assert doc["global"]["instrument"]["sqrt_mahalanobis"]["mechanism"]["n_treated"] == 100
        assert doc["comparison"] == report._comparison_dict(compare_mechanisms(ds, cfg), "fd")

    def test_report_fields_coherent(self):
        ds = _synthetic(4, instrument_model="randomized",
                        confounding_strength=1.5, instrument_effect=1.0)
        cfg = TestConfig(n_draws=600, seed=17)
        comp = compare_mechanisms(ds, cfg)
        assert 0.0 <= comp.iv_vs_exp.overlap_fraction <= 1.0
        assert comp.case.label in RECOMMENDATIONS
        assert comp.case.recommendation == RECOMMENDATIONS[comp.case.label]
        assert len(comp.iv_bt.draws) == cfg.n_draws
        assert len(comp.exp_bt.draws) == cfg.n_draws
        assert comp.iv_bt.q025 <= comp.iv_bt.q975

    def test_distributions_are_summarized_once(self):
        ds = _twelve_units()
        cfg = TestConfig(n_draws=400, seed=1)
        doc = build_report(ds, cfg, statistics=("sqrt_mahalanobis",)).document
        section = doc["comparison"]
        cr = section["complete_randomization"]
        own = doc["global"]["instrument"]["sqrt_mahalanobis"]
        for key in ("q025", "q975", "histogram", "n_undefined", "n_draws"):
            assert cr[key] == own[key]
        assert cr["mean"] == own["draw_mean"]
        comp = compare_mechanisms(ds, cfg)
        assert comp.iv_bt.n_redraws > 0 and comp.iv_bt.n_undefined > 0
        for target, result in (("instrument", comp.iv_bt), ("exposure", comp.exp_bt)):
            assert result.n_redraws == section["bernoulli_redraws"][target]
            dist = section[f"bernoulli_{target}"]
            assert (dist["q025"], dist["q975"]) == (result.q025, result.q975)
            assert dist["n_undefined"] == result.n_undefined

    @pytest.mark.parametrize("which", ["undefined_draws", "disjoint_bands"])
    def test_separation_follows_from_the_printed_bands_and_means(self, which):
        if which == "undefined_draws":
            ds, cfg = _twelve_units(), TestConfig(n_draws=200, seed=3)
        else:
            ds = _synthetic(2, n_units=1500, instrument_model="randomized",
                            confounding_strength=2.0, instrument_effect=1.0)
            cfg = TestConfig(n_draws=500, seed=13)
        section = build_report(ds, cfg, statistics=("sqrt_mahalanobis",)).document["comparison"]
        pairs = {
            "instrument_vs_exposure": ("bernoulli_instrument", "bernoulli_exposure"),
            "instrument_vs_benchmark": ("bernoulli_instrument", "complete_randomization"),
            "exposure_vs_benchmark": ("bernoulli_exposure", "complete_randomization"),
        }
        disjoint = []
        for name, (first, second) in pairs.items():
            a, b = section[first], section[second]
            sep = section["separation"][name]
            assert sep["intervals_disjoint"] == (a["q975"] < b["q025"] or b["q975"] < a["q025"])
            assert sep["mean_gap"] == abs(a["mean"] - b["mean"])
            disjoint.append(sep["intervals_disjoint"])
        if which == "undefined_draws":
            assert section["bernoulli_instrument"]["n_undefined"] > 0
            assert section["bernoulli_exposure"]["n_undefined"] > 0
        else:
            assert any(disjoint)

    def test_undefined_exposure_balance(self):
        # the second covariate equals the exposure, so the exposure's
        # Mahalanobis is undefined while the instrument's is not
        rng = np.random.default_rng(5)
        z = (rng.random(80) < 0.5).astype(np.int8)
        d = (rng.random(80) < 0.3 + 0.4 * z).astype(np.int8)
        x = np.column_stack([rng.standard_normal(80), d])
        ds = Dataset(covariates=x, covariate_names=("a", "d"), instrument=z, exposure=d)
        cfg = TestConfig(n_draws=200, seed=4)
        assert np.isfinite(run_test(ds, "instrument", cfg, statistic="sqrt_mahalanobis").observed)
        with pytest.raises(StatisticError, match="undefined for the exposure"):
            compare_mechanisms(ds, cfg)


def _exposure_separated(seed=3, n=300):
    """The first covariate perfectly separates the exposure."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    z = (rng.random(n) < 1 / (1 + np.exp(-0.5 * x[:, 1]))).astype(np.int8)
    d = (x[:, 0] > 0).astype(np.int8)
    return Dataset(covariates=x, covariate_names=("sep", "b", "c"),
                   instrument=z, exposure=d)


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def _compare_by_hand(dataset, config, ridge=0.0):
    """The comparison composed step by step: one fit and one prediction per
    model, the three ``sqrt_mahalanobis`` sets drawn with ``run_test``."""
    models = fit_propensities(dataset, ridge)
    sets = [("instrument", None)] + [
        (target, MechanismSpec.bernoulli(predict(model, dataset.covariates)))
        for target, model in zip(("instrument", "exposure"), models)]
    return comparison.assemble_comparison(
        *(run_test(dataset, target, config, mech, "sqrt_mahalanobis") for target, mech in sets),
        models, ridge, config.alpha)


class TestSharedPropensityFit:
    def test_fallback_only_for_the_separated_model(self):
        ds = _exposure_separated()
        plain = fit_logistic(ds.covariates, ds.exposure,
                             covariate_names=ds.covariate_names)
        assert not plain.converged and plain.separation_flag
        iv_model, exp_model = fit_propensities(ds)
        assert iv_model.converged and iv_model.ridge == 0.0
        assert exp_model.converged and exp_model.ridge == RIDGE_FALLBACK

    def test_report_comparison_matches_compare_mechanisms(self):
        # the exposure model is the ridge fallback fit in both
        ds = _exposure_separated()
        cfg = TestConfig(n_draws=300, seed=4)
        comp = compare_mechanisms(ds, cfg)
        assert comp.ridge_fallback_used
        assert _same(comp, compare_mechanisms(ds, cfg))
        assert _same(comp, build_report(ds, cfg, statistics=()).comparison)
        full_report = build_report(ds, cfg)
        full = full_report.comparison
        assert full_report.document["comparison"] == report._comparison_dict(full, "fd")
        # the two references compute only sqrt_mahalanobis in either report
        assert _same(full.iv_bt, comp.iv_bt) and _same(full.exp_bt, comp.exp_bt)
        # the default report's benchmark is the instrument's test set, which
        # also computes vector statistics and so takes the evaluator's wide
        # product: its floats may differ from the narrow set's in the last bits
        wide, narrow = full.cr_result, comp.cr_result
        assert np.array_equal(np.isnan(wide.draws), np.isnan(narrow.draws))
        np.testing.assert_allclose(wide.draws, narrow.draws, rtol=1e-12)
        for name in ("observed", "q025", "q975", "draw_mean"):
            assert getattr(wide, name) == pytest.approx(getattr(narrow, name), rel=1e-12)
        for name in ("p_value", "reject_at_alpha", "n_draws", "n_undefined", "n_redraws"):
            assert getattr(wide, name) == getattr(narrow, name)
        assert (full.p_exp, full.case, full.iv_closer, full.ridge_fallback_used) == (
            comp.p_exp, comp.case, comp.iv_closer, comp.ridge_fallback_used)
        for name in ("iv_vs_exp", "iv_vs_cr", "exp_vs_cr"):
            a, b = getattr(full, name), getattr(comp, name)
            assert a.intervals_disjoint == b.intervals_disjoint
            assert a.overlap_fraction == pytest.approx(b.overlap_fraction, rel=1e-12)
            assert a.mean_gap == pytest.approx(b.mean_gap, rel=1e-12)

    @pytest.mark.parametrize("case", ["ridge_fallback", "undefined"])
    def test_compare_mechanisms_is_the_composition_by_hand(self, case):
        if case == "ridge_fallback":
            ds, cfg = _exposure_separated(), TestConfig(n_draws=300, seed=4)
        else:
            ds, cfg = _twelve_units(), TestConfig(n_draws=200, seed=3)
        comp = compare_mechanisms(ds, cfg)
        assert _same(comp, _compare_by_hand(ds, cfg))
        if case == "ridge_fallback":
            assert comp.ridge_fallback_used
        else:
            assert comp.iv_bt.n_undefined > 0 and comp.iv_bt.n_redraws > 0

    def test_exact_report_has_no_comparison(self):
        ds = _synthetic(5, n_units=20, instrument_model="randomized",
                        confounding_strength=1.0, instrument_effect=1.0)
        full = build_report(ds, TestConfig(n_draws=1), exact=True)
        assert full.comparison is None and full.document["comparison"] is None

    def test_report_shows_the_models_the_comparison_used(self):
        ds = _exposure_separated()
        doc = build_report(ds, TestConfig(n_draws=200, seed=6)).document
        assert doc["comparison"]["ridge_fallback_used"] is True
        iv_model, exp_model = fit_propensities(ds)
        for label, model in (("instrument", iv_model), ("exposure", exp_model)):
            shown = doc["propensity"][label]["model"]
            assert shown["converged"] is True
            assert shown["ridge"] == model.ridge
            assert list(shown["coefficients"].values()) == model.coefficients.tolist()

    def test_build_report_fits_each_model_once(self, monkeypatch):
        ridges = []

        def counted(*args, **kwargs):
            ridges.append(kwargs.get("ridge"))
            return fit_logistic(*args, **kwargs)

        for module in (comparison, report):
            monkeypatch.setattr(module, "fit_logistic", counted)
        ds = _synthetic(5, instrument_model="randomized",
                        confounding_strength=1.0, instrument_effect=1.0)
        build_report(ds, TestConfig(n_draws=100, seed=2))
        assert ridges == [0.0, 0.0]

    @pytest.mark.parametrize("mechanism", [None, "bernoulli"])
    def test_build_report_predicts_each_model_once(self, monkeypatch, mechanism):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return predict(*args, **kwargs)

        for module in (comparison, report):
            monkeypatch.setattr(module, "predict", counted)
        ds = _synthetic(5, instrument_model="randomized",
                        confounding_strength=1.0, instrument_effect=1.0)
        build_report(ds, TestConfig(n_draws=100, seed=2), mechanism=mechanism)
        models = fit_propensities(ds)
        assert len(calls) == 2 and all(map(_same, calls, models))

    def test_build_report_rejects_negative_ridge(self):
        ds = _synthetic(5, instrument_model="randomized",
                        confounding_strength=1.0, instrument_effect=1.0)
        for exact in (False, True):
            with pytest.raises(ValueError, match="ridge"):
                build_report(ds, TestConfig(n_draws=100, seed=2), ridge=-1.0,
                             exact=exact)
