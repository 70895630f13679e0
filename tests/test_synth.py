"""Synthetic generator: determinism, ground truth, scenario structure."""

import hashlib
import json

import numpy as np
import pytest
from scipy.special import expit, ndtri

from ivrand import (
    PRESETS,
    ScenarioSpec,
    TestConfig,
    generate,
    generating_probabilities,
    load_dataset,
    run_test,
    write_delimited,
)
from ivrand.synth import _normal_quantile


# sha256 of x (little-endian float64), z and d (int8) and the ground truth
# (JSON, sorted keys), as generated while synth used scipy.special's expit
# and ndtri: the scipy-free logistic and normal quantile must not move a
# dataset.  Keys are (preset, n_units, k_covariates) at seed 11.
PINNED_DIGESTS = {
    ("all-randomized", 300, 3): (
        "63c731b94476a3c6476b19cd2d4968c943500b29e53bc38b92b5dda6702d1c08",
        "3a352485d633334ca67ba8bf3ca880e0cdcde284abcc8f733e3968bf0e1a0f18",
        "dc37dd654dec890a144495a7305fc03ad2e26ac4303e8d1976ad57db776fa1e3",
        "811ffadd139724167e77f42de4b4565141af119c680612fc004c686f7666fc05",
    ),
    ("all-randomized", 3000, 12): (
        "3024f56dbaeaf5c9a9c1a670a807537aa4ef8935b56607b2ace27abc9abe8310",
        "b4706291f72a62931f4ee48cb3c76fd13da36cda6e531895d7804810c2883acf",
        "a74df2d6a389cec3c79c0b57acdad544ed6067f2e2d11cc9857280efc9820281",
        "d25962c3754af4b5257d115dc95a0e302be9fa1d33a567d785536479df5f24d5",
    ),
    ("confounded-exposure", 300, 3): (
        "63c731b94476a3c6476b19cd2d4968c943500b29e53bc38b92b5dda6702d1c08",
        "3a352485d633334ca67ba8bf3ca880e0cdcde284abcc8f733e3968bf0e1a0f18",
        "43cc69a645ee1d0a0349c20ea761313e56514aa2cc45372476332d8ade6072f3",
        "5e8994c995d2d0a61d58d08c5ff579e1276bfb34b8b6bb69c36547e9b9701785",
    ),
    ("confounded-exposure", 3000, 12): (
        "3024f56dbaeaf5c9a9c1a670a807537aa4ef8935b56607b2ace27abc9abe8310",
        "b4706291f72a62931f4ee48cb3c76fd13da36cda6e531895d7804810c2883acf",
        "567796cf280e2c76150471ac99e2ee59a3193995fd73729dc30e6546d671ea58",
        "1166965ea03d73c0ba66cb47370b2e92442efb9a1173f5ed96b65c20214118e1",
    ),
    ("both-confounded", 300, 3): (
        "63c731b94476a3c6476b19cd2d4968c943500b29e53bc38b92b5dda6702d1c08",
        "49edf8d8feeaa53ca26fe520a92103edaa8a0df22ae80d8f9190e548187d9f2f",
        "5f0542057abb8851be84311a43a5134a8e5179fb6184687f9069c0142eaa52a2",
        "2a9f63a2438435fa76d1db57d4dcd5bf4b52db688c8d47792a6668d20cf9b1a4",
    ),
    ("both-confounded", 3000, 12): (
        "3024f56dbaeaf5c9a9c1a670a807537aa4ef8935b56607b2ace27abc9abe8310",
        "f8c8eba883c8721d76c308028b9b5fd4d4629aea8c4a2f7cbb10a4bd67619b61",
        "9e368afe803cd130c2be86e33d3ccae1786da306baaedb68ff207df28a792116",
        "48c73657f86c1348d2da4e63f6a4d4d04c722777e5033fce188bc836db7358df",
    ),
    ("independently-confounded", 300, 3): (
        "63c731b94476a3c6476b19cd2d4968c943500b29e53bc38b92b5dda6702d1c08",
        "25288fa1ec2aa5ecabe7f8f8f2304290746bbb1a4e19bedeb09d8f0443f79569",
        "8bba49a06cd399e892fa4cc7e46d754cf5159799e94b8421f8cc797c7709a1a9",
        "a7ed9ed88921849f41705060acd7f26e6055bc93f704a988c7501f51929f884e",
    ),
    ("independently-confounded", 3000, 12): (
        "3024f56dbaeaf5c9a9c1a670a807537aa4ef8935b56607b2ace27abc9abe8310",
        "e90e928aeadaa8709fd5ecf543c10c7adc1fb36f8774210578cfd5124636c5cd",
        "49d51d7ef418211295739ed1d9d05ece2aebb6c7b878757d290ceef0887800b7",
        "34ed2782b8fcf2452ff411e896c4244e3b995970058ce7bb2510cc7bd9429a21",
    ),
}
# 78 of its 300 units have a generating probability of exactly 1.0
SATURATED_SPEC = ScenarioSpec(
    n_units=300, k_covariates=3, seed=2, instrument_model="confounded",
    instrument_strength=60, confounding_strength=60, instrument_effect=0,
    assignment_coupling=0.5)
SATURATED_DIGESTS = (
    "c612449dad9b656ef67aab7c736cf373014e9e34d4796921b4dfeefca8346bbe",
    "9bb6c2a409d31e256af49cd1ba573bc0f424cef8223f514108ddf147981043d1",
    "7759e35715fa903181710f9eb1ed271677d5b9e4442bbf7d7e088a3a51481a37",
    "2af81e4438892f8a2a52be1f1194a126a1ef8820b9883c75369978f03de0ba91",
)


def _digests(spec):
    ds, gt = generate(spec)
    return tuple(hashlib.sha256(b).hexdigest() for b in (
        np.ascontiguousarray(ds.covariates, dtype="<f8").tobytes(),
        np.ascontiguousarray(ds.instrument, dtype="i1").tobytes(),
        np.ascontiguousarray(ds.exposure, dtype="i1").tobytes(),
        json.dumps(gt, sort_keys=True).encode(),
    ))


class TestGenerate:
    def test_seed_determinism(self):
        spec = ScenarioSpec(n_units=300, k_covariates=5, seed=42,
                            instrument_model="confounded",
                            instrument_strength=1.0,
                            confounding_strength=1.0, instrument_effect=0.5)
        a, gt_a = generate(spec)
        b, gt_b = generate(spec)
        assert a.equals(b)
        assert gt_a == gt_b

    def test_randomized_instrument_structure(self):
        ds, gt = generate(ScenarioSpec(n_units=200, k_covariates=4, seed=1))
        assert ds.n_treated_instrument == 100
        assert gt["instrument"]["mechanism"] == "complete"

    def test_covariate_mixture(self):
        ds, gt = generate(ScenarioSpec(n_units=5000, k_covariates=6, seed=2))
        x = ds.covariates
        # first two continuous, remainder Bernoulli(0.3)
        assert np.unique(x[:, 2:]).tolist() == [0.0, 1.0]
        assert abs(x[:, 2:].mean() - 0.3) < 0.03
        assert abs(x[:, 0].std() - 1.0) < 0.05

    def test_ground_truth_recomputes_probabilities(self):
        spec = ScenarioSpec(n_units=500, k_covariates=4, seed=3,
                            instrument_model="confounded",
                            instrument_strength=1.3,
                            confounding_strength=0.8, instrument_effect=0.6)
        ds, gt = generate(spec)
        probs = generating_probabilities(gt, ds.covariates, ds.instrument)
        centers = np.asarray(gt["covariates"]["centers"])
        scales = np.asarray(gt["covariates"]["scales"])
        weights = np.asarray(gt["covariates"]["weights"])
        index = ((ds.covariates - centers) / scales) @ weights
        np.testing.assert_allclose(probs["instrument"], expit(1.3 * index),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            probs["exposure"],
            expit(-0.3 + 0.6 * ds.instrument + 0.8 * index),
            rtol=1e-12,
        )

    def test_no_instrument_effect_gives_uncorrelated_z_d(self):
        n = 4000
        ds, _ = generate(ScenarioSpec(n_units=n, k_covariates=3, seed=4,
                                      instrument_model="randomized",
                                      confounding_strength=0.0,
                                      instrument_effect=0.0))
        r = np.corrcoef(ds.instrument, ds.exposure)[0, 1]
        assert abs(r) < 3 / np.sqrt(n)

    def test_validity_when_randomized(self):
        """Rejection at the nominal rate when Z truly is randomized."""
        rejections = 0
        reps = 60
        for rep in range(reps):
            ds, _ = generate(ScenarioSpec(n_units=150, k_covariates=3, seed=rep,
                                          instrument_model="randomized",
                                          confounding_strength=1.0,
                                          instrument_effect=1.0))
            res = run_test(ds, "instrument", TestConfig(n_draws=400, seed=rep),
                           statistic="sqrt_mahalanobis")
            rejections += res.reject_at_alpha
        assert rejections <= 10   # ~5% nominal; generous binomial bound

    def test_power_when_confounded(self):
        """Pinned calibration: strength 2 at N = 2000 rejects almost always."""
        rejections = 0
        reps = 25
        for rep in range(reps):
            ds, _ = generate(ScenarioSpec(n_units=2000, k_covariates=5, seed=rep,
                                          instrument_model="confounded",
                                          instrument_strength=2.0,
                                          confounding_strength=2.0,
                                          instrument_effect=0.0))
            res = run_test(ds, "instrument", TestConfig(n_draws=300, seed=rep),
                           statistic="sqrt_mahalanobis")
            rejections += res.reject_at_alpha
        assert rejections / reps > 0.9

    def test_coupled_scenario_marginals_and_constraints(self):
        spec = ScenarioSpec(n_units=3000, k_covariates=4, seed=5,
                            **PRESETS["both-confounded"])
        ds, gt = generate(spec)
        assert gt["exposure"]["coupled_to_instrument"] == 0.95
        # coupled draws agree much more often than independent ones would
        agree = (ds.instrument == ds.exposure).mean()
        assert agree > 0.8

    def test_coupling_constraints_enforced(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_units=100, instrument_model="randomized",
                         assignment_coupling=0.9)
        with pytest.raises(ValueError):
            ScenarioSpec(n_units=100, instrument_model="confounded",
                         instrument_strength=1.0, confounding_strength=2.0,
                         instrument_effect=0.0, assignment_coupling=0.9)

    def test_emit_ingestible_file(self, tmp_path):
        ds, _ = generate(ScenarioSpec(n_units=80, k_covariates=3, seed=6))
        path = tmp_path / "synth.csv"
        write_delimited(ds, path)
        assert load_dataset(path, "instrument", "exposure").equals(ds)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_units=5)
        with pytest.raises(ValueError):
            ScenarioSpec(n_units=100, instrument_model="bogus")

    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS))
    def test_pinned_digests(self, key):
        preset, n, k = key
        spec = ScenarioSpec(n_units=n, k_covariates=k, seed=11, **PRESETS[preset])
        assert _digests(spec) == PINNED_DIGESTS[key]

    def test_saturated_probabilities(self):
        # a threshold of +inf treats every unit at p = 1 in both vectors; a
        # nan threshold would silently leave them all untreated
        assert _digests(SATURATED_SPEC) == SATURATED_DIGESTS
        ds, gt = generate(SATURATED_SPEC)
        p = generating_probabilities(gt, ds.covariates)["instrument"]
        assert (p == 1.0).sum() == 78
        assert ds.instrument[p == 1.0].all() and ds.exposure[p == 1.0].all()


class TestNormalQuantile:
    def test_matches_ndtri(self):
        rng = np.random.default_rng(0)
        p = np.concatenate([
            rng.random(100_000),
            10.0 ** rng.uniform(-300, 0, 100_000),
            1.0 - 10.0 ** rng.uniform(-16, 0, 100_000),
            [1e-300, 5e-324, 0.075, 0.5, 0.925, 1.0 - 2.0**-53],
        ])
        got, want = _normal_quantile(p), ndtri(p)
        assert np.isfinite(got).all()
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 8

    def test_endpoints(self):
        # ndtri's values; statistics.NormalDist.inv_cdf raises at both
        np.testing.assert_array_equal(_normal_quantile(np.array([0.0, 1.0])),
                                      [-np.inf, np.inf])
