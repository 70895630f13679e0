"""Randomization-test engine: p-values, exactness, determinism."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ivrand import (
    CapExceededError,
    Dataset,
    MechanismSpec,
    StatisticError,
    TestConfig,
    exact_test,
    instrument_strength,
    iv_bias,
    mahalanobis,
    mahalanobis_from_components,
    mean_difference_covariance,
    per_covariate_quantiles,
    prevalence_difference,
    pvalue,
    run_many,
    run_test,
    scmd,
)
from ivrand import fit_propensities, predict, randtest
from ivrand import _workspace
from ivrand._workspace import Workspace
from ivrand.balance import PANEL_UNITS
from ivrand.cli import _HIST_BIN_RULES
from ivrand.mechanisms import (draw_batch, draw_bernoulli, draw_block, draw_complete,
                               enumerate_matrix, prepare_sampler)
from ivrand.randtest import GLOBAL_STATISTICS, STATISTICS, _Evaluator
from ivrand.report import DEFAULT_STATISTICS, build_report
from ivrand.rng import DOMAIN_KEYS, DrawStream
from ivrand.synth import PRESETS, ScenarioSpec, generate


def _dataset(n=24, k=3, seed=0, confounded=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[: n // 2]] = 1
    if confounded:
        z = (rng.random(n) < 1 / (1 + np.exp(-1.5 * x[:, 0]))).astype(np.int8)
        z[:2] = [0, 1]
    d = (rng.random(n) < 0.3 + 0.4 * z).astype(np.int8)
    d[:2] = [0, 1]
    return Dataset(
        covariates=x,
        covariate_names=tuple(f"c{i}" for i in range(k)),
        instrument=z,
        exposure=d,
    )


def _separated_dataset():
    """K=2 data whose second covariate equals the instrument."""
    rng = np.random.default_rng(1)
    z = np.zeros(30, dtype=np.int8)
    z[rng.permutation(30)[:15]] = 1
    x = np.column_stack([rng.standard_normal(30), z])
    d = (rng.random(30) < 0.3 + 0.4 * z).astype(np.int8)
    return Dataset(covariates=x, covariate_names=("x", "sep"), instrument=z, exposure=d)


class TestPvalue:
    def test_zero_observed_gives_one(self):
        assert pvalue(0.0, [0.5, -1.0, 2.0]) == 1.0

    def test_minimal_attainable(self):
        draws = list(np.linspace(0.1, 1.0, 10))
        assert pvalue(5.0, draws) == pytest.approx(1 / 11)

    def test_direct_count(self):
        assert pvalue(2.5, [1, 2, 3, 4]) == pytest.approx(0.6)

    def test_empty_draws_error(self):
        with pytest.raises(StatisticError):
            pvalue(1.0, [])

    def test_nan_draws_excluded(self):
        assert pvalue(2.5, [1, 2, 3, 4, np.nan]) == pytest.approx(0.6)

    @pytest.mark.parametrize("draws", [[np.inf, 1.0, 2.0], [np.inf, np.inf, 2.0],
                                       [-np.inf, np.nan, 2.0]])
    def test_infinite_draws_are_defined(self, draws):
        # +-inf lies in every tail and counts in the denominator; only NaN
        # is undefined, so p never exceeds 1
        assert pvalue(0.5, draws) == 1.0

    def test_all_nan_draws_error(self):
        with pytest.raises(StatisticError, match="all draws are undefined"):
            pvalue(1.0, [np.nan, np.nan])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=40),
        st.floats(0, 40),
        st.floats(0.1, 10),
    )
    def test_monotone_in_observed(self, draws, t, bump):
        assert pvalue(t + bump, draws) <= pvalue(t, draws)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40), st.floats(-40, 40))
    def test_bounds(self, draws, t):
        p = pvalue(t, draws)
        assert 1 / (len(draws) + 1) <= p <= 1.0


class TestRunTest:
    def test_constant_covariate_p_one(self):
        rng = np.random.default_rng(1)
        z = np.array([1, 0] * 8, dtype=np.int8)
        ds = Dataset(
            covariates=np.full((16, 1), 3.25),
            covariate_names=("const",),
            instrument=z,
            exposure=np.roll(z, 1),
        )
        res = run_test(ds, "instrument", TestConfig(n_draws=200, seed=3),
                       statistic="scmd")
        assert res.p_value[0] == 1.0
        assert res.observed[0] == 0.0

    def test_zero_mean_difference_gives_p_one(self):
        # the binary covariate is equally common in both instrument groups:
        # its mean difference is exactly 0, so every draw ties with it and
        # p = 1; centring on the float mean used to leave a residue of about
        # 1e-17 that many draws' own residues fell below (p down to 0.62 here)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n1, n0, share = [(6, 12, 3), (5, 10, 5), (10, 15, 5), (9, 18, 3),
                             (7, 14, 7)][seed % 5]
            g = int(rng.integers(1, share))   # g of every `share` units have b = 1
            z = np.repeat(np.array([1, 0], dtype=np.int8), [n1, n0])
            b = np.concatenate([rng.permutation(n1) < n1 * g // share,
                                rng.permutation(n0) < n0 * g // share])
            perm = rng.permutation(n1 + n0)
            x = np.column_stack([rng.standard_normal(n1 + n0), b])[perm]
            ds = Dataset(covariates=x, covariate_names=("x", "b"), instrument=z[perm],
                         exposure=np.roll(z[perm], 1))
            res = run_test(ds, "instrument", TestConfig(n_draws=200, seed=seed),
                           statistic="scmd")
            assert res.observed[1] == 0.0 and res.p_value[1] == 1.0

    @pytest.mark.parametrize("statistic", ["prevalence_diff", "scmd", "iv_bias"])
    def test_draws_with_zero_mean_difference_are_exactly_zero(self, statistic):
        # exactly the enumerated assignments that split the binary covariate
        # in equal shares (a / 5 == (3 - a) / 10) evaluate to 0
        rng = np.random.default_rng(4)
        n, n1 = 15, 5
        b = np.zeros(n)
        b[[1, 6, 10]] = 1.0
        z = np.zeros(n, dtype=np.int8)
        z[:n1] = 1
        d = np.zeros(n, dtype=np.int8)
        d[[0, 1, 2, 9]] = 1
        ds = Dataset(covariates=np.column_stack([rng.standard_normal(n), b]),
                     covariate_names=("x", "b"), instrument=z, exposure=d)
        res = exact_test(ds, "instrument", statistic=statistic)
        a = enumerate_matrix(n, n1).astype(np.int64) @ b.astype(np.int64)
        equal_shares = a * (n - n1) == (3 - a) * n1
        assert equal_shares.sum() == 1485   # C(3, 1) * C(12, 4)
        assert np.array_equal(res.draws[:, 1] == 0.0, equal_shares)

    def test_reproducibility_bit_identical(self):
        ds = _dataset(seed=2)
        cfg = TestConfig(n_draws=500, seed=11)
        a = run_test(ds, "instrument", cfg, statistic="scmd")
        b = run_test(ds, "instrument", cfg, statistic="scmd")
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.p_value, b.p_value)
        assert np.array_equal(a.observed, b.observed)

    def test_threads_do_not_change_results(self, monkeypatch):
        # at N = 2,000 a chunk's product is large enough for OpenBLAS to
        # thread it, at N = 60 it never is
        monkeypatch.setattr(randtest, "CHUNK_MAX_ROWS", 128)
        for n, k in ((60, 3), (2_000, 12)):
            ds = _dataset(n=n, k=k, seed=3)
            base, *threaded = [
                run_many(ds, "instrument", STATISTICS,
                         TestConfig(n_draws=700, seed=5, threads=threads))
                for threads in (1, 2, 4)
            ]
            for other in threaded:
                for s in STATISTICS:
                    assert np.array_equal(base[s].draws, other[s].draws, equal_nan=True)
                    assert np.array_equal(base[s].p_value, other[s].p_value)

    def test_binary_prevalence_p_values_match_integer_oracle(self):
        # a draw's mean difference of a binary covariate is
        # (c1 N - C N_T) / (N_T (N - N_T)), c1 the ones among its treated
        # units and C among all: its p-value is a count over integers.  At
        # N = 6,000 exactly tied differences round up to 4e-12 apart.
        ds, _ = generate(ScenarioSpec(n_units=6_000, k_covariates=12, seed=5,
                                      **PRESETS["confounded-exposure"]))
        m = 1_000
        x = ds.covariates
        binary = [j for j in range(ds.n_covariates) if np.isin(x[:, j], (0.0, 1.0)).all()]
        assert binary
        ones = x[:, binary].astype(np.int64)
        for target in ("instrument", "exposure"):
            res = run_test(ds, target, TestConfig(n_draws=m, seed=5),
                           statistic="prevalence_diff")
            z = ds.target_vector(target).astype(np.int64)
            n, n_t = ds.n_units, int(z.sum())
            stream = DrawStream(seed=5, domain=DOMAIN_KEYS)
            draws = draw_batch(MechanismSpec.complete(n_t), n, stream,
                               np.arange(m, dtype=np.uint64)).astype(np.int64)
            total = ones.sum(axis=0)
            observed = np.abs(z @ ones * n - total * n_t)
            numerators = np.abs(draws @ ones * n - total * n_t)
            oracle = (1 + (numerators >= observed).sum(axis=0)) / (m + 1)
            assert np.array_equal(res.p_value[binary], oracle)

    def test_p_lower_bound_attained(self):
        # a covariate that separates groups maximally drives p to the floor
        n = 30
        x = np.zeros((n, 1))
        z = np.zeros(n, dtype=np.int8)
        z[:15] = 1
        x[:15, 0] = 100.0
        x[15:, 0] = -100.0
        x[:, 0] += np.linspace(0, 1, n)  # break ties away from lattice
        d = np.roll(z, 1)
        ds = Dataset(covariates=x, covariate_names=("s",), instrument=z, exposure=d)
        m = 400
        res = run_test(ds, "instrument", TestConfig(n_draws=m, seed=7),
                       statistic="prevalence_diff")
        assert res.p_value[0] >= 1 / (m + 1)

    def test_mahalanobis_right_tail(self):
        ds = _dataset(seed=4)
        res = run_test(ds, "instrument", TestConfig(n_draws=300, seed=9),
                       statistic="mahalanobis")
        assert (res.draws >= 0).all()
        assert res.n_undefined == 0

    def test_shared_draw_set_across_statistics(self):
        ds = _dataset(seed=5)
        cfg = TestConfig(n_draws=400, seed=13)
        bundle = run_many(ds, "instrument", ("scmd", "sqrt_mahalanobis"), cfg)
        alone = run_test(ds, "instrument", cfg, statistic="scmd")
        assert np.array_equal(bundle["scmd"].draws, alone.draws)

    def test_exposure_target_uses_own_count(self):
        ds = _dataset(seed=6)
        res = run_test(ds, "exposure", TestConfig(n_draws=100, seed=1),
                       statistic="scmd")
        assert res.mechanism["n_treated"] == ds.n_treated_exposure

    def test_per_draw_bias_undefined_draws_excluded(self):
        # an even split makes zero exposure differences across permuted
        # groups likely (2 of the 4 exposed units treated)
        x = np.arange(8, dtype=np.float64)[:, None]
        z = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)
        d = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=np.int8)
        ds = Dataset(covariates=x, covariate_names=("c",), instrument=z, exposure=d)
        cfg = TestConfig(n_draws=500, seed=21, bias_denominator="per_draw")
        res = run_test(ds, "instrument", cfg, statistic="iv_bias")
        assert int(res.n_undefined[0]) > 0
        count = np.isfinite(res.draws[:, 0]).sum()
        assert res.p_value[0] >= 1 / (count + 1)

    def test_fixed_bias_denominator_matches_manual(self):
        ds = _dataset(seed=7)
        cfg = TestConfig(n_draws=50, seed=2)
        res = run_test(ds, "instrument", cfg, statistic="iv_bias")
        strength = prevalence_difference(
            ds.exposure.astype(float), ds.instrument
        )
        manual = np.array([
            prevalence_difference(ds.covariates[:, j], ds.instrument) / strength
            for j in range(3)
        ])
        np.testing.assert_allclose(res.observed, manual, rtol=1e-9)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("target", ["instrument", "exposure"])
    def test_observed_bias_same_bits_in_both_modes(self, target, exact):
        # the fixed denominator is the target's own strength, so the observed
        # row is the same number whichever denominator the draws use
        for seed in range(8):
            ds = _dataset(n=12, k=3, seed=seed, confounded=True)
            if instrument_strength(ds.target_vector(target), ds.exposure) == 0.0:
                continue
            observed = [
                run_many(ds, target, ("iv_bias",),
                         TestConfig(n_draws=40, seed=1, bias_denominator=mode),
                         exact=exact)["iv_bias"].observed
                for mode in ("fixed_observed", "per_draw")]
            np.testing.assert_array_equal(*observed)

    def test_zero_strength_fixed_bias_errors(self):
        x = np.random.default_rng(8).standard_normal((8, 1))
        z = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)
        d = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.int8)
        ds = Dataset(covariates=x, covariate_names=("c",), instrument=z, exposure=d)
        with pytest.raises(StatisticError, match="zero"):
            run_test(ds, "instrument", TestConfig(n_draws=50, seed=1),
                     statistic="iv_bias")

    def test_separating_covariate_mahalanobis_undefined(self):
        # a pseudo-inverse cutoff that drops the separated direction would
        # report a small, unremarkable value here (0.36 with p = 0.96)
        ds = _separated_dataset()
        with pytest.raises(StatisticError,
                           match="observed sqrt_mahalanobis is undefined"):
            run_test(ds, "instrument", TestConfig(n_draws=500, seed=1),
                     statistic="sqrt_mahalanobis")
        evaluator = _Evaluator(ds.covariates, None)
        engine = evaluator(ds.instrument[None, :].astype(np.float64),
                           ("mahalanobis",))["mahalanobis"]
        assert np.isnan(engine[0])
        assert np.isnan(mahalanobis(ds.covariates, ds.instrument).mahalanobis)

    def test_covariate_constant_within_both_groups_scmd_undefined(self):
        # the second covariate equals the exposure: within each exposure
        # group it is constant, so the scalar SCMD is undefined; the engine's
        # one-pass within-group sums of squares leave a rounding residue
        # there, and an exact-zero test would report 7.2e7 with p = 0.005
        rng = np.random.default_rng(32)
        x = rng.standard_normal(80)
        d = (rng.random(80) < rng.uniform(0.1, 0.9)).astype(np.int8)
        z = (rng.random(80) < 0.5).astype(np.int8)
        ds = Dataset(covariates=np.column_stack([x, d]), covariate_names=("x", "d"),
                     instrument=z, exposure=d)
        assert np.isnan(scmd(ds.covariates[:, 1], d))
        with pytest.raises(StatisticError, match="observed scmd is undefined .*: d$"):
            run_test(ds, "exposure", TestConfig(n_draws=200, seed=1), statistic="scmd")
        evaluator = _Evaluator(ds.covariates, None)
        engine = evaluator(d[None, :].astype(np.float64), ("scmd",))["scmd"][0]
        assert np.isfinite(engine[0]) and np.isnan(engine[1])


class TestChunking:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["complete", "block", "bernoulli"]),
        target=st.sampled_from(["instrument", "exposure"]),
        n=st.integers(12, 40),
        m=st.integers(1, 200),
    )
    def test_p_values_do_not_depend_on_chunks_or_threads(self, seed, kind, target, n, m):
        ds = _dataset(n=n, k=2, seed=seed, confounded=True)
        rng = np.random.default_rng(seed)
        # alternate the two block labels within each arm of the target, so
        # that both blocks hold treated and control units once each arm has two
        z = ds.target_vector(target)
        n1 = int(z.sum())
        if kind == "block":
            assume(2 <= n1 <= n - 2)
        rank = np.where(z == 1, np.cumsum(z), np.cumsum(1 - z))
        mechanism = {
            "complete": None,
            "block": MechanismSpec.block(tuple("ab"[r % 2] for r in rank)),
            "bernoulli": MechanismSpec.bernoulli(rng.uniform(0.2, 0.8, n)),
        }[kind]
        results = []
        for max_rows in (32, 64, 1024):
            for threads in (1, 2):
                cfg = TestConfig(n_draws=m, seed=seed, threads=threads)
                try:
                    # a Hypothesis test takes no function-scoped monkeypatch
                    with mock.patch.object(randtest, "CHUNK_MAX_ROWS", max_rows):
                        res = run_many(ds, target, STATISTICS, cfg, mechanism)
                except StatisticError:
                    assume(False)
                results.append({s: (r.p_value, r.n_redraws) for s, r in res.items()})
        for other in results[1:]:
            for s, (p, redraws) in results[0].items():
                assert np.array_equal(other[s][0], p)
                assert other[s][1] == redraws

    @pytest.mark.parametrize("kind", ["complete", "block", "bernoulli"])
    @pytest.mark.parametrize("n", [2_500, 3_073])
    def test_multi_panel_draws_do_not_depend_on_chunks_or_threads(self, kind, n):
        # N spans several evaluator panels (3073 = 3 * PANEL_UNITS + 1), so
        # every chunk size passes through the panelled product and the
        # per-thread workspaces; the assignments each chunk is given are
        # recorded and must be the same draws whatever the chunking
        ds = _dataset(n=n, k=3, seed=n, confounded=True)
        rng = np.random.default_rng(n)
        mechanism = {
            "complete": None,
            "block": MechanismSpec.block(tuple(f"s{i % 7}" for i in range(n))),
            "bernoulli": MechanismSpec.bernoulli(rng.uniform(0.2, 0.8, n)),
        }[kind]
        m = 300
        runs = []
        for max_rows in (32, 64, 1024):
            for threads in (1, 2):
                seen = np.zeros((m, n), dtype=np.int8)
                calls = []

                def recorded(spec, n_units, stream, indices, *args):
                    calls.append((spec, stream))
                    chunk = draw_batch(spec, n_units, stream, indices, *args)
                    seen[indices.astype(np.intp)] = chunk
                    return chunk

                cfg = TestConfig(n_draws=m, seed=3, threads=threads)
                with mock.patch.object(randtest, "CHUNK_MAX_ROWS", max_rows), \
                        mock.patch.object(randtest, "draw_batch", recorded):
                    res = run_many(ds, "instrument", STATISTICS, cfg, mechanism)
                runs.append((max_rows, seen, res))
        spec, stream = calls[0]
        whole = draw_batch(spec, n, stream, np.arange(m, dtype=np.uint64))
        for max_rows, seen, res in runs:
            assert np.array_equal(seen, whole)
            for s, r in res.items():
                assert np.array_equal(r.p_value, runs[0][2][s].p_value)
                assert r.n_redraws == runs[0][2]["scmd"].n_redraws
        # a statistic's rounding may follow the chunk rows, never the threads
        for (rows1, _, one), (rows2, _, two) in zip(runs[::2], runs[1::2]):
            assert rows1 == rows2
            for s in STATISTICS:
                assert np.array_equal(one[s].draws, two[s].draws, equal_nan=True)

    @pytest.mark.parametrize("n", [20, PANEL_UNITS - 1, PANEL_UNITS, PANEL_UNITS + 1,
                                   2_500, 3_073])
    def test_panelled_group_sums_match_one_product(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3)) * [1.0, 1e3, 1e-3] + [0.0, 5.0, -2.0]
        d = (rng.random(n) < 0.4).astype(np.int8)
        z = (rng.random((37, n)) < 0.3).astype(np.int8)
        # the wide layout, and the narrow one of global-only statistics
        evaluator = _Evaluator(x, d)
        for statistics in (("scmd",), ("sqrt_mahalanobis",)):
            sums = evaluator.group_sums(z, statistics, Workspace())
            operand = evaluator._operand[:sums.shape[1]]
            one_product = (operand @ z.astype(np.float64).T).T
            if n <= PANEL_UNITS:
                assert np.array_equal(sums, one_product)
            else:
                # within 1e-12 of the sum of magnitudes that each entry adds up
                scale = (np.abs(operand) @ z.astype(np.float64).T).T
                assert np.all(np.abs(sums - one_product) <= 1e-12 * scale)
                # the treated counts (and the wide layout's exposure sums, its
                # last row) add 0/1 values: exact
                exact = [evaluator.k, -1]
                assert np.array_equal(sums[:, exact], one_product[:, exact])
            assert np.array_equal(sums[:, evaluator.k], z.sum(axis=1))
            # a float64 row (the observed assignment) takes the same path
            assert np.array_equal(evaluator.group_sums(z[:1].astype(np.float64), statistics),
                                  evaluator.group_sums(z[:1], statistics))

    @pytest.mark.parametrize("rank_deficient", [False, True])
    @pytest.mark.parametrize("n", [300, 3_073])
    def test_global_only_product_is_narrow(self, n, rank_deficient):
        # n = 300 is one panel of the product, n = 3,073 four
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 4)) * [1.0, 1e2, 1e-2, 1.0] + [0.0, 5.0, -2.0, 1.0]
        if rank_deficient:
            x[:, 3] = x[:, 0] - 2e2 * x[:, 2]
        d = (rng.random(n) < 0.4).astype(np.int8)
        z = (rng.random((40, n)) < 0.3).astype(np.int8)
        z[0] = 0
        z[0, 7] = 1     # one treated unit: undefined
        z[1] = 1
        z[1, 3] = 0     # one control unit: undefined
        evaluator = _Evaluator(x, d)
        assert evaluator.group_sums(z, GLOBAL_STATISTICS).shape == (40, 5)
        assert evaluator.group_sums(z, STATISTICS).shape == (40, 10)
        assert evaluator.group_sums(z, ("sqrt_mahalanobis",)).shape == (40, 5)
        assert evaluator.whiten.shape[1] == (3 if rank_deficient else 4)
        workspace = Workspace()
        a = evaluator(z, GLOBAL_STATISTICS, workspace=workspace)
        b = evaluator(z, STATISTICS, workspace=workspace)
        for name in GLOBAL_STATISTICS:
            assert np.array_equal(np.isnan(a[name]), np.isnan(b[name]))
            assert np.isnan(a[name][:2]).all() and np.isfinite(a[name][2:]).all()
            np.testing.assert_allclose(a[name], b[name], rtol=1e-12)

    def test_each_call_chooses_its_statistics(self):
        # one evaluator and one chunk: a global-only call between two calls
        # of the default statistics leaves no trace in the second, and its
        # narrow product agrees with their wide one
        rng = np.random.default_rng(27)
        n = 3_073
        x = rng.standard_normal((n, 4)) * [1.0, 1e2, 1e-2, 1.0] + [0.0, 5.0, -2.0, 1.0]
        d = (rng.random(n) < 0.4).astype(np.int8)
        z = (rng.random((40, n)) < 0.3).astype(np.int8)
        z[0] = 0
        z[0, 7] = 1     # one treated unit: undefined
        evaluator = _Evaluator(x, d)
        workspace = Workspace()
        first = evaluator(z, DEFAULT_STATISTICS, workspace=workspace)
        global_only = evaluator(z, GLOBAL_STATISTICS, workspace=workspace)
        third = evaluator(z, DEFAULT_STATISTICS, workspace=workspace)
        assert first.keys() == third.keys() == set(DEFAULT_STATISTICS)
        for name, values in first.items():
            assert np.array_equal(values, third[name], equal_nan=True)
        assert global_only.keys() == set(GLOBAL_STATISTICS)
        wide = first["sqrt_mahalanobis"]
        assert np.isnan(wide[0]) and np.isfinite(wide[1:]).all()
        for name, values in (("sqrt_mahalanobis", wide), ("mahalanobis", wide**2)):
            assert np.array_equal(np.isnan(global_only[name]), np.isnan(values))
            np.testing.assert_allclose(global_only[name], values, rtol=1e-12)

    def test_evaluator_makes_no_float64_copy_of_the_chunk(self):
        rows, n = 32, 100_000
        rng = np.random.default_rng(2)
        evaluator = _Evaluator(rng.standard_normal((n, 2)), None)
        statistics = ("scmd", "sqrt_mahalanobis")
        z = (rng.random((rows, n)) < 0.5).astype(np.int8)
        workspace = Workspace()
        first = evaluator(z, statistics, workspace=workspace)
        tracemalloc.start()
        try:
            again = evaluator(z, statistics, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int8 chunk is rows * n bytes; its float64 copy would be 8 times that
        assert peak < rows * n // 4, f"peak {peak / 2**20:.1f} MiB"
        for name, values in first.items():
            assert np.array_equal(values, again[name], equal_nan=True)

    @pytest.mark.parametrize("kind", ["complete", "block", "bernoulli"])
    def test_reused_workspace_allocates_no_chunk_buffers(self, kind):
        n, rows = 60_000, 32
        rng = np.random.default_rng(4)
        spec = {
            "complete": MechanismSpec.complete(n // 3),
            "block": MechanismSpec.block(tuple(f"s{i % 20}" for i in range(n))).resolved(
                (rng.random(n) < 0.5).astype(np.int8)),
            "bernoulli": MechanismSpec.bernoulli(rng.uniform(0.2, 0.8, n)),
        }[kind]
        stream = DrawStream(seed=6)
        sampler = prepare_sampler(spec, n)
        workspace = Workspace()
        chunks = [np.arange(lo, lo + rows, dtype=np.uint64) for lo in (0, rows)]
        first = draw_batch(spec, n, stream, chunks[0], None, sampler, workspace).copy()
        tracemalloc.start()
        try:
            second = draw_batch(spec, n, stream, chunks[1], None, sampler, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * n // 2, f"peak {peak / 2**20:.1f} MiB"
        fresh = draw_batch(spec, n, stream, np.concatenate(chunks))
        assert np.array_equal(np.vstack([first, second]), fresh)

    def test_returned_draws_are_not_workspace_buffers(self):
        # every public result is its own array: later draws and draw sets in
        # the same thread, which reuse a workspace chunk after chunk, leave
        # it alone
        n = 2_500
        ds = _dataset(n=n, k=2, seed=8, confounded=True)
        rng = np.random.default_rng(8)
        labels = tuple(f"s{i % 5}" for i in range(n))
        counts = {f"s{j}": 100 for j in range(5)}
        p = rng.uniform(0.2, 0.8, n)
        stream = DrawStream(seed=9)
        cfg = TestConfig(n_draws=100, seed=9)

        def public(index):
            return [
                draw_batch(MechanismSpec.complete(700), n, stream,
                           np.arange(index, index + 40, dtype=np.uint64)),
                draw_complete(n, 700, stream, index=index).values,
                draw_block(labels, counts, stream, index=index).values,
                draw_bernoulli(p, stream, index=index).values,
                run_test(ds, "instrument", TestConfig(n_draws=100, seed=index),
                         statistic="scmd").draws,
            ]

        kept = [(a, a.copy()) for a in public(3)]
        public(4)
        for mechanism in (None, MechanismSpec.block(labels), MechanismSpec.bernoulli(p)):
            run_many(ds, "instrument", STATISTICS, cfg, mechanism)
        for a, before in kept:
            assert np.array_equal(a, before)

    @pytest.mark.parametrize("kind", ["complete", "block"])
    def test_peak_memory_follows_the_chunk_budget(self, kind):
        # at N = 100,000 a chunk is the 32-row floor of 8 * N bytes per row;
        # peak traced memory stays a few chunks above the inputs, whatever
        # CHUNK_MAX_ROWS allows (a 128-row chunk alone would take 102 MB)
        n = 100_000
        rng = np.random.default_rng(5)
        z = (rng.random(n) < 0.5).astype(np.int8)
        ds = Dataset(covariates=rng.standard_normal((n, 2)), covariate_names=("a", "b"),
                     instrument=z, exposure=z[::-1].copy())
        mechanism = None
        if kind == "block":
            mechanism = MechanismSpec.block(tuple(f"s{i % 20}" for i in range(n)))
        cfg = TestConfig(n_draws=128, seed=1)
        chunk_bytes = 32 * 8 * n
        tracemalloc.start()
        try:
            run_many(ds, "instrument", ("scmd", "sqrt_mahalanobis"), cfg, mechanism)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * chunk_bytes, f"peak {peak / 2**20:.0f} MiB"


class TestBatchAgainstScalarOps:
    """The vectorized engine must agree with plain two-group formulas and,
    for Mahalanobis, with the SVD pseudo-inverse of the pooled covariance."""

    def test_all_statistics_agree_per_draw(self):
        ds = _dataset(n=40, k=4, seed=9)
        evaluator = _Evaluator(ds.covariates, ds.exposure)
        stream = DrawStream(seed=17, domain=0)
        draws = draw_batch(MechanismSpec.complete(20), 40, stream,
                           np.arange(50, dtype=np.uint64))
        batch = evaluator(draws.astype(np.float64), STATISTICS)
        d = ds.exposure.astype(np.float64)
        for m in range(50):
            t = draws[m] == 1
            x1, x0 = ds.covariates[t], ds.covariates[~t]
            diff = x1.mean(axis=0) - x0.mean(axis=0)
            scmd_expected = diff / np.sqrt((x1.var(axis=0, ddof=1)
                                            + x0.var(axis=0, ddof=1)) / 2.0)
            strength = d[t].mean() - d[~t].mean()
            for j in range(4):
                assert batch["prevalence_diff"][m, j] == pytest.approx(
                    diff[j], rel=1e-9, abs=1e-12
                )
                assert batch["scmd"][m, j] == pytest.approx(
                    scmd_expected[j], rel=1e-9, abs=1e-12
                )
                if strength == 0.0:
                    assert np.isnan(batch["iv_bias"][m, j])
                else:
                    assert batch["iv_bias"][m, j] == pytest.approx(
                        diff[j] / strength, rel=1e-9, abs=1e-12
                    )
            gb = mahalanobis_from_components(
                diff, mean_difference_covariance(ds.covariates, draws[m]))
            assert batch["mahalanobis"][m] == pytest.approx(
                gb.mahalanobis, rel=1e-9
            )
            assert batch["sqrt_mahalanobis"][m] == pytest.approx(
                gb.sqrt_mahalanobis, rel=1e-9
            )


def _near_separated_dataset():
    """One covariate 1000 z + 1e-4 noise: its within-group scatter is 1e-16
    of its total, under the PINV_RCOND cutoff, though not exactly zero."""
    rng = np.random.default_rng(0)
    z = (rng.random(200) < 0.5).astype(np.int8)
    x = 1000.0 * z + 1e-4 * rng.standard_normal(200)
    d = (rng.random(200) < 0.3 + 0.4 * z).astype(np.int8)
    return Dataset(covariates=x[:, None], covariate_names=("near",), instrument=z,
                   exposure=d)


class TestScalarApiIsTheEngine:
    """The public scalar statistics are one-row calls of the engine's evaluator."""

    def test_near_separated_covariate_is_undefined(self):
        # a zero-variance test alone gives SCMD 1e7 and Mahalanobis 5e15 here
        ds = _near_separated_dataset()
        evaluator = _Evaluator(ds.covariates, None)
        engine = evaluator(ds.instrument[None, :].astype(np.float64), ("scmd", "mahalanobis"))
        assert np.isnan(engine["scmd"][0, 0]) and np.isnan(engine["mahalanobis"][0])
        assert np.isnan(scmd(ds.covariates[:, 0], ds.instrument))
        gb = mahalanobis(ds.covariates, ds.instrument)
        assert np.isnan(gb.mahalanobis) and np.isnan(gb.sqrt_mahalanobis)
        assert gb.covariance_rank == 0 and gb.pseudo_inverse_used

    @pytest.mark.parametrize("target", ["instrument", "exposure"])
    @pytest.mark.parametrize("case", range(12))
    def test_observed_values_match(self, case, target):
        ds = {10: _separated_dataset, 11: _near_separated_dataset}.get(
            case, lambda: _dataset(n=60, k=4, seed=case, confounded=True))()
        z = ds.target_vector(target)
        evaluator = _Evaluator(ds.covariates, ds.exposure)
        engine = {name: values[0] for name, values in
                  evaluator(z.astype(np.float64)[None, :], STATISTICS).items()}
        columns = ds.covariates.T
        scalar = {
            "prevalence_diff": [prevalence_difference(col, z) for col in columns],
            "scmd": [scmd(col, z) for col in columns],
            "iv_bias": [iv_bias(col, z, ds.exposure) for col in columns],
        }
        for name, values in scalar.items():
            np.testing.assert_allclose(values, engine[name], rtol=1e-12, atol=0)
        gb = mahalanobis(ds.covariates, z)
        np.testing.assert_array_equal(gb.mahalanobis, engine["mahalanobis"])
        np.testing.assert_array_equal(gb.sqrt_mahalanobis, engine["sqrt_mahalanobis"])
        if np.isfinite(gb.mahalanobis):
            result = run_many(ds, target, ("mahalanobis",), TestConfig(n_draws=20, seed=1))
            assert gb.mahalanobis == result["mahalanobis"].observed


class TestExactTest:
    def test_hand_enumeration_oracle(self):
        """x = (10,10,0,0), z = (1,1,0,0): only z and its complement reach
        the maximal |difference|, so p = 2/6."""
        x = np.array([10.0, 10.0, 0.0, 0.0])[:, None]
        z = np.array([1, 1, 0, 0], dtype=np.int8)
        d = np.array([1, 0, 1, 0], dtype=np.int8)
        ds = Dataset(covariates=x, covariate_names=("c",), instrument=z, exposure=d)
        res = exact_test(ds, "instrument", statistic="prevalence_diff")
        assert res.exact
        assert res.n_draws == 6
        assert res.p_value[0] == pytest.approx(2 / 6)

    def test_constant_covariate_p_one(self):
        x = np.full((6, 1), 2.0)
        z = np.array([1, 1, 1, 0, 0, 0], dtype=np.int8)
        ds = Dataset(covariates=x, covariate_names=("c",), instrument=z,
                     exposure=np.roll(z, 1))
        res = exact_test(ds, "instrument", statistic="scmd")
        assert res.p_value[0] == 1.0

    def test_combination_rank_is_the_row_index(self):
        for n in range(1, 11):
            for t in range(n + 1):
                matrix = enumerate_matrix(n, t)
                assert ([randtest._combination_rank(row) for row in matrix]
                        == list(range(len(matrix))))

    def test_monte_carlo_converges_to_exact(self, monkeypatch):
        ds = _dataset(n=10, k=1, seed=10)
        monkeypatch.setattr(randtest, "CHUNK_MAX_ROWS", 20_000)
        cfg = TestConfig(n_draws=100_000, seed=3)
        mc = run_test(ds, "instrument", cfg, statistic="scmd")
        ex = exact_test(ds, "instrument", statistic="scmd", config=cfg)
        assert abs(float(mc.p_value[0]) - float(ex.p_value[0])) <= 0.01

    def test_exact_p_floor_is_one_over_c(self):
        x = np.array([100.0, 90.0, 1.0, 2.0, 3.0, 4.0])[:, None]
        z = np.array([1, 1, 0, 0, 0, 0], dtype=np.int8)
        ds = Dataset(covariates=x, covariate_names=("c",), instrument=z,
                     exposure=np.roll(z, 3))
        res = exact_test(ds, "instrument", statistic="prevalence_diff")
        assert res.p_value[0] >= 1 / 15

    def test_n_treated_override_uses_observed_vector(self):
        # no enumerated row equals z when N_T differs from its count
        x = np.array([10.0, 10.0, 0.0, 0.0, 0.0])[:, None]
        z = np.array([1, 1, 0, 0, 0], dtype=np.int8)
        ds = Dataset(covariates=x, covariate_names=("c",), instrument=z,
                     exposure=np.array([1, 0, 1, 0, 0], dtype=np.int8))
        res = exact_test(ds, "instrument", n_treated=3, statistic="prevalence_diff")
        assert res.n_draws == 10
        assert res.mechanism == {"kind": "complete", "n_treated": 3}
        assert res.observed[0] == pytest.approx(10.0)
        # of the ten 3-subsets only (0, 0, 0) reaches |difference| = 10; z
        # itself is not among them, so p keeps its +1: (1 + 1) / (1 + 10)
        assert res.p_value[0] == pytest.approx(2 / 11)

    def test_p_is_positive_at_a_non_observed_count(self):
        """The observed |SCMD| (2.371) exceeds every 6-treated draw (at most
        2.348): p is 1 / (1 + C(16, 6)), not 0."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 1))
        z = np.zeros(16, dtype=np.int8)
        z[np.argsort(x[:, 0])[-8:]] = 1
        d = np.zeros(16, dtype=np.int8)
        d[:5] = 1
        ds = Dataset(covariates=x, covariate_names=("x",), instrument=z, exposure=d)
        cfg = TestConfig(n_draws=1)
        res = exact_test(ds, "instrument", n_treated=6, statistic="scmd", config=cfg)
        assert np.abs(res.draws).max() < abs(res.observed[0])
        assert res.p_value[0] == 1 / (1 + math.comb(16, 6))
        many = run_many(ds, "instrument", ("scmd",), cfg, MechanismSpec.complete(6),
                        exact=True)["scmd"]
        assert np.array_equal(many.p_value, res.p_value)
        # at the observed count the observed row is enumerated: no +1
        own = exact_test(ds, "instrument", statistic="scmd", config=cfg)
        tail = np.count_nonzero(
            np.abs(own.draws[:, 0]) >= abs(own.observed[0]) * (1 - randtest.TIE_RTOL))
        assert own.p_value[0] == tail / math.comb(16, 8)

    def test_shared_enumeration_matches_single_statistic_runs(self, monkeypatch):
        ds = _dataset(n=12, k=3, seed=17)
        single = {s: exact_test(ds, "instrument", statistic=s) for s in STATISTICS}
        monkeypatch.setattr(randtest, "CHUNK_MAX_ROWS", 100)
        cfg = TestConfig(n_draws=1, threads=2)
        shared = run_many(ds, "instrument", STATISTICS, cfg, exact=True)
        for s in STATISTICS:
            assert shared[s].exact and shared[s].n_draws == 924
            assert np.array_equal(shared[s].draws, single[s].draws, equal_nan=True)
            assert np.array_equal(shared[s].p_value, single[s].p_value)
            assert np.array_equal(shared[s].observed, single[s].observed)

    def test_exact_report_enumerates_once_per_target(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_matrix(*args, **kwargs)

        monkeypatch.setattr(randtest, "enumerate_matrix", counted)
        ds = _dataset(n=12, k=3, seed=17)
        build_report(ds, TestConfig(n_draws=1), exact=True)
        assert calls == [(12, 6), (12, ds.n_treated_exposure)]

    def test_cap(self):
        ds = _dataset(n=40, k=1, seed=11)
        from ivrand import CapExceededError

        with pytest.raises(CapExceededError):
            exact_test(ds, "instrument", statistic="scmd",
                       config=TestConfig(n_draws=1, enumeration_cap=1_000_000))


class TestSummarize:
    """``_summarize`` against a reference built from the NaN-aware functions."""

    _VALUES = st.one_of(st.floats(-8, 8), st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]))

    @staticmethod
    def _summary(draws, observed, offset=1):
        ds = _dataset(k=draws.shape[1] if draws.ndim == 2 else 1)
        statistic = "scmd" if draws.ndim == 2 else "sqrt_mahalanobis"
        return randtest._summarize("instrument", statistic, ds, observed, draws,
                                   TestConfig(), MechanismSpec(kind="complete"),
                                   offset=offset)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_nan_aware_reference(self, data):
        m = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, 4))
        vector = data.draw(st.booleans())
        shape = (m, k) if vector else (m,)
        cols = k if vector else 1
        draws = np.array(data.draw(st.lists(self._VALUES, min_size=m * cols,
                                            max_size=m * cols))).reshape(shape)
        if data.draw(st.booleans()):
            nan = np.array(data.draw(st.lists(st.booleans(), min_size=m * cols,
                                              max_size=m * cols))).reshape(shape)
            nan[0] &= ~nan.all(axis=0)    # every column keeps a defined draw
            draws[nan] = np.nan
        if vector and data.draw(st.booleans()):
            draws = np.asfortranarray(draws)
        observed = np.array(data.draw(st.lists(self._VALUES, min_size=cols,
                                               max_size=cols)))
        if not vector:
            observed = observed[0]

        defined = ~np.isnan(draws)
        tail = (defined & (np.abs(np.nan_to_num(draws)) >= np.abs(observed)
                           * (1 - randtest.TIE_RTOL))).sum(axis=0)
        q025, q975 = np.nanquantile(draws, (0.025, 0.975), axis=0)
        for offset in (0, 1):
            res = self._summary(draws, observed, offset)
            assert np.array_equal(res.p_value,
                                  (offset + tail) / (offset + defined.sum(axis=0)))
            assert np.array_equal(res.q025, q025)
            assert np.array_equal(res.q975, q975)
            assert np.array_equal(res.n_undefined, m - defined.sum(axis=0))
            if vector:
                # summation order may differ with the layout: last bits only
                np.testing.assert_allclose(res.draw_mean, np.nanmean(draws, axis=0),
                                           rtol=1e-12, atol=1e-12)
            else:
                assert res.draw_mean == np.nanmean(draws)
                assert isinstance(res.p_value, float)
                assert isinstance(res.n_undefined, int)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_all_nan_column_errors(self, order):
        draws = np.array([[1.0, np.nan], [2.0, np.nan], [np.nan, np.nan]], order=order)
        with pytest.raises(StatisticError, match=r"all draws are undefined.*c1"):
            self._summary(draws, np.array([0.5, 0.5]))
        with pytest.raises(StatisticError, match="all draws are undefined"):
            self._summary(draws[:, 1], 0.5)

    @pytest.mark.parametrize("exact", [False, True])
    def test_covariate_draws_are_contiguous(self, exact):
        ds = _dataset(n=12, k=3, seed=17)
        res = run_many(ds, "instrument", ("scmd", "sqrt_mahalanobis"),
                       TestConfig(n_draws=100, seed=1), exact=exact)
        draws = res["scmd"].draws
        assert draws.shape == (924 if exact else 100, 3)
        assert all(draws[:, j].flags.c_contiguous for j in range(3))
        assert res["sqrt_mahalanobis"].draws.flags.c_contiguous

    def test_signed_tail_count_equals_abs_count(self):
        # |t| >= c is counted as t >= c or t <= -c; pinned to the abs form
        # on NaN, +-inf, signed zeros and ties, with NaN draws among the draws
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5,
                           1.5 * (1 - randtest.TIE_RTOL), 2.0, -3.0, 1e-300])
        draws = np.asfortranarray(np.random.default_rng(0).choice(values, size=(400, 6)))
        undefined = np.count_nonzero(np.isnan(draws), axis=0)
        cases = [np.full(6, v) for v in (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5, 2.0)]
        cases.append(np.array([np.nan, np.inf, -np.inf, -0.0, 1.5, -1.5]))
        for observed in cases:
            for offset in (0, 1):
                with np.errstate(invalid="ignore"):
                    threshold = randtest._tie_threshold(np.abs(observed))[:, None]
                    tail = np.count_nonzero(np.abs(draws.T) >= threshold, axis=-1)
                expected = np.where(np.isfinite(observed),
                                    (offset + tail) / (400 - undefined + offset), np.nan)
                got = randtest._tail_pvalue(observed, draws, undefined, offset)
                assert np.array_equal(got, expected, equal_nan=True)
                for j in range(6):
                    one = randtest._tail_pvalue(observed[j], draws[:, j], undefined[j], offset)
                    assert np.array_equal(one, expected[j], equal_nan=True)


def _few_distinct_draws_dataset():
    """N = 25, K = 1 binary covariate, 4 treated and 3 exposed: the
    instrument's Mahalanobis draws take few distinct values, with outliers."""
    rng = np.random.default_rng(58)
    n, k = rng.integers(10, 40), rng.integers(1, 4)
    x = rng.standard_normal((n, k))
    rng.random()
    x[:, 0] = rng.random(n) < 0.2
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[:rng.integers(2, 5)]] = 1
    d = np.zeros(n, dtype=np.int8)
    d[rng.permutation(n)[:rng.integers(2, 6)]] = 1
    return Dataset(covariates=x, covariate_names=("x0",), instrument=z, exposure=d)


class TestHistogram:
    def test_named_rule_is_capped(self):
        ds = _few_distinct_draws_dataset()
        assert (ds.n_units, ds.n_covariates) == (25, 1)
        assert (ds.n_treated_instrument, ds.n_treated_exposure) == (4, 3)
        doc = build_report(ds, TestConfig(n_draws=2_000, seed=58),
                           statistics=("sqrt_mahalanobis", "mahalanobis")).document
        results = [*doc["global"]["instrument"].values(), *doc["global"]["exposure"].values(),
                   *(doc["comparison"][name] for name in
                     ("complete_randomization", "bernoulli_instrument", "bernoulli_exposure"))]
        for result in results:
            n = result["n_draws"] - result["n_undefined"]
            counts = result["histogram"]["counts"]
            assert len(counts) <= math.ceil(2 * math.sqrt(n))
            assert sum(counts) == n
        # Freedman-Diaconis alone gives 3,290 bins here
        assert len(doc["global"]["instrument"]["mahalanobis"]["histogram"]["counts"]) == 90

    def test_integer_bins_are_kept(self):
        hist = randtest._histogram_dict(np.arange(100.0), 500)
        assert len(hist["counts"]) == 500 and sum(hist["counts"]) == 100

    @pytest.mark.parametrize("bins", [*_HIST_BIN_RULES, 17])
    def test_uncapped_rule_is_numpys(self, bins):
        values = np.random.default_rng(4).standard_normal(1_000)
        counts, edges = np.histogram(values, bins=bins)
        assert counts.size <= math.ceil(2 * math.sqrt(values.size))
        got_edges, (got_counts,) = randtest.bin_counts(values, bins, (values,))
        assert np.array_equal(got_edges, edges) and np.array_equal(got_counts, counts)

    def test_pooled_groups_share_the_rules_edges(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(3_000), rng.standard_normal(2_000) + 1.5
        pooled = np.concatenate([a, b])
        edges = np.histogram_bin_edges(pooled, bins="auto")
        got_edges, (got_a, got_b) = randtest.bin_counts(pooled, "auto", (a, b))
        assert np.array_equal(got_edges, edges)
        assert np.array_equal(got_a, np.histogram(a, bins=edges)[0])
        assert np.array_equal(got_b, np.histogram(b, bins=edges)[0])

    def test_auto_is_capped_on_few_distinct_pooled_draws(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 3, 600).astype(np.float64)
        b = np.append(rng.integers(0, 3, 399).astype(np.float64), 1e3)
        pooled = np.concatenate([a, b])
        cap = math.ceil(2 * math.sqrt(pooled.size))
        assert np.histogram_bin_edges(pooled, bins="fd").size - 1 > 10 * cap
        # numpy's "auto" takes the smaller of the Freedman-Diaconis and Sturges
        # widths; numpy 2.4 also limits it to about 2 sqrt(n) bins, older
        # releases do not, and give the Freedman-Diaconis 2,500 bins here
        numpy_bins = np.histogram_bin_edges(pooled, bins="auto").size - 1
        edges, (got_a, got_b) = randtest.bin_counts(pooled, "auto", (a, b))
        assert edges.size - 1 <= cap
        assert np.array_equal(edges, np.histogram_bin_edges(
            pooled, bins="auto" if numpy_bins <= cap else cap))
        assert np.array_equal(got_a, np.histogram(a, bins=edges)[0])
        assert np.array_equal(got_b, np.histogram(b, bins=edges)[0])

    @staticmethod
    def _propensity_bins(ds):
        """The report of ``ds`` and its propensity histograms' largest bin count."""
        report = build_report(ds, TestConfig(n_draws=200, seed=1))
        bins = []
        for target in ("instrument", "exposure"):
            hist = report.document["propensity"][target]["histogram"]
            assert sum(hist["counts_group0"]) + sum(hist["counts_group1"]) == ds.n_units
            bins.append(len(hist["counts_group1"]))
        return report, max(bins)

    def test_propensity_histogram_is_capped_beside_a_lognormal_covariate(self):
        # a randomized instrument's propensities are concentrated, and the
        # Freedman-Diaconis width shrinks with their IQR: 2,890 bins uncapped
        rng = np.random.default_rng(7)
        cost = rng.lognormal(0, 2, 5000)
        age = rng.normal(60, 15, 5000)
        z = rng.random(5000) < 0.5
        d = rng.random(5000) < 1.0 / (1.0 + np.exp(-(0.02 * (age - 60) + 0.3 * np.log(cost))))
        ds = Dataset(covariates=np.column_stack([cost, age]), covariate_names=("cost", "age"),
                     instrument=z.astype(np.int8), exposure=d.astype(np.int8))
        assert self._propensity_bins(ds)[1] <= 142

    def test_propensity_histogram_is_capped_for_a_narrow_middle(self):
        # 70,427 bins and a 4.9 MB report uncapped
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2000, 1)) * np.where(rng.random((2000, 1)) < 0.9, 1e-3, 3.0)
        z = rng.random(2000) < 0.5
        d = rng.random(2000) < 1.0 / (1.0 + np.exp(-x[:, 0]))
        ds = Dataset(covariates=x, covariate_names=("x",), instrument=z.astype(np.int8),
                     exposure=d.astype(np.int8))
        report, bins = self._propensity_bins(ds)
        assert bins <= 90 and len(report.to_json()) < 100_000


class TestPerCovariateQuantiles:
    def test_band_endpoints_match_draw_quantiles(self):
        ds = _dataset(seed=12)
        cfg = TestConfig(n_draws=600, seed=19)
        res = run_test(ds, "instrument", cfg, statistic="scmd")
        rows = per_covariate_quantiles(res)
        for j, row in enumerate(rows):
            assert row["q025"] == np.nanquantile(res.draws[:, j], 0.025)
            assert row["q975"] == np.nanquantile(res.draws[:, j], 0.975)

    def test_bands_roughly_symmetric_under_null(self):
        ds = _dataset(n=80, seed=13)
        cfg = TestConfig(n_draws=3000, seed=23)
        rows = per_covariate_quantiles(run_test(ds, "instrument", cfg, statistic="scmd"))
        for row in rows:
            width = row["q975"] - row["q025"]
            assert abs(row["q975"] + row["q025"]) < 0.25 * width

    def test_observed_inside_band_consistent_with_quantile_check(self):
        ds = _dataset(seed=14)
        cfg = TestConfig(n_draws=800, seed=29)
        res = run_test(ds, "instrument", cfg, statistic="scmd")
        rows = per_covariate_quantiles(res)
        for j, row in enumerate(rows):
            inside = row["q025"] <= row["observed"] <= row["q975"]
            draws = res.draws[:, j]
            lo, hi = np.nanquantile(draws, (0.025, 0.975))
            assert inside == (lo <= res.observed[j] <= hi)

    def test_both_observed_vectors_reported(self):
        ds = _dataset(seed=15)
        cfg = TestConfig(n_draws=200, seed=31)
        res = run_test(ds, "exposure", cfg, statistic="iv_bias")
        rows = per_covariate_quantiles(res)
        for j, row in enumerate(rows):
            assert row["target"] == "exposure"
            # exposure bias equals exposure balance (its own denominator is 1)
            assert row["observed"] == pytest.approx(
                prevalence_difference(ds.covariates[:, j], ds.exposure),
                rel=1e-9,
            )
            assert row["p_value"] == res.p_value[j]

    def test_reuse_precomputed_result(self):
        # rows from one statistic of a shared draw set equal a single run's
        ds = _dataset(seed=16)
        cfg = TestConfig(n_draws=300, seed=37)
        shared = run_many(ds, "instrument", ("scmd", "iv_bias"), cfg)["scmd"]
        alone = run_test(ds, "instrument", cfg, statistic="scmd")
        assert per_covariate_quantiles(shared) == per_covariate_quantiles(alone)

    def test_exact_rows_hold_the_target_only(self):
        # exact rows have the Monte Carlo layout: one vector per row
        ds = _dataset(n=12, k=3, seed=17)
        for target in ("instrument", "exposure"):
            res = exact_test(ds, target, statistic="scmd")
            rows = per_covariate_quantiles(res)
            assert [list(row) for row in rows] == [[
                "covariate", "target", "observed", "q025", "q975", "p_value",
                "n_undefined",
            ]] * 3
            assert all(row["target"] == target for row in rows)

    def test_global_statistic_rejected(self):
        ds = _dataset(seed=18)
        res = run_test(ds, "instrument", TestConfig(n_draws=50),
                       statistic="sqrt_mahalanobis")
        with pytest.raises(ValueError, match="covariate-specific"):
            per_covariate_quantiles(res)


def _independent_dataset(seed, n=1_000, k=10, z_share=0.5, d_share=0.1):
    """Instrument and exposure each completely randomized, independent of X."""
    rng = np.random.default_rng(seed)
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[:int(z_share * n)]] = 1
    d = np.zeros(n, dtype=np.int8)
    d[rng.permutation(n)[:int(d_share * n)]] = 1
    return Dataset(covariates=rng.standard_normal((n, k)),
                   covariate_names=tuple(f"c{i}" for i in range(k)),
                   instrument=z, exposure=d)


class TestReportDrawSets:
    @pytest.mark.parametrize("kwargs, n_sets", [
        ({}, 4),                            # instrument, exposure, Bernoulli pair
        # two block tests, the complete benchmark, Bernoulli pair
        ({"mechanism": MechanismSpec.block(("a", "b") * 8)}, 5),
        ({"exact": True}, 2),
        # the instrument's test also draws the benchmark's sqrt_mahalanobis
        ({"statistics": ("scmd",)}, 4),
        # the two tests are the Bernoulli pair, plus the benchmark
        ({"mechanism": "bernoulli"}, 3),
        # no tests: the benchmark and the Bernoulli pair only
        ({"statistics": ()}, 3),
    ])
    def test_one_evaluator_per_draw_set(self, monkeypatch, kwargs, n_sets):
        # one evaluator serves every draw set of a report's one run_sets call
        built = []
        original_init = randtest._Evaluator.__init__

        def counted(self, *args, **kw):
            built.append(args)
            original_init(self, *args, **kw)

        monkeypatch.setattr(randtest._Evaluator, "__init__", counted)
        ds = _dataset(n=16, k=3, seed=17, confounded=True)
        build_report(ds, TestConfig(n_draws=100, seed=1), **kwargs)
        # exact sets are enumerated one call each
        assert len(built) == (n_sets if kwargs.get("exact") else 1)

    def test_bernoulli_tests_are_the_comparison_sets(self):
        ds = _dataset(n=200, k=2, seed=12, confounded=True)
        doc = build_report(ds, TestConfig(n_draws=100, seed=1), mechanism="bernoulli").document
        for target in ("instrument", "exposure"):
            test = doc["global"][target]["sqrt_mahalanobis"]
            reference = doc["comparison"][f"bernoulli_{target}"]
            for key in ("q025", "q975", "n_draws", "histogram"):
                assert test[key] == reference[key]

    def test_bernoulli_exposure_draws_from_its_own_model(self):
        ds = _dataset(n=200, k=2, seed=12, confounded=True)
        report = build_report(ds, TestConfig(n_draws=100, seed=1), mechanism="bernoulli")
        ranges = []
        for target, model in zip(("instrument", "exposure"), fit_propensities(ds)):
            p = predict(model, ds.covariates)
            ranges.append([float(p.min()), float(p.max())])
            for result in report.document["global"][target].values():
                assert result["mechanism"] == {"kind": "bernoulli",
                                               "propensity_range": ranges[-1]}
        assert ranges[0] != ranges[1]

    def test_exposure_rows_are_calibrated(self):
        # both vectors truly randomized at different treated shares: each
        # exposure row is tested against draws at the exposure's own count,
        # so the rejection rate stays near alpha (iv_bias is left out: the
        # exposure can be exactly as common in both instrument arms)
        alpha = 0.05
        p_values = []
        for seed in range(20):
            report = build_report(_independent_dataset(seed),
                                  TestConfig(n_draws=400, seed=seed, alpha=alpha),
                                  statistics=("scmd", "sqrt_mahalanobis"))
            rows = report.document["per_covariate"]["scmd"]
            p_values += [row["p_value"] for row in rows if row["target"] == "exposure"]
        assert len(p_values) == 200
        assert np.mean(np.array(p_values) <= alpha) <= 0.10

    def test_rows_match_each_targets_own_run(self):
        ds = _dataset(n=30, k=3, seed=21, confounded=True)
        cfg = TestConfig(n_draws=150, seed=8)
        report = build_report(ds, cfg)
        rows = report.document["per_covariate"]["iv_bias"]
        expected = [row for target in ("instrument", "exposure") for row in
                    per_covariate_quantiles(run_test(ds, target, cfg, statistic="iv_bias"))]
        assert rows == expected == report.plot_tables["per_covariate_iv_bias"]
        scmd_rows = report.document["scmd_table"]["rows"]
        assert [r["scmd_instrument"] for r in scmd_rows] == [
            r["observed"] for r in report.document["per_covariate"]["scmd"][:3]]
        assert [r["scmd_exposure"] for r in scmd_rows] == [
            r["observed"] for r in report.document["per_covariate"]["scmd"][3:]]

    def test_exact_report_holds_exposure_rows(self):
        ds = _dataset(n=12, k=3, seed=17)
        report = build_report(ds, TestConfig(n_draws=1), exact=True)
        floor = 1 / math.comb(12, ds.n_treated_exposure)
        rows = [row for row in report.document["per_covariate"]["scmd"]
                if row["target"] == "exposure"]
        assert len(rows) == 3 and all(row["p_value"] >= floor for row in rows)
        assert len(report.plot_tables["scmd_dotplot"]) == 3

    def test_undefined_exposure_statistic_stops_the_report(self):
        # the exposure is tested in its own right even when only covariate
        # statistics are requested: a covariate constant within each exposure
        # group has an undefined exposure SCMD and stops the report, as an
        # undefined instrument SCMD does
        base = _dataset(n=30, k=1, seed=5)
        ds = Dataset(covariates=np.column_stack([base.covariates[:, 0], base.exposure]),
                     covariate_names=("x", "same_as_d"),
                     instrument=base.instrument, exposure=base.exposure)
        assert np.isfinite(run_test(ds, "instrument", TestConfig(n_draws=20)).observed).all()
        with pytest.raises(StatisticError, match="observed scmd is undefined.*same_as_d"):
            build_report(ds, TestConfig(n_draws=50, seed=1), statistics=("scmd",))

    def test_exact_covariate_statistics_enumerate_the_exposure(self):
        # C(12, 2) = 66 instrument assignments fit under the cap but the
        # exposure's C(12, 6) = 924 do not, and the exposure is enumerated for
        # its own rows even without a global statistic
        rng = np.random.default_rng(3)
        z = np.zeros(12, dtype=np.int8)
        z[:2] = 1
        d = np.zeros(12, dtype=np.int8)
        d[1:7] = 1
        ds = Dataset(covariates=rng.standard_normal((12, 2)), covariate_names=("a", "b"),
                     instrument=z, exposure=d)
        cfg = TestConfig(n_draws=1, enumeration_cap=100)
        assert exact_test(ds, "instrument", config=cfg).n_draws == 66
        with pytest.raises(CapExceededError, match=r"C\(12, 6\) = 924"):
            build_report(ds, cfg, statistics=("scmd",), exact=True)


def _golden_undefined_dataset() -> Dataset:
    """The golden ``undefined`` case's 12 units, 2 treated and 3 exposed: its
    Bernoulli draws are often degenerate and redrawn."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 2))
    z = np.zeros(12, dtype=np.int8)
    z[rng.permutation(12)[:2]] = 1
    d = np.zeros(12, dtype=np.int8)
    d[rng.permutation(12)[:3]] = 1
    return Dataset(covariates=x, covariate_names=("a", "b"), instrument=z, exposure=d)


class TestCommonKeys:
    """Every Monte Carlo draw set of a call reads one key row per draw, and no
    set's sampling changes what another set reads."""

    def test_each_set_of_one_loop_equals_its_own_run(self):
        ds = _golden_undefined_dataset()
        cfg = TestConfig(n_draws=200, seed=3)
        bernoulli = [MechanismSpec.bernoulli(predict(model, ds.covariates))
                     for model in fit_propensities(ds)]
        # a redrawing Bernoulli set comes before each complete set, and the
        # narrow Bernoulli products share the complete sets' wide operand
        sets = [("instrument", ("sqrt_mahalanobis",), bernoulli[0]),
                ("instrument", ("prevalence_diff", "sqrt_mahalanobis"), None),
                ("exposure", ("sqrt_mahalanobis",), bernoulli[1]),
                ("exposure", ("prevalence_diff", "sqrt_mahalanobis"), None)]
        together = randtest.run_sets(ds, sets, cfg)
        assert together[0]["sqrt_mahalanobis"].n_redraws > 0
        assert together[2]["sqrt_mahalanobis"].n_redraws > 0
        for (target, statistics, mechanism), results in zip(sets, together):
            alone = run_many(ds, target, statistics, cfg, mechanism)
            for s in statistics:
                assert np.array_equal(results[s].draws, alone[s].draws, equal_nan=True)
                assert np.array_equal(results[s].p_value, alone[s].p_value, equal_nan=True)
                assert results[s].n_redraws == alone[s].n_redraws

    def test_standalone_run_test_reproduces_each_report_set(self):
        ds = _golden_undefined_dataset()
        cfg = TestConfig(n_draws=200, seed=3)
        report = build_report(ds, cfg, statistics=("sqrt_mahalanobis",))
        comp = report.comparison
        p_instrument, p_exposure = (predict(model, ds.covariates)
                                    for model in fit_propensities(ds))
        for result, target, mechanism in (
                (comp.cr_result, "instrument", None),
                (comp.iv_bt, "instrument", MechanismSpec.bernoulli(p_instrument)),
                (comp.exp_bt, "exposure", MechanismSpec.bernoulli(p_exposure))):
            alone = run_test(ds, target, cfg, mechanism, statistic="sqrt_mahalanobis")
            assert np.array_equal(alone.draws, result.draws, equal_nan=True)
            assert alone.n_redraws == result.n_redraws
        exposure = run_test(ds, "exposure", cfg, statistic="sqrt_mahalanobis")
        reported = report.document["global"]["exposure"]["sqrt_mahalanobis"]
        for key in ("p_value", "q025", "q975", "draw_mean", "n_undefined"):
            assert reported[key] == getattr(exposure, key)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_report_makes_one_key_row_per_draw(self, monkeypatch, threads):
        # four draw sets, one word block per draw index: a return to words
        # made per draw set would make four times as many
        ds, _ = generate(ScenarioSpec(n_units=301, k_covariates=3, seed=5,
                                      **PRESETS["confounded-exposure"]))
        words = []
        original = DrawStream.word_block_raw

        def counted(self, starts, width, out=None):
            block = original(self, starts, width, out)
            words.append(block.size)
            return block

        monkeypatch.setattr(DrawStream, "word_block_raw", counted)
        cfg = TestConfig(n_draws=2_500, seed=3, threads=threads)
        doc = build_report(ds, cfg).document
        assert doc["comparison"]["bernoulli_redraws"] == {"instrument": 0, "exposure": 0}
        assert len(words) > 1   # several chunks
        assert sum(words) == cfg.n_draws * ((ds.n_units + 1) // 2)


class TestIdleWorkspaces:
    """A pool thread's workspace outlives its call; what an earlier call left
    in it never reaches a later call's results."""

    def test_a_later_call_borrows_the_idle_workspace(self, monkeypatch):
        monkeypatch.setattr(_workspace, "_idle", [])
        ds = _dataset(n=40)
        cfg = TestConfig(n_draws=300, seed=2)
        run_many(ds, "instrument", ("scmd",), cfg)
        (idle,) = _workspace._idle
        run_many(ds, "exposure", ("scmd",), cfg)
        assert _workspace._idle == [idle]
        with _workspace.borrowed() as workspace:
            assert workspace is idle
            assert _workspace._idle == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_results_do_not_depend_on_an_earlier_call(self, monkeypatch, threads):
        ds = _golden_undefined_dataset()
        cfg = TestConfig(n_draws=300, seed=3, threads=threads)
        bernoulli = MechanismSpec.bernoulli(predict(fit_propensities(ds)[0], ds.covariates))
        sets = [("instrument", ("scmd", "sqrt_mahalanobis"), bernoulli),
                ("exposure", ("iv_bias",), None)]
        monkeypatch.setattr(_workspace, "_idle", [])
        fresh = randtest.run_sets(ds, sets, cfg)
        # a wider call leaves larger buffers, filled with its own draws
        run_many(_dataset(n=90, k=4, seed=1), "instrument", STATISTICS, cfg)
        assert _workspace._idle
        again = randtest.run_sets(ds, sets, cfg)
        assert fresh[0]["scmd"].n_redraws > 0
        for before, after in zip(fresh, again):
            for s, result in before.items():
                assert np.array_equal(result.draws, after[s].draws, equal_nan=True)
                assert result.n_redraws == after[s].n_redraws


class TestEvaluatorSymmetry:
    """Invariances of the chunk evaluator that hold for every assignment."""

    @staticmethod
    def _case(seed, decades=0.0):
        """A dataset with covariates on scales up to ``decades`` powers of
        10 apart and a chunk of draws whose groups each hold at least
        max(2, K) units."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        n = int(rng.integers(4 * k + 10, 200))
        scales = 10.0 ** rng.uniform(-decades / 2, decades / 2, k)
        x = rng.standard_normal((n, k)) * scales
        floor = max(2, k)
        chunk = np.zeros((16, n), dtype=np.int8)
        for row in chunk:
            row[rng.permutation(n)[: rng.integers(floor, n - floor + 1)]] = 1
        z = chunk[0]
        d = (rng.random(n) < 0.5).astype(np.int8)
        d[:2] = [0, 1]
        ds = Dataset(covariates=x, covariate_names=tuple(f"c{i}" for i in range(k)),
                     instrument=z, exposure=d)
        return rng, ds, chunk.astype(np.float64), scales

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_relabelling_groups(self, seed):
        _, ds, chunk, scales = self._case(seed, decades=6.0)
        evaluator = _Evaluator(ds.covariates, None)
        statistics = ("prevalence_diff", "scmd", "mahalanobis")
        before = evaluator(chunk, statistics)
        after = evaluator(1.0 - chunk, statistics)
        np.testing.assert_allclose(after["prevalence_diff"], -before["prevalence_diff"],
                                   rtol=1e-10, atol=1e-12 * scales.max())
        np.testing.assert_allclose(after["scmd"], -before["scmd"], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(after["mahalanobis"], before["mahalanobis"],
                                   rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["per_draw", "fixed_observed"]))
    def test_relabelling_groups_bias(self, seed, bias_mode):
        # z -> 1 - z flips the mean difference; a per-draw strength flips
        # with it and leaves bias unchanged, a fixed one does not
        rng, ds, chunk, scales = self._case(seed, decades=6.0)
        d = ds.exposure.astype(np.float64)
        if bias_mode == "fixed_observed":
            strength = np.full(len(chunk), rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0]))
            fixed_strength = strength[0]
        else:
            strength = chunk @ d / chunk.sum(axis=1) - (1 - chunk) @ d / (1 - chunk).sum(axis=1)
            fixed_strength = None
        evaluator = _Evaluator(ds.covariates, d)
        before = evaluator(chunk, ("iv_bias",), fixed_strength)["iv_bias"]
        after = evaluator(1.0 - chunk, ("iv_bias",), fixed_strength)["iv_bias"]
        sign = -1.0 if bias_mode == "fixed_observed" else 1.0
        atol = 1e-12 * scales.max() / np.abs(strength[strength != 0.0]).min(initial=np.inf)
        np.testing.assert_allclose(after, sign * before, rtol=1e-10, atol=atol)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_affine_invariance_of_mahalanobis(self, seed):
        # unit-scale covariates: A's condition number is then what limits
        # the total scatter's, about cond(A)**2
        rng, ds, chunk, _ = self._case(seed)
        k = ds.n_covariates
        q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
        q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
        a = q1 @ np.diag(10.0 ** rng.uniform(0, 2.99, k)) @ q2
        assert np.linalg.cond(a) < 1e3
        b = rng.uniform(-100, 100, k)
        before, after = (
            _Evaluator(x, None)(chunk, ("mahalanobis",))["mahalanobis"]
            for x in (ds.covariates, ds.covariates @ a.T + b))
        assert np.isfinite(before).all()
        np.testing.assert_allclose(after, before, rtol=1e-8)
