"""Balance statistics against hand-computed and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivrand import (
    StatisticError,
    instrument_strength,
    iv_bias,
    mahalanobis,
    mahalanobis_from_components,
    mean_difference_covariance,
    prevalence_difference,
    scmd,
)


class TestPrevalenceDifference:
    def test_hand_example(self):
        assert prevalence_difference([1, 2, 3, 4], [1, 1, 0, 0]) == -2.0

    def test_constant_covariate(self):
        assert prevalence_difference([5, 5, 5, 5], [1, 0, 1, 0]) == 0.0

    def test_symmetric_split(self):
        assert prevalence_difference([5, 5, 0, 0], [1, 0, 1, 0]) == 0.0

    def test_empty_group_errors(self):
        with pytest.raises(StatisticError):
            prevalence_difference([1, 2, 3], [1, 1, 1])

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        z = (rng.random(30) < 0.5).astype(int)
        z[0], z[1] = 1, 0
        assert prevalence_difference(x, z) == pytest.approx(
            -prevalence_difference(x, 1 - z), rel=1e-12
        )


class TestScmd:
    def test_identical_group_means(self):
        assert scmd([0, 2, 0, 2], [1, 1, 0, 0]) == 0.0

    def test_hand_oracle(self):
        # diff = 3, s1^2 = s0^2 = 2 -> 3 / sqrt(2)
        assert scmd([4, 6, 1, 3], [1, 1, 0, 0]) == pytest.approx(
            3 / np.sqrt(2), rel=1e-12
        )

    def test_zero_sd_nonzero_diff_is_undefined(self):
        # two constant groups at different levels
        assert np.isnan(scmd([1, 1, 0, 0], [1, 1, 0, 0]))

    def test_constant_covariate_is_zero(self):
        assert scmd([3, 3, 3, 3], [1, 1, 0, 0]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6).filter(lambda c: abs(c) > 1e-6))
    def test_scale_free(self, c):
        x = np.array([4.0, 6.0, 1.0, 3.0, 2.0, 5.0])
        z = np.array([1, 1, 0, 0, 1, 0])
        assert scmd(c * x, z) == pytest.approx(np.sign(c) * scmd(x, z), rel=1e-9)

    def test_antisymmetry(self):
        x = np.array([4.0, 6.0, 1.0, 3.0, 2.0, 5.0])
        z = np.array([1, 1, 0, 0, 1, 0])
        assert scmd(x, z) == pytest.approx(-scmd(x, 1 - z), rel=1e-12)


class TestIvBias:
    def test_ratio_arithmetic(self):
        # covariate diff 0.2, exposure diff 0.5 -> 0.4
        x = np.array([0.2, 0.2, 0.0, 0.0])
        z = np.array([1, 1, 0, 0])
        d = np.array([1, 0, 0, 0])   # strength 0.5
        assert iv_bias(x, z, d) == pytest.approx(0.4, rel=1e-12)

    def test_zero_numerator(self):
        x = np.array([1.0, 1.0, 1.0, 1.0])
        z = np.array([1, 1, 0, 0])
        d = np.array([1, 0, 0, 0])
        assert iv_bias(x, z, d) == 0.0

    def test_exposure_bias_equals_balance_when_z_is_d(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(40)
        d = (rng.random(40) < 0.5).astype(int)
        d[:2] = [0, 1]
        assert iv_bias(x, d, d) == pytest.approx(
            prevalence_difference(x, d), rel=1e-12
        )

    def test_zero_denominator_undefined(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        z = np.array([1, 1, 0, 0])
        d = np.array([1, 0, 1, 0])   # same exposure rate in both groups
        assert np.isnan(iv_bias(x, z, d))

    def test_fixed_denominator_override(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        z = np.array([1, 1, 0, 0])
        d = np.array([1, 0, 1, 0])
        assert iv_bias(x, z, d, denominator=0.5) == pytest.approx(-4.0)


class TestInstrumentStrength:
    def test_equals_difference_of_group_means(self):
        # the engine's fixed bias denominator once had this formula of its own
        rng = np.random.default_rng(4)
        for _ in range(400):
            n = int(rng.integers(4, 3_000))
            z = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int8)
            d = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int8)
            z[:2] = [0, 1]
            d = d.astype(np.float64)
            assert instrument_strength(z, d) == d[z == 1].mean() - d[z == 0].mean()


class TestMeanDifferenceCovariance:
    def test_scalar_oracle(self):
        # pooled variance 2, N1 = N0 = 2 -> 2 * (1/2 + 1/2) = 2
        cov = mean_difference_covariance(
            np.array([0.0, 2.0, 0.0, 2.0])[:, None], [1, 1, 0, 0]
        )
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_constant_column_gives_zero_row(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.standard_normal(12), np.full(12, 7.0)])
        z = np.array([1, 0] * 6)
        cov = mean_difference_covariance(x, z)
        assert np.all(cov[1, :] == 0.0)
        assert np.all(cov[:, 1] == 0.0)

    def test_duplicated_column_singular(self):
        rng = np.random.default_rng(3)
        col = rng.standard_normal(16)
        x = np.column_stack([col, col])
        z = np.array([1, 0] * 8)
        cov = mean_difference_covariance(x, z)
        assert np.linalg.matrix_rank(cov) == 1

    def test_small_group_errors(self):
        with pytest.raises(StatisticError):
            mean_difference_covariance(np.ones((3, 1)), [1, 0, 0])

    def test_matches_direct_pooled_estimate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((25, 3))
        z = (rng.random(25) < 0.4).astype(int)
        z[:4] = [1, 1, 0, 0]
        n1, n0 = z.sum(), (1 - z).sum()
        s1 = np.cov(x[z == 1], rowvar=False, ddof=1)
        s0 = np.cov(x[z == 0], rowvar=False, ddof=1)
        expected = ((n1 - 1) * s1 + (n0 - 1) * s0) / (n1 + n0 - 2) * (1 / n1 + 1 / n0)
        np.testing.assert_allclose(
            mean_difference_covariance(x, z), expected, rtol=1e-10
        )


class TestMahalanobis:
    def test_zero_difference(self):
        x = np.array([1.0, 2.0, 1.0, 2.0])[:, None]
        z = np.array([1, 1, 0, 0])
        gb = mahalanobis(x, z)
        assert gb.mahalanobis == 0.0
        assert gb.sqrt_mahalanobis == 0.0

    def test_small_or_empty_group_errors(self):
        x = np.arange(6.0)[:, None]
        for z in ([1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1]):
            with pytest.raises(StatisticError):
                mahalanobis(x, z)

    def test_scalar_oracle(self):
        # diff = 3, cov = 2 -> M = 9/2
        gb = mahalanobis(np.array([4.0, 6.0, 1.0, 3.0])[:, None], [1, 1, 0, 0])
        assert gb.mahalanobis == pytest.approx(4.5, rel=1e-12)
        assert gb.sqrt_mahalanobis == pytest.approx(np.sqrt(4.5), rel=1e-12)
        assert not gb.pseudo_inverse_used
        assert gb.covariance_rank == 1

    def test_affine_invariance_spot(self):
        # a random affine map, and one column rescaled by 1e-6 or 1e6: the
        # rank is cut on the column-scaled scatter, so a covariate's units
        # cannot drop it, in the engine or in the SVD oracle
        def oracle(x, z):
            diff = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
            return mahalanobis_from_components(diff, mean_difference_covariance(x, z))

        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 4))
        z = (rng.random(60) < 0.5).astype(int)
        z[:4] = [1, 1, 0, 0]
        a = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        b = rng.standard_normal(4)
        maps = [(a, b)] + [(np.diag([1.0, scale, 1.0, 1.0]), np.array([0.0, 5.0, 0.0, 0.0]))
                           for scale in (1e-6, 1e6)]
        for distance in (mahalanobis, oracle):
            base = distance(x, z).mahalanobis
            for a, b in maps:
                mapped = distance(x @ a.T + b, z)
                assert abs(mapped.mahalanobis - base) <= 1e-8 * max(1.0, base)
                assert mapped.covariance_rank == 4 and not mapped.pseudo_inverse_used

    def test_constant_covariate_is_dropped_at_any_scale(self):
        # 0.1 has no exact mean over 77 units, so centring leaves a residue
        # that column scaling must not turn into a direction; the 1e-7 column
        # is full rank and kept
        rng = np.random.default_rng(1)
        x = np.column_stack([rng.standard_normal(77), np.full(77, 0.1),
                             1e-7 * rng.standard_normal(77)])
        z = (rng.random(77) < 0.4).astype(int)
        gb = mahalanobis(x, z)
        assert gb.covariance_rank == 2 and gb.pseudo_inverse_used
        assert gb.mahalanobis == pytest.approx(mahalanobis(x[:, [0, 2]], z).mahalanobis,
                                               rel=1e-10)
        diff = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
        oracle = mahalanobis_from_components(diff, mean_difference_covariance(x, z))
        assert oracle.covariance_rank == 2
        assert oracle.mahalanobis == pytest.approx(gb.mahalanobis, rel=1e-10)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 3))
        z = (rng.random(40) < 0.5).astype(int)
        z[:4] = [1, 1, 0, 0]
        a = mahalanobis(x, z).mahalanobis
        b = mahalanobis(x, 1 - z).mahalanobis
        assert a == pytest.approx(b, rel=1e-10)

    def test_bias_balance_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 4))
        z = (rng.random(50) < 0.5).astype(int)
        z[:4] = [1, 1, 0, 0]
        diff = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
        cov = mean_difference_covariance(x, z)
        c = 0.37
        balance = mahalanobis_from_components(diff, cov)
        bias = mahalanobis_from_components(diff / c, cov / c**2)
        assert bias.mahalanobis == pytest.approx(
            balance.mahalanobis, rel=1e-10
        )

    def test_separating_covariate_is_undefined(self):
        # the second covariate equals the assignment: constant within both
        # groups, so the pooled covariance loses a rank the data have
        rng = np.random.default_rng(1)
        z = np.zeros(30, dtype=int)
        z[rng.permutation(30)[:15]] = 1
        x = np.column_stack([rng.standard_normal(30), z])
        gb = mahalanobis(x, z)
        assert np.isnan(gb.mahalanobis) and np.isnan(gb.sqrt_mahalanobis)
        assert gb.covariance_rank == 1
        # a perturbed copy no longer separates the groups and is defined
        x[:, 1] += 0.01 * rng.standard_normal(30)
        assert mahalanobis(x, z).mahalanobis > 1e3

    def test_pseudo_inverse_matches_projected_basis(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((60, 3))
        # add a linearly dependent fourth column
        x = np.column_stack([base, base @ np.array([0.5, -1.0, 2.0])])
        z = (rng.random(60) < 0.5).astype(int)
        z[:4] = [1, 1, 0, 0]
        full = mahalanobis(x, z)
        reduced = mahalanobis(base, z)
        assert full.pseudo_inverse_used
        assert full.covariance_rank == 3
        assert full.mahalanobis == pytest.approx(
            reduced.mahalanobis, rel=1e-8
        )
