import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import pairsens as ps


class TestPairedSample:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            ps.PairedSample([1.0, np.nan])
        with pytest.raises(ValueError):
            ps.PairedSample([1.0, np.inf])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            ps.PairedSample([])
        with pytest.raises(ValueError):
            ps.PairedSample([[1.0, 2.0]])

    def test_single_pair_allowed(self):
        assert ps.PairedSample([2.0]).n_pairs == 1

    def test_immutable(self):
        s = ps.PairedSample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.y[0] = 5.0


class TestSensitivityParam:
    def test_theta_at_one_is_exactly_half(self):
        assert ps.SensitivityParam(1.0).theta == 0.5
        assert ps.SensitivityParam(1.0).sign_bias == 0.0

    def test_theta_values(self):
        assert_allclose(ps.SensitivityParam(4.0).theta, 0.8, rtol=0, atol=1e-15)
        assert_allclose(ps.SensitivityParam(9.0).theta, 0.9, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.5, 0.999, -1.0, np.nan, np.inf])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            ps.SensitivityParam(gamma)


class TestTestSpec:
    @pytest.mark.parametrize("alpha", [0.0, -0.01, 0.51, 1.0])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError):
            ps.TestSpec(tau=0.0, alpha=alpha)

    def test_alpha_half_allowed(self):
        ps.TestSpec(tau=0.0, alpha=0.5)

    def test_bad_alternative_and_method(self):
        with pytest.raises(ValueError):
            ps.TestSpec(tau=0.0, alternative="two-sided")
        with pytest.raises(ValueError):
            ps.TestSpec(tau=0.0, method="wilcoxon")


class TestAssignmentVector:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            ps.AssignmentVector([1.0, 0.0])

    def test_accepts_signs(self):
        v = ps.AssignmentVector([1, -1, 1])
        assert_array_equal(v.v, [1.0, -1.0, 1.0])


class TestDValues:
    def test_gamma_one_is_residual(self):
        s = ps.PairedSample([3.0])
        assert_array_equal(ps.d_values(s, 0.0, ps.SensitivityParam(1.0)), [3.0])

    def test_gamma_one_is_residual_random(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=40)
        s = ps.PairedSample(y)
        assert_array_equal(ps.d_values(s, 0.3, ps.SensitivityParam(1.0)), y - 0.3)

    def test_displayed_formula(self):
        s = ps.PairedSample([5.0, -5.0])
        d = ps.d_values(s, 0.0, ps.SensitivityParam(4.0))
        assert_allclose(d, [2.0, -8.0], rtol=0, atol=1e-12)

    def test_all_at_tau_gives_zeros(self):
        s = ps.PairedSample([1.5, 1.5, 1.5])
        for gamma in (1.0, 2.0, 10.0):
            assert_array_equal(ps.d_values(s, 1.5, ps.SensitivityParam(gamma)), [0.0] * 3)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(11)
        y = np.sort(rng.normal(scale=3.0, size=200))
        for gamma in (1.0, 1.7, 5.0, 40.0):
            d = ps.d_values(ps.PairedSample(y), 0.4, ps.SensitivityParam(gamma))
            assert np.all(np.diff(d) >= 0)


class TestAValues:
    def test_all_plus_identity(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=12)
        s = ps.PairedSample(y)
        sens = ps.SensitivityParam(3.0)
        a = ps.a_values(np.ones(12), s, 0.2, sens)
        assert_allclose(a, 2 * (1 - sens.theta) * np.abs(y - 0.2), rtol=1e-14)

    def test_observed_signs_recover_d(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            y = rng.normal(size=15)
            tau = rng.normal()
            s = ps.PairedSample(y)
            sens = ps.SensitivityParam(rng.uniform(1.0, 8.0))
            v = ps.observed_signs(s, tau)
            assert_array_equal(ps.a_values(v, s, tau, sens), ps.d_values(s, tau, sens))

    def test_sign_of_zero_is_plus(self):
        s = ps.PairedSample([2.0, 0.0, -1.0])
        assert_array_equal(ps.observed_signs(s, 0.0).v, [1.0, 1.0, -1.0])

    def test_gamma_one_example(self):
        s = ps.PairedSample([2.0, -2.0])
        a = ps.a_values([1.0, -1.0], s, 0.0, ps.SensitivityParam(1.0))
        assert_array_equal(a, [2.0, -2.0])

    def test_length_mismatch(self):
        s = ps.PairedSample([1.0, 2.0])
        with pytest.raises(ValueError):
            ps.a_values([1.0], s, 0.0, ps.SensitivityParam(1.0))

    def test_zero_expectation_under_biased_signs(self):
        # each coordinate of A has mean 0 when signs are +1 with prob theta
        y = np.array([1.3, -0.4, 2.2, 0.9])
        tau = 0.1
        sens = ps.SensitivityParam(3.0)
        s = ps.PairedSample(y)
        rng = np.random.default_rng(12345)
        n = 200_000
        signs = np.where(rng.random((n, 4)) < sens.theta, 1.0, -1.0)
        mag = np.abs(y - tau)
        a = signs * mag - sens.sign_bias * mag
        means = a.mean(axis=0)
        per_coord_se = mag * np.sqrt(4 * sens.theta * (1 - sens.theta) / n)
        assert np.all(np.abs(means) <= 4 * per_coord_se)


class TestSampleMeanAndSe:
    def test_zero_spread(self):
        assert ps.sample_mean_and_se([1.0, 1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_hand_computed(self):
        assert ps.sample_mean_and_se([0.0, 2.0]) == (1.0, 1.0)
        mean, se = ps.sample_mean_and_se([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert_allclose(se, np.sqrt(1.0 / 3.0), rtol=1e-15)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            ps.sample_mean_and_se([1.0])

    def test_overflowing_se_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rescale the differences"):
                ps.sample_mean_and_se(1e200 * np.array([1.0, -1.0, 1.0, -1.0, 2.0]))
        mean, se = ps.sample_mean_and_se(1e150 * np.array([1.0, -1.0, 1.0, -1.0, 2.0]))
        assert_allclose((mean, se), (0.4e150, 0.6e150), rtol=1e-12)

    def test_non_finite_input_warns_as_numpy_does(self):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            mean, se = ps.sample_mean_and_se([1.0, np.inf, 2.0])
        assert mean == np.inf and np.isnan(se)

    def test_matches_numpy_on_random_data(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=1000)
        mean, se = ps.sample_mean_and_se(x)
        assert_allclose(mean, x.mean(), rtol=1e-14)
        assert_allclose(se, x.std(ddof=1) / np.sqrt(x.size), rtol=1e-12)
