import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import PROCEDURES
from numpy.testing import assert_allclose
from scipy import stats
from test_search_decision import CASES, ENGINES, GAMMAS

import pairsens as ps
from pairsens import testing


def spec(tau, alpha=0.05, alternative="greater", method="studentized"):
    return ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative, method=method)


def naive_sign_flip_pvalue(y, tau):
    """Independent brute-force paired randomization p-value (sharp null, fair coin)."""
    resid = np.asarray(y, dtype=float) - tau
    obs = np.mean(resid)
    mag = np.abs(resid)
    count = 0
    for signs in itertools.product((-1.0, 1.0), repeat=len(resid)):
        if np.mean(np.array(signs) * mag) >= obs:
            count += 1
    return count / 2 ** len(resid)


class TestNeyman:
    def test_matches_classical_paired_t_at_gamma_one(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            y = rng.normal(loc=0.4, size=17)
            tau = rng.normal()
            res = ps.test_neyman(ps.PairedSample(y), spec(tau), ps.SensitivityParam(1.0))
            t_stat = stats.ttest_1samp(y - tau, 0.0).statistic
            assert_allclose(res.statistic, t_stat, rtol=1e-12)

    def test_statistic_two_rejects(self):
        # y = [1, 3]: mean 2, standard error 1, statistic exactly 2
        res = ps.test_neyman(ps.PairedSample([1.0, 3.0]), spec(0.0), ps.SensitivityParam(1.0))
        assert res.statistic == 2.0
        assert res.reject  # 2.0 >= 1.6449
        assert_allclose(res.critical_value, 1.6448536269514722, atol=1e-12)
        assert_allclose(res.p_value_upper, 0.022750131948179212, atol=1e-12)

    def test_zero_statistic_half_pvalue(self):
        res = ps.test_neyman(ps.PairedSample([-1.0, 1.0]), spec(0.0), ps.SensitivityParam(1.0))
        assert res.statistic == 0.0
        assert res.p_value_upper == 0.5
        assert not res.reject

    def test_degenerate_sample(self):
        res = ps.test_neyman(ps.PairedSample([2.0, 2.0]), spec(0.0), ps.SensitivityParam(1.0))
        assert res.degenerate
        assert not res.reject
        assert res.statistic is None
        assert res.p_value_upper == 1.0

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            ps.test_neyman(ps.PairedSample([2.0]), spec(0.0), ps.SensitivityParam(1.0))


class TestPermT:
    def test_single_pair_alpha_unattainable(self):
        res = ps.test_perm_t(
            ps.PairedSample([2.0]), spec(0.0, method="perm_t"), ps.SensitivityParam(1.0)
        )
        assert res.statistic == 2.0
        assert res.critical_value == 2.0
        assert res.reject
        assert res.p_value_upper == 0.5

    def test_symmetric_data_median_statistic(self):
        rng = np.random.default_rng(62)
        half = rng.normal(size=6)
        y = np.concatenate([half, -half]) + 1.3
        s = ps.PairedSample(y)
        res = ps.test_perm_t(s, spec(float(y.mean()), method="perm_t"), ps.SensitivityParam(1.0))
        assert abs(res.p_value_upper - 0.5) <= 0.01

    def test_matches_naive_oracle_at_gamma_one(self):
        # integer data keeps every subset sum exact, so the p-values agree
        # bit for bit with an independent enumeration
        y = np.array([3.0, -2.0, 5.0, 1.0, -1.0, 4.0, 2.0, -3.0, 6.0, 1.0])
        tau = 1.0
        res = ps.test_perm_t(
            ps.PairedSample(y), spec(tau, method="perm_t"), ps.SensitivityParam(1.0)
        )
        assert res.p_value_upper == naive_sign_flip_pvalue(y, tau)

    def test_hand_enumerated_biased_case(self):
        # y = [1, 2], tau 0, gamma 4: atoms -2.4, -1.4, -0.4, 0.6 with
        # weights .04, .16, .16, .64; observed mean statistic 0.6
        res = ps.test_perm_t(
            ps.PairedSample([1.0, 2.0]), spec(0.0, method="perm_t"), ps.SensitivityParam(4.0)
        )
        assert_allclose(res.statistic, 0.6, atol=1e-12)
        assert_allclose(res.critical_value, 0.6, atol=1e-12)
        assert res.reject
        assert_allclose(res.p_value_upper, 0.64, atol=1e-12)

    def test_all_at_tau_degenerate(self):
        res = ps.test_perm_t(
            ps.PairedSample([1.0, 1.0]), spec(1.0, method="perm_t"), ps.SensitivityParam(2.0)
        )
        assert res.degenerate
        assert not res.reject
        assert res.p_value_upper == 1.0

    def test_constant_data_pvalue_is_theta_power(self):
        # all differences equal and above tau: the only assignment reaching
        # the observed statistic is all-plus, so p = theta**I exactly
        n = 12
        s = ps.PairedSample(np.full(n, 3.0))
        for gamma in (1.0, 2.0, 5.0):
            sens = ps.SensitivityParam(gamma)
            res = ps.test_perm_t(s, spec(1.0, method="perm_t"), sens)
            assert_allclose(res.p_value_upper, sens.theta**n, rtol=1e-12)

    def test_rejection_monotone_in_gamma(self):
        # stochastic dominance: the uncentered worst-case quantile (critical
        # value plus the bias shift) is nondecreasing in gamma, so once the
        # test stops rejecting it stays stopped
        rng = np.random.default_rng(63)
        y = rng.normal(loc=0.5, size=10)
        s = ps.PairedSample(y)
        shift = np.abs(y).mean()
        uncentered = []
        rejects = []
        for g in np.linspace(1.0, 6.0, 11):
            sens = ps.SensitivityParam(g)
            res = ps.test_perm_t(s, spec(0.0, method="perm_t"), sens)
            uncentered.append(res.critical_value + sens.sign_bias * shift)
            rejects.append(res.reject)
        assert np.all(np.diff(uncentered) >= -1e-12)
        assert rejects == sorted(rejects, reverse=True)

    def test_conservative_pvalue_reported_for_mc(self):
        rng = np.random.default_rng(64)
        y = rng.normal(loc=0.3, size=40)
        res = ps.test_perm_t(
            ps.PairedSample(y),
            spec(0.0, method="perm_t"),
            ps.SensitivityParam(2.0),
            ps.EnumSpec(mode="monte_carlo", draws=2000, seed=3),
        )
        assert res.mode == "monte_carlo"
        assert res.n_draws == 2000
        count = round(res.p_value_upper * 2000)
        assert_allclose(res.p_value_upper_conservative, (count + 1) / 2001, rtol=1e-12)


class TestStudentized:
    def test_all_at_tau_degenerate(self):
        res = ps.test_studentized(
            ps.PairedSample([2.0, 2.0, 2.0]), spec(2.0), ps.SensitivityParam(3.0)
        )
        assert res.degenerate and not res.reject

    def test_constant_data_degenerate(self):
        res = ps.test_studentized(
            ps.PairedSample([5.0, 5.0, 5.0]), spec(0.0), ps.SensitivityParam(2.0)
        )
        assert res.degenerate and not res.reject

    def test_statistic_is_studentized_mean(self):
        rng = np.random.default_rng(65)
        y = rng.normal(loc=1.0, size=12)
        s = ps.PairedSample(y)
        sens = ps.SensitivityParam(2.0)
        res = ps.test_studentized(s, spec(0.2), sens)
        d = ps.d_values(s, 0.2, sens)
        dbar, sd = ps.sample_mean_and_se(d)
        assert_allclose(res.statistic, dbar / sd, rtol=1e-14)
        g = ps.build_g_hat(s, 0.2, sens)
        assert res.critical_value == g.quantile(0.95)
        assert res.p_value_upper == g.tail_prob(res.statistic)


class TestCombined:
    def test_rejects_only_when_both_do(self):
        rng = np.random.default_rng(66)
        for trial in range(60):
            y = rng.normal(loc=0.6, scale=1.0, size=9) * rng.uniform(0.5, 2.0)
            s = ps.PairedSample(y)
            sens = ps.SensitivityParam(rng.uniform(1.0, 3.0))
            sp = spec(0.0, method="combined")
            r_f = ps.test_perm_t(s, sp, sens)
            r_s = ps.test_studentized(s, sp, sens)
            r_c = ps.test_combined(s, sp, sens)
            assert r_c.reject == (r_f.reject and r_s.reject)
            assert_allclose(
                r_c.p_value_upper, max(r_f.p_value_upper, r_s.p_value_upper), rtol=1e-12
            )

    def test_no_rejection_when_constituents_disagree(self):
        # skewed sample where the mean test rejects but the studentized one
        # does not: the conjunction must not reject
        y = [0.122, 0.167, 0.507, 0.624, 0.635, 1.089, -0.285, 0.321, 0.749]
        s = ps.PairedSample(y)
        sp = spec(0.0, method="combined")
        sens = ps.SensitivityParam(1.88)
        assert ps.test_perm_t(s, sp, sens).reject
        assert not ps.test_studentized(s, sp, sens).reject
        assert not ps.test_combined(s, sp, sens).reject

    def test_degenerate(self):
        res = ps.test_combined(
            ps.PairedSample([1.0, 1.0]), spec(0.0, method="combined"), ps.SensitivityParam(2.0)
        )
        assert res.degenerate and not res.reject


class TestAlternatives:
    @pytest.mark.parametrize("method", ["neyman", "perm_t", "studentized", "combined"])
    def test_less_is_greater_on_negated_data(self, method):
        rng = np.random.default_rng(67)
        y = rng.normal(loc=-0.8, size=11)
        tau = -0.1
        sens = ps.SensitivityParam(2.0)
        res_less = testing.run_test(
            ps.PairedSample(y), spec(tau, alternative="less", method=method), sens
        )
        res_greater = testing.run_test(
            ps.PairedSample(-y), spec(-tau, alternative="greater", method=method), sens
        )
        assert res_less.reject == res_greater.reject
        assert res_less.statistic == res_greater.statistic
        assert res_less.critical_value == res_greater.critical_value
        assert res_less.p_value_upper == res_greater.p_value_upper
        assert res_less.alternative == "less"

    @pytest.mark.parametrize("method", ["neyman", "perm_t", "studentized"])
    def test_shift_equivariance(self, method):
        rng = np.random.default_rng(68)
        y = rng.normal(loc=0.5, size=10)
        tau, shift = 0.1, 2.0  # power-of-two shift keeps the arithmetic exact
        sens = ps.SensitivityParam(3.0)
        base = testing.run_test(ps.PairedSample(y), spec(tau, method=method), sens)
        moved = testing.run_test(
            ps.PairedSample(y + shift), spec(tau + shift, method=method), sens
        )
        assert base.reject == moved.reject
        assert_allclose(base.statistic, moved.statistic, rtol=1e-10)
        assert_allclose(base.p_value_upper, moved.p_value_upper, atol=1e-10)


class TestRunTestDispatch:
    def test_dispatches_on_method(self):
        s = ps.PairedSample([1.0, 3.0, 2.0])
        sens = ps.SensitivityParam(1.5)
        for method in ps.METHODS:
            res = testing.run_test(s, spec(0.0, method=method), sens)
            assert res.method == method


def _differential_configurations():
    for name, y, tau, alpha in CASES:
        for method in ps.METHODS:
            for alternative in ps.ALTERNATIVES:
                for mode in ENGINES:
                    yield pytest.param(y, tau, alpha, method, alternative, mode,
                                       id=f"{name}-{method}-{alternative}-{mode}")
    for alternative in ps.ALTERNATIVES:
        for mode in ENGINES:
            yield pytest.param(np.array([2.0]), 0.0, 0.05, "perm_t", alternative, mode,
                               id=f"single-pair-perm_t-{alternative}-{mode}")


def _fields(result):
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    return [(f.name, repr(getattr(result, f.name))) for f in fields(result)]


class TestRunTestMatchesProcedures:
    @pytest.mark.parametrize("y, tau, alpha, method, alternative, mode",
                             list(_differential_configurations()))
    def test_every_field_equal(self, y, tau, alpha, method, alternative, mode):
        sample = ps.PairedSample(y)
        sp = spec(tau, alpha, alternative, method)
        engine = ENGINES[mode]
        wrapper = getattr(ps, f"test_{method}")
        # the wrappers ignore spec.method
        other = replace(sp, method=ps.METHODS[ps.METHODS.index(method) - 1])
        for g in GAMMAS:
            sens = ps.SensitivityParam(g)
            expected = _fields(PROCEDURES[method](sample, sp, sens, engine))
            assert _fields(testing.run_test(sample, sp, sens, engine)) == expected
            if method == "neyman":
                assert _fields(wrapper(sample, other, sens)) == expected
            else:
                assert _fields(wrapper(sample, other, sens, engine)) == expected
