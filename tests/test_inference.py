import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

import pairsens as ps
from pairsens import testing


def mc_engine(draws=2000, seed=0):
    return ps.EnumSpec(mode="monte_carlo", draws=draws, seed=seed)


def rejector(sample, method, tau, alpha, engine=None, alternative="greater"):
    spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative, method=method)

    def rejects(gamma):
        return testing.run_test(sample, spec, ps.SensitivityParam(gamma), engine).reject

    return rejects


class TestChangepoint:
    def test_flagged_when_not_rejecting_at_one(self):
        y = np.tile([-1.0, 1.0], 6)
        res = ps.changepoint_gamma(ps.PairedSample(y), tau=0.0, method="perm_t")
        assert not res.rejects_at_gamma_one
        assert res.gamma_changepoint == 1.0
        assert res.bracket == (1.0, 1.0)

    def test_bracket_consistency_exact(self):
        rng = np.random.default_rng(71)
        y = rng.normal(loc=1.0, size=12)
        s = ps.PairedSample(y)
        for method in ("perm_t", "studentized"):
            res = ps.changepoint_gamma(s, tau=0.0, method=method, grid_points=10)
            assert res.rejects_at_gamma_one and not res.exceeded_gamma_max
            lo, hi = res.bracket
            assert hi - lo <= res.tolerance * (1 + 1e-9)
            rejects = rejector(s, method, 0.0, 0.05)
            assert rejects(lo)
            assert not rejects(hi)
            assert lo <= res.gamma_changepoint <= hi
            if method == "perm_t":  # indicator provably monotone
                assert rejects(res.gamma_changepoint - res.tolerance)
                assert not rejects(res.gamma_changepoint + res.tolerance)

    def test_matches_independent_grid_scan(self):
        # coarse grid transition must land inside the reported bracket
        rng = np.random.default_rng(72)
        y = rng.normal(loc=0.8, size=10)
        s = ps.PairedSample(y)
        res = ps.changepoint_gamma(s, tau=0.0, method="perm_t", grid_points=10)
        rejects = rejector(s, "perm_t", 0.0, 0.05)
        grid = np.arange(1.0, 20.0, 0.05)
        flags = [rejects(g) for g in grid]
        last_reject = grid[max(i for i, f in enumerate(flags) if f)]
        first_accept = grid[min(i for i, f in enumerate(flags) if not f)]
        assert last_reject <= res.bracket[1] + 0.05
        assert first_accept >= res.bracket[0] - 0.05

    def test_constant_data_pvalue_crossing_closed_form(self):
        # on constant data the perm-t p-value is theta**I exactly, so the
        # p-value crosses alpha at gamma = r/(1-r) with r = alpha**(1/I)
        n, alpha = 12, 0.05
        s = ps.PairedSample(np.full(n, 4.0))
        spec = ps.TestSpec(tau=1.0, alpha=alpha, method="perm_t")

        def pvalue(gamma):
            return ps.test_perm_t(s, spec, ps.SensitivityParam(gamma)).p_value_upper

        lo, hi = 1.0, 100.0
        assert pvalue(lo) <= alpha < pvalue(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if pvalue(mid) <= alpha:
                lo = mid
            else:
                hi = mid
        r = alpha ** (1.0 / n)
        assert_allclose(0.5 * (lo + hi), r / (1.0 - r), atol=1e-6)

    def test_monte_carlo_determinism(self):
        rng = np.random.default_rng(73)
        y = rng.normal(loc=0.9, size=30)
        s = ps.PairedSample(y)
        kwargs = dict(tau=0.0, method="studentized", engine=mc_engine(seed=5),
                      grid_points=8)
        a = ps.changepoint_gamma(s, **kwargs)
        b = ps.changepoint_gamma(s, **kwargs)
        assert a == b
        rejects = rejector(s, "studentized", 0.0, 0.05, engine=mc_engine(seed=5))
        assert rejects(a.bracket[0]) and not rejects(a.bracket[1])

    def test_exceeded_gamma_max(self):
        rng = np.random.default_rng(74)
        y = rng.normal(loc=1.0, size=10)
        res = ps.changepoint_gamma(
            ps.PairedSample(y), tau=0.0, method="perm_t", gamma_max=1.05, grid_points=5
        )
        assert res.exceeded_gamma_max
        assert math.isinf(res.gamma_changepoint)

    def test_bad_arguments(self):
        s = ps.PairedSample([1.0, 2.0, 3.0])
        for gamma_max in (1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma_max"):
                ps.changepoint_gamma(s, tau=0.0, gamma_max=gamma_max)
        with pytest.raises(ValueError):
            ps.changepoint_gamma(s, tau=0.0, tol=0.0)


class TestSensitivityInterval:
    def test_neyman_matches_closed_form_at_gamma_one(self):
        rng = np.random.default_rng(75)
        y = rng.normal(loc=2.0, scale=1.5, size=200)
        s = ps.PairedSample(y)
        res = ps.sensitivity_interval(s, gamma=1.0, confidence=0.90, method="neyman")
        mean, se = ps.sample_mean_and_se(y)
        z = stats.norm.ppf(0.95)
        assert_allclose(res.lower, mean - z * se, atol=1e-4)
        assert_allclose(res.upper, mean + z * se, atol=1e-4)
        assert res.lower <= res.upper

    def test_nesting_in_gamma(self):
        rng = np.random.default_rng(76)
        y = rng.normal(loc=0.7, size=10)
        s = ps.PairedSample(y)
        narrow = ps.sensitivity_interval(s, gamma=2.0, method="perm_t")
        wide = ps.sensitivity_interval(s, gamma=3.0, method="perm_t")
        assert wide.lower <= narrow.lower + narrow.tol
        assert wide.upper >= narrow.upper - narrow.tol

    def test_interval_test_duality(self):
        rng = np.random.default_rng(77)
        y = rng.normal(loc=0.5, size=30)
        s = ps.PairedSample(y)
        engine = mc_engine(draws=2000, seed=11)
        res = ps.sensitivity_interval(s, gamma=2.0, confidence=0.90,
                                      method="studentized", engine=engine)
        for frac in (0.1, 0.5, 0.9):
            tau = res.lower + frac * (res.upper - res.lower)
            for alt in ("greater", "less"):
                spec = ps.TestSpec(tau=tau, alpha=0.05, alternative=alt,
                                   method="studentized")
                assert not testing.run_test(s, spec, ps.SensitivityParam(2.0), engine).reject

    def test_degenerate_constant_data_collapses(self):
        s = ps.PairedSample(np.full(8, 3.0))
        res = ps.sensitivity_interval(s, gamma=1.0, method="perm_t", tol=1e-6)
        assert_allclose(res.lower, 3.0, atol=1e-4)
        assert_allclose(res.upper, 3.0, atol=1e-4)

    def test_infinite_endpoints_when_test_cannot_reject(self):
        # neyman never rejects when the variance estimate is identically zero
        s = ps.PairedSample(np.full(8, 3.0))
        res = ps.sensitivity_interval(s, gamma=1.0, method="neyman", tol=1e-6)
        assert res.lower == -math.inf
        assert res.upper == math.inf

    def test_monte_carlo_determinism(self):
        rng = np.random.default_rng(78)
        y = rng.normal(loc=0.6, size=25)
        s = ps.PairedSample(y)
        a = ps.sensitivity_interval(s, gamma=1.5, engine=mc_engine(seed=3))
        b = ps.sensitivity_interval(s, gamma=1.5, engine=mc_engine(seed=3))
        assert a == b

    def test_confidence_validation(self):
        s = ps.PairedSample([1.0, 2.0])
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ps.sensitivity_interval(s, gamma=1.0, confidence=bad)


class TestDesignSensitivity:
    def test_folded_normal_quadrature(self):
        # favorable setting: mean 1/2, variance 1/2, tested against 0
        sigma = math.sqrt(0.5)
        pdf = stats.norm(loc=0.5, scale=sigma).pdf
        abs_moment = (
            integrate.quad(lambda x: -x * pdf(x), -np.inf, 0.0)[0]
            + integrate.quad(lambda x: x * pdf(x), 0.0, np.inf)[0]
        )
        assert_allclose(abs_moment, 0.69964, atol=5e-5)
        res = ps.design_sensitivity(tau=0.0, mean=0.5, abs_moment=abs_moment)
        assert_allclose(res.gamma_tilde, (abs_moment + 0.5) / (abs_moment - 0.5),
                        rtol=1e-14)
        assert abs(res.gamma_tilde - 6.0) < 0.01

    def test_equal_mean_and_tau_gives_exactly_one(self):
        res = ps.design_sensitivity(tau=0.5, mean=0.5, abs_moment=0.71)
        assert res.gamma_tilde == 1.0

    def test_infinite_when_abs_moment_too_small(self):
        res = ps.design_sensitivity(tau=0.0, mean=1.0, abs_moment=1.0)
        assert math.isinf(res.gamma_tilde)
        assert res.note is not None

    def test_zero_abs_moment_is_error(self):
        with pytest.raises(ValueError):
            ps.design_sensitivity(tau=0.0, mean=0.0, abs_moment=0.0)

    def test_scale_invariance(self):
        # rescaling Y - tau by c > 0 scales both moments and cancels
        base = ps.design_sensitivity(tau=0.0, mean=0.4, abs_moment=0.9)
        scaled = ps.design_sensitivity(tau=0.0, mean=0.4 * 3.5, abs_moment=0.9 * 3.5)
        assert_allclose(base.gamma_tilde, scaled.gamma_tilde, rtol=1e-14)

    def test_plugin_estimate_from_sample(self):
        rng = np.random.default_rng(79)
        y = rng.normal(loc=0.5, scale=math.sqrt(0.5), size=100_000)
        s = ps.PairedSample(y)
        res = ps.design_sensitivity(tau=0.0, sample=s)
        assert res.source == "estimated"
        assert_allclose(res.mean, y.mean(), rtol=1e-12)
        assert_allclose(res.abs_moment, np.abs(y).mean(), rtol=1e-12)
        assert abs(res.gamma_tilde - 6.0) < 0.15  # sampling error only

    def test_requires_exactly_one_input_style(self):
        s = ps.PairedSample([1.0, 2.0])
        with pytest.raises(ValueError):
            ps.design_sensitivity(tau=0.0, mean=0.5, sample=s)
        with pytest.raises(ValueError):
            ps.design_sensitivity(tau=0.0, mean=0.5)
