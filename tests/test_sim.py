import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr, ndtri

import pairsens as ps
from pairsens import testing
from pairsens.rng import as_generator, as_seed_sequence


class TestScenarios:
    def test_counterexample_structure(self):
        alloc = ps.scenario_counterexample(4)
        assert_array_equal(alloc.delta, [5.0, 5.0, 0.0, 0.0])
        assert_array_equal(alloc.eta, [5.0, 5.0, 20.0, 20.0])
        assert_array_equal(alloc.pi, [0.8] * 4)

    @pytest.mark.parametrize("n", [4, 10, 100])
    def test_counterexample_average_effect(self, n):
        assert ps.scenario_counterexample(n).sate == 2.5

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_counterexample_needs_even_pairs(self, n):
        with pytest.raises(ValueError):
            ps.scenario_counterexample(n)

    def test_counterexample_min_gamma_is_four(self):
        alloc = ps.scenario_counterexample(10)
        assert_allclose(alloc.min_gamma(), 4.0, rtol=1e-14)
        theta_4 = ps.SensitivityParam(4.0).theta
        assert np.all(alloc.pi <= theta_4 + 1e-15)
        theta_just_below = ps.SensitivityParam(3.999).theta
        assert np.any(alloc.pi > theta_just_below)

    def test_favorable_normal_defaults(self):
        sampler = ps.scenario_favorable_normal(50)
        assert (sampler.mean, sampler.var) == (0.5, 0.5)

    def test_get_scenario(self):
        assert isinstance(ps.get_scenario("counterexample", 4), ps.Allocation)
        assert isinstance(ps.get_scenario("favorable_normal", 4), ps.NormalSampler)
        with pytest.raises(ValueError):
            ps.get_scenario("nope", 4)


class TestGeneratePairedSample:
    def test_zero_eta_is_deterministic(self):
        alloc = ps.Allocation(delta=[1.0, 2.0, 3.0], eta=[0.0] * 3, pi=[0.5] * 3)
        s = ps.generate_paired_sample(alloc, seed=1)
        assert_array_equal(s.y, [1.0, 2.0, 3.0])

    def test_pi_one_is_deterministic(self):
        alloc = ps.Allocation(delta=[1.0, 2.0], eta=[0.5, 0.5], pi=[1.0, 1.0])
        s = ps.generate_paired_sample(alloc, seed=2)
        assert_array_equal(s.y, [1.5, 2.5])
        assert math.isinf(alloc.min_gamma())

    def test_seed_reproducibility(self):
        sampler = ps.scenario_favorable_normal(100)
        a = ps.generate_paired_sample(sampler, seed=42)
        b = ps.generate_paired_sample(sampler, seed=42)
        c = ps.generate_paired_sample(sampler, seed=43)
        assert_array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_counterexample_mean_converges(self):
        # E(Y) = mean(delta + (2 pi - 1) eta) = 2.5 + 0.6 * 12.5 = 10
        n = 10_000
        alloc = ps.scenario_counterexample(n)
        s = ps.generate_paired_sample(alloc, seed=5)
        var_y = np.mean(4 * alloc.pi * (1 - alloc.pi) * alloc.eta**2)
        se = math.sqrt(var_y / n)
        assert abs(s.y.mean() - 10.0) <= 4 * se

    def test_favorable_lln(self):
        sampler = ps.scenario_favorable_normal(100_000)
        y = ps.generate_paired_sample(sampler, seed=6).y
        assert abs(y.mean() - 0.5) <= 4 * math.sqrt(0.5 / y.size)
        # variance of the sample variance for a normal is 2 sigma^4 / (n-1)
        assert abs(y.var(ddof=1) - 0.5) <= 4 * math.sqrt(2 * 0.25 / (y.size - 1))

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            ps.Allocation(delta=[1.0], eta=[1.0, 2.0], pi=[0.5])
        with pytest.raises(ValueError):
            ps.Allocation(delta=[1.0], eta=[1.0], pi=[1.5])


class TestLoadAllocation(object):
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("delta,eta,pi\n5,5,0.8\n0,20,0.8\n")
        alloc = ps.load_allocation(path)
        assert_array_equal(alloc.delta, [5.0, 0.0])
        assert_array_equal(alloc.eta, [5.0, 20.0])
        assert_array_equal(alloc.pi, [0.8, 0.8])

    def test_requires_header(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("5,5,0.8\n")
        with pytest.raises(ValueError):
            ps.load_allocation(path)

    def test_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("delta,eta,pi\n5,oops,0.8\n")
        with pytest.raises(ValueError):
            ps.load_allocation(path)


class TestOracleMoments:
    def test_matches_simulation(self):
        # Monte Carlo moments of the mean statistics against the exact algebra
        n = 10
        alloc = ps.scenario_counterexample(n)
        tau, gamma = 2.5, 4.0
        om = ps.oracle_moments(alloc, tau, gamma)
        sens = ps.SensitivityParam(gamma)
        reps = 100_000
        rng = np.random.default_rng(123)
        v = np.where(rng.random((reps, n)) < alloc.pi, 1.0, -1.0)
        y = alloc.delta + v * alloc.eta
        resid = y - tau
        dbar = (resid - sens.sign_bias * np.abs(resid)).mean(axis=1)
        signs = np.where(rng.random((reps, n)) < sens.theta, 1.0, -1.0)
        mag = np.abs(resid)
        abar = (signs * mag - sens.sign_bias * mag).mean(axis=1)
        for draws, mean_true, var_true in (
            (dbar, om.mean_dbar, om.var_dbar),
            (abar, om.mean_abar, om.var_abar),
        ):
            se_mean = draws.std(ddof=1) / math.sqrt(reps)
            assert abs(draws.mean() - mean_true) <= 4 * se_mean
            sq_dev = (draws - draws.mean()) ** 2
            se_var = sq_dev.std(ddof=1) / math.sqrt(reps)
            assert abs(draws.var(ddof=1) - var_true) <= 4 * se_var

    def test_e_s2d_matches_simulated_variance_estimator(self):
        n = 10
        alloc = ps.scenario_counterexample(n)
        om = ps.oracle_moments(alloc, 0.0, 4.0)
        sens = ps.SensitivityParam(4.0)
        reps = 100_000
        rng = np.random.default_rng(321)
        v = np.where(rng.random((reps, n)) < alloc.pi, 1.0, -1.0)
        y = alloc.delta + v * alloc.eta
        resid = y - 0.0
        d = resid - sens.sign_bias * np.abs(resid)
        s2 = d.var(axis=1, ddof=1) / n
        se = s2.std(ddof=1) / math.sqrt(reps)
        assert abs(s2.mean() - om.e_s2_d) <= 4 * se

    def test_needs_two_pairs(self):
        alloc = ps.Allocation(delta=[1.0], eta=[1.0], pi=[0.5])
        with pytest.raises(ValueError):
            ps.oracle_moments(alloc, 0.0, 2.0)


class TestStochasticDominance:
    def test_sharpness_configuration_distributions_agree(self):
        # with pi = theta and eta >= 0 the observed and dominating means are
        # equal in distribution
        rng = np.random.default_rng(55)
        n, reps = 15, 20_000
        gamma = 3.0
        sens = ps.SensitivityParam(gamma)
        delta = rng.uniform(-2, 2, n)
        eta = rng.uniform(0, 3, n)
        tau = 0.3
        dbar = _draw_dbar_mean(rng, delta, eta, np.full(n, sens.theta), tau, sens, reps)
        ubar = _draw_ubar_mean(rng, delta, eta, tau, sens, reps)
        bound = 3 * math.sqrt(math.log(2 / 0.001) * (1 / reps + 1 / reps) / 2)
        assert _ecdf_sup_diff(dbar, ubar) <= bound

    def test_dominance_direction_under_minimal_pi(self):
        # with pi at the lower envelope the observed mean is stochastically
        # smaller, so its CDF sits above the dominating one
        rng = np.random.default_rng(56)
        n, reps = 15, 20_000
        sens = ps.SensitivityParam(3.0)
        delta = rng.uniform(-2, 2, n)
        eta = rng.uniform(0, 3, n)
        tau = 0.3
        dbar = _draw_dbar_mean(
            rng, delta, eta, np.full(n, 1 - sens.theta), tau, sens, reps
        )
        ubar = _draw_ubar_mean(rng, delta, eta, tau, sens, reps)
        grid = np.quantile(np.concatenate([dbar, ubar]), np.linspace(0.02, 0.98, 25))
        ecdf_d = np.searchsorted(np.sort(dbar), grid, side="right") / reps
        ecdf_u = np.searchsorted(np.sort(ubar), grid, side="right") / reps
        slack = 3 * math.sqrt(0.25 * 2 / reps)
        assert np.all(ecdf_d >= ecdf_u - slack)


def _draw_dbar_mean(rng, delta, eta, pi, tau, sens, reps):
    v = np.where(rng.random((reps, delta.size)) < pi, 1.0, -1.0)
    resid = delta + v * eta - tau
    return (resid - sens.sign_bias * np.abs(resid)).mean(axis=1)


def _draw_ubar_mean(rng, delta, eta, tau, sens, reps):
    sv = np.where(rng.random((reps, delta.size)) < sens.theta, 1.0, -1.0)
    shift = delta - tau
    plus = shift + np.abs(eta)
    minus = shift - np.abs(eta)
    u = np.where(
        sv > 0,
        plus - sens.sign_bias * np.abs(plus),
        minus - sens.sign_bias * np.abs(minus),
    )
    return u.mean(axis=1)


def _ecdf_sup_diff(a, b):
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return np.max(np.abs(fa - fb))


class TestEstimateSizePower:
    def test_alpha_zero_never_rejects(self):
        res = ps.estimate_size_power(
            "counterexample", "perm_t", tau=2.5, alpha=0.0, gamma=4.0,
            n_pairs=10, replications=50, seed=1,
        )
        assert res.rejection_rate == 0.0
        assert res.mc_se == 0.0

    def test_determinism(self):
        kwargs = dict(tau=2.5, alpha=0.05, gamma=4.0, n_pairs=10,
                      replications=200, seed=7,
                      engine=ps.EnumSpec(mode="monte_carlo", draws=500))
        a = ps.estimate_size_power("counterexample", "studentized", **kwargs)
        b = ps.estimate_size_power("counterexample", "studentized", **kwargs)
        assert a == b

    def test_mc_se_formula(self):
        res = ps.estimate_size_power(
            "counterexample", "neyman", tau=2.5, alpha=0.05, gamma=4.0,
            n_pairs=10, replications=400, seed=3,
        )
        rate = res.rejection_rate
        assert_allclose(res.mc_se, math.sqrt(rate * (1 - rate) / 400), rtol=1e-12)

    def test_multi_matches_single_and_direct_test_calls(self):
        # the shared-draw kernel must agree with looping the public test
        # functions over the same substreams
        methods = ("perm_t", "neyman", "studentized", "combined")
        tau, alpha, gamma, reps, seed = 2.5, 0.1, 2.0, 60, 11
        inputs = [
            (ps.scenario_counterexample(8), ps.EnumSpec(mode="monte_carlo", draws=400)),
            (ps.scenario_counterexample(8), ps.EnumSpec(mode="exact")),
            # every replication is degenerate for every method
            (ps.Allocation(delta=np.full(8, tau), eta=np.zeros(8), pi=np.full(8, 0.8)),
             ps.EnumSpec(mode="exact")),
        ]
        sens = ps.SensitivityParam(gamma)
        for alloc, engine in inputs:
            multi = ps.estimate_size_power_multi(
                alloc, methods, tau, alpha, gamma,
                replications=reps, seed=seed, engine=engine,
            )
            single = [
                ps.estimate_size_power(alloc, m, tau, alpha, gamma,
                                       replications=reps, seed=seed, engine=engine)
                for m in methods
            ]
            assert [r.rejection_rate for r in multi] == [r.rejection_rate for r in single]

            counts = dict.fromkeys(methods, 0)
            degenerate = dict.fromkeys(methods, 0)
            for child in as_seed_sequence(seed).spawn(reps):
                ss_data, ss_engine = child.spawn(2)
                smp = ps.PairedSample(alloc.draw(as_generator(ss_data)))
                eng = engine.reseeded(ss_engine)
                for method in counts:
                    spec = ps.TestSpec(tau=tau, alpha=alpha, method=method)
                    res = testing.run_test(smp, spec, sens, eng)
                    counts[method] += res.reject
                    degenerate[method] += res.degenerate
            for res in multi:
                assert res.rejection_rate == counts[res.method] / reps
            if not np.any(alloc.eta):
                assert degenerate == dict.fromkeys(methods, reps)

    def test_exactness_under_constant_effects(self):
        # sharp-null configuration: Y = tau + V * eta with P(V = +1) = theta;
        # the exact perm-t test controls size at every sample size
        rng = np.random.default_rng(57)
        n, gamma, alpha, reps = 8, 2.0, 0.05, 2000
        theta = ps.SensitivityParam(gamma).theta
        tau = 1.0
        alloc = ps.Allocation(
            delta=np.full(n, tau), eta=rng.uniform(0.5, 2.0, n), pi=np.full(n, theta)
        )
        res = ps.estimate_size_power(
            alloc, "perm_t", tau=tau, alpha=alpha, gamma=gamma,
            replications=reps, seed=13, engine=ps.EnumSpec(mode="exact", exact_cap=10),
        )
        assert res.rejection_rate <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)

    def test_repeated_method_reported_once_per_entry(self):
        common = dict(tau=2.5, alpha=0.05, gamma=1.0, n_pairs=10, replications=30,
                      engine=ps.EnumSpec(mode="monte_carlo", draws=200))
        multi = ps.estimate_size_power_multi(
            "counterexample", ["perm_t", "neyman", "perm_t"], **common)
        single = ps.estimate_size_power("counterexample", "perm_t", **common)
        assert single.rejection_rate > 0.5
        assert multi[0] == multi[2] == single

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ps.estimate_size_power("counterexample", "wilcoxon", 0.0, 0.05, 1.0,
                                   n_pairs=4, replications=5)


class TestLemmaChecks:
    def test_full_grid_passes(self):
        grid = ps.make_lemma_grid(n_groups=400, group_size=5, seed=0)
        report = ps.oracle_lemma_checks(grid)
        assert report.passed, report.violations
        assert report.n_tuples == 2000

    def test_gamma_one_expectation_bound_is_tight(self):
        # at gamma 1 the expectation bound holds with equality
        grid = ps.LemmaGrid(
            delta=np.array([[1.0, -2.0, 0.5]]),
            eta=np.array([[0.3, 1.1, -0.7]]),
            pi=np.array([[0.5, 0.5, 0.5]]),
            tau=np.array([0.2]),
            gamma=np.array([1.0]),
            epsilon=np.array([0.5]),
        )
        report = ps.oracle_lemma_checks(grid)
        assert report.passed
        assert abs(report.max_excess["expectation_bound_pair"]) < 1e-12

    def test_zero_eta_collapses_variance_bounds(self):
        grid = ps.LemmaGrid(
            delta=np.array([[1.0, -2.0]]),
            eta=np.array([[0.0, 0.0]]),
            pi=np.array([[0.6, 0.4]]),
            tau=np.array([0.0]),
            gamma=np.array([2.0]),
            epsilon=np.array([0.3]),
        )
        report = ps.oracle_lemma_checks(grid)
        assert report.passed
        assert report.max_excess["u_variance_lower"] <= 0.0
        assert report.max_excess["u_variance_upper"] <= 0.0


class TestSizeAtGammaOne:
    def test_randomization_tests_hold_level_in_experiment(self):
        # true null (tested value equals the sampler mean) with no hidden
        # bias: both randomization tests sit at the nominal level while the
        # large-sample test runs slightly hot in small samples
        reps = 2000
        engine = ps.EnumSpec(draws=2000)
        results = ps.estimate_size_power_multi(
            ps.scenario_favorable_normal(30), ["perm_t", "studentized", "neyman"],
            tau=0.5, alpha=0.05, gamma=1.0, replications=reps, seed=424242,
            engine=engine,
        )
        rates = {r.method: r.rejection_rate for r in results}
        band = 3 * math.sqrt(0.05 * 0.95 / reps)
        assert abs(rates["perm_t"] - 0.05) <= band
        assert abs(rates["studentized"] - 0.05) <= band
        assert abs(rates["neyman"] - 0.055) <= band

    def test_combined_rate_bounded_by_constituents(self):
        results = ps.estimate_size_power_multi(
            "counterexample", ["perm_t", "studentized", "combined"],
            tau=2.5, alpha=0.05, gamma=4.0, n_pairs=12, replications=400,
            seed=5, engine=ps.EnumSpec(mode="monte_carlo", draws=800),
        )
        rates = {r.method: r.rejection_rate for r in results}
        assert rates["combined"] <= min(rates["perm_t"], rates["studentized"])


class TestDesignSensitivityPowerTrend:
    def test_power_steps_around_design_sensitivity(self):
        # the favorable scenario has design sensitivity 6: power at gamma 5
        # climbs toward 1 and power at gamma 7 falls toward 0 as I grows
        engine = ps.EnumSpec(draws=600)
        reps = 300
        slack = 2 * math.sqrt(0.25 / reps)

        def powers(gamma):
            return [
                ps.estimate_size_power(
                    "favorable_normal", "studentized", tau=0.0, alpha=0.05,
                    gamma=gamma, n_pairs=n, replications=reps, seed=271828,
                    engine=engine,
                ).rejection_rate
                for n in (50, 100, 500, 5000)
            ]

        below = powers(5.0)
        above = powers(7.0)
        assert all(b >= a - slack for a, b in zip(below, below[1:]))
        assert below[-1] > 0.9
        assert all(b <= a + slack for a, b in zip(above, above[1:]))
        assert above[-1] < 0.05


class TestInflatedBoundThresholds:
    def test_threshold_sequence_diverges(self):
        # testing at a slightly inflated bound: the normal-approximation
        # rejection threshold grows like sqrt(I), so the implied rejection
        # probability dives below any level at a computable sample size
        alloc = ps.scenario_counterexample(100)
        om = ps.oracle_moments(alloc, 2.5, 4.01)
        z95 = ndtri(0.95)

        def threshold(n):
            num = -om.mean_dbar * math.sqrt(n) + math.sqrt(
                om.n_pairs * om.var_abar
            ) * z95
            return num / math.sqrt(om.n_pairs * om.var_dbar)

        sizes = [10**k for k in range(2, 9)]
        ts = [threshold(n) for n in sizes]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert 1.0 - ndtr(threshold(5_000_000)) < 0.001
