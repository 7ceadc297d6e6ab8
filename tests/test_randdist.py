import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import pairsens as ps
from helpers import enumerate_exact_concat, ks_distance, mc_quantile_consistent
from pairsens import cli, randdist


def exact_engine(cap=20):
    return ps.EnumSpec(mode="exact", exact_cap=cap)


def mc_engine(draws, seed=0):
    return ps.EnumSpec(mode="monte_carlo", draws=draws, seed=seed)


class TestBuildFHat:
    def test_single_pair_fair(self):
        f = ps.build_f_hat(ps.PairedSample([2.0]), 0.0, ps.SensitivityParam(1.0))
        assert_array_equal(f.values, [-2.0, 2.0])
        assert_array_equal(f.weights, [0.5, 0.5])
        assert f.mode == "exact"
        assert f.n_draws == 2

    def test_single_pair_biased(self):
        f = ps.build_f_hat(ps.PairedSample([2.0]), 0.0, ps.SensitivityParam(4.0))
        assert_allclose(f.values, [-3.2, 0.8], atol=1e-12)
        assert_allclose(f.weights, [0.2, 0.8], atol=1e-12)

    def test_two_equal_pairs_merge_duplicates(self):
        f = ps.build_f_hat(ps.PairedSample([1.0, 1.0]), 0.0, ps.SensitivityParam(1.0))
        assert_array_equal(f.values, [-1.0, 0.0, 1.0])
        assert_array_equal(f.weights, [0.25, 0.5, 0.25])

    def test_uniform_weights_at_gamma_one(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=8)
        f = ps.build_f_hat(ps.PairedSample(y), 0.1, ps.SensitivityParam(1.0))
        assert f.n_atoms == 2**8
        assert_allclose(f.weights, np.full(2**8, 2.0**-8), rtol=0, atol=1e-18)

    def test_mean_zero_and_variance_identity(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=10)
        tau = 0.3
        for gamma in (1.0, 2.5, 6.0):
            sens = ps.SensitivityParam(gamma)
            f = ps.build_f_hat(ps.PairedSample(y), tau, sens)
            assert abs(f.mean()) < 1e-10
            m2 = np.mean((y - tau) ** 2)
            expected = 4 * sens.theta * (1 - sens.theta) * m2
            assert_allclose(f.variance() * y.size, expected, rtol=0, atol=1e-10)

    def test_zero_magnitude_pairs_contribute_constant(self):
        # a pair sitting exactly at tau must not change the distribution shape
        f_with = ps.build_f_hat(
            ps.PairedSample([1.0, 0.5, 0.5]), 0.5, ps.SensitivityParam(2.0)
        )
        f_without = ps.build_f_hat(ps.PairedSample([1.0]), 0.5, ps.SensitivityParam(2.0))
        assert_allclose(f_with.values * 3, f_without.values * 1, atol=1e-12)
        assert_allclose(f_with.weights, f_without.weights, atol=1e-12)


class TestBuildGHat:
    def test_point_mass_when_all_at_tau(self):
        g = ps.build_g_hat(ps.PairedSample([1.5, 1.5, 1.5]), 1.5, ps.SensitivityParam(3.0))
        assert_array_equal(g.values, [0.0])
        assert_array_equal(g.weights, [1.0])

    def test_degenerate_rule_two_pairs(self):
        g = ps.build_g_hat(ps.PairedSample([1.0, 1.0]), 0.0, ps.SensitivityParam(1.0))
        assert_array_equal(g.values, [-np.inf, 0.0, np.inf])
        assert_array_equal(g.weights, [0.25, 0.5, 0.25])

    def test_exact_is_oracle_for_mc_quantiles(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=8)
        tau = -0.2
        sens = ps.SensitivityParam(2.0)
        s = ps.PairedSample(y)
        g_exact = ps.build_g_hat(s, tau, sens, exact_engine())
        g_mc = ps.build_g_hat(s, tau, sens, mc_engine(100_000, seed=77))
        assert mc_quantile_consistent(g_exact, g_mc, 0.95)

    def test_studentization_recomputed_per_draw(self):
        # y = [1, 2] at gamma 1: the four assignments give means
        # {1.5, -0.5, 0.5, -1.5} with per-draw standard errors {0.5, 1.5,
        # 1.5, 0.5}, so the studentized atoms are {3, -1/3, 1/3, -3}; a
        # fixed denominator would have produced a rescaling of the means
        g = ps.build_g_hat(ps.PairedSample([1.0, 2.0]), 0.0, ps.SensitivityParam(1.0))
        assert_allclose(g.values, [-3.0, -1 / 3, 1 / 3, 3.0], atol=1e-12)
        assert_allclose(g.weights, [0.25] * 4, atol=1e-15)


class TestQuantileAndTail:
    def test_quantile_examples(self):
        d = ps.ReferenceDistribution(
            values=np.array([-1.0, 0.0, 1.0]),
            weights=np.array([1 / 3, 1 / 3, 1 / 3]),
            mode="exact",
            statistic_kind="mean",
            n_draws=8,
        )
        assert d.quantile(0.5) == 0.0
        assert d.quantile(1 / 3) == -1.0  # boundary: p equal to smallest weight
        assert d.quantile(0.999) == 1.0

    def test_quantile_biased_example(self):
        d = ps.ReferenceDistribution(
            values=np.array([-3.2, 0.8]),
            weights=np.array([0.2, 0.8]),
            mode="exact",
            statistic_kind="mean",
            n_draws=2,
        )
        assert d.quantile(0.95) == 0.8
        assert d.quantile(0.2) == -3.2
        assert d.quantile(0.1) == -3.2

    def test_tail_prob_examples(self):
        d = ps.ReferenceDistribution(
            values=np.array([-3.2, 0.8]),
            weights=np.array([0.2, 0.8]),
            mode="exact",
            statistic_kind="mean",
            n_draws=2,
        )
        assert_allclose(d.tail_prob(0.0), 0.8)
        assert d.tail_prob(-10.0) == 1.0
        assert d.tail_prob(10.0) == 0.0
        assert_allclose(d.tail_prob(0.8), 0.8)  # atoms >= t includes the atom at t

    def test_quantile_requires_open_interval(self):
        d = ps.ReferenceDistribution(
            values=np.array([0.0]),
            weights=np.array([1.0]),
            mode="exact",
            statistic_kind="mean",
            n_draws=1,
        )
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                d.quantile(p)

    def test_cdf_and_tail_are_complementary(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=7)
        f = ps.build_f_hat(ps.PairedSample(y), 0.0, ps.SensitivityParam(2.0))
        for t in np.linspace(f.values[0] - 0.1, f.values[-1] + 0.1, 33):
            below = f.cdf(t)
            strictly_below = 1.0 - f.tail_prob(t)
            assert strictly_below <= below + 1e-12
            assert_allclose(below - strictly_below, f.weights[f.values == t].sum(),
                            atol=1e-12)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ps.ReferenceDistribution(
                values=np.array([0.0, 1.0]),
                weights=np.array([0.5, 0.6]),
                mode="exact",
                statistic_kind="mean",
                n_draws=2,
            )

    def test_values_must_be_sorted(self):
        with pytest.raises(ValueError):
            ps.ReferenceDistribution(
                values=np.array([1.0, 0.0]),
                weights=np.array([0.5, 0.5]),
                mode="exact",
                statistic_kind="mean",
                n_draws=2,
            )

    def test_exact_refused_above_cap(self):
        y = np.arange(12.0)
        with pytest.raises(ValueError):
            ps.build_f_hat(
                ps.PairedSample(y), 0.0, ps.SensitivityParam(1.0),
                ps.EnumSpec(mode="exact", exact_cap=10),
            )

    def test_bad_engine_mode(self):
        with pytest.raises(ValueError):
            ps.EnumSpec(mode="bootstrap")

    def test_exact_larger_than_memory_fails_fast(self, monkeypatch):
        # 2**22 assignments need far more than the pretended 64 MiB; the
        # check must fire before anything of that size is allocated
        monkeypatch.setattr(randdist, "_physical_memory_bytes", lambda: 64 * 2**20)
        s = ps.PairedSample(np.arange(1.0, 23.0))
        engine = ps.EnumSpec(mode="exact", exact_cap=22)
        with pytest.raises(ValueError, match="exact enumeration of 22 pairs"):
            ps.build_pair(s, 0.0, ps.SensitivityParam(2.0), engine)
        spec = ps.TestSpec(tau=0.0, method="studentized")
        with pytest.raises(ValueError, match="exact enumeration of 22 pairs"):
            ps.testing.rejector(s, spec, engine)(ps.SensitivityParam(2.0))

    def test_exact_larger_than_memory_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(randdist, "_physical_memory_bytes", lambda: 64 * 2**20)
        path = tmp_path / "pairs.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, 23)))
        code = cli.main(["test", "--input", str(path), "--tau", "0", "--gamma", "2",
                         "--exact-below", "22"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: exact enumeration of 22 pairs")


class TestMonteCarloDeterminism:
    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=25)
        s = ps.PairedSample(y)
        sens = ps.SensitivityParam(2.0)
        a = ps.build_f_hat(s, 0.0, sens, mc_engine(5000, seed=9))
        b = ps.build_f_hat(s, 0.0, sens, mc_engine(5000, seed=9))
        assert_array_equal(a.values, b.values)
        assert_array_equal(a.weights, b.weights)
        assert_array_equal(a.counts, b.counts)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(32)
        y = rng.normal(size=25)
        s = ps.PairedSample(y)
        sens = ps.SensitivityParam(2.0)
        a = ps.build_f_hat(s, 0.0, sens, mc_engine(5000, seed=9))
        b = ps.build_f_hat(s, 0.0, sens, mc_engine(5000, seed=10))
        assert not np.array_equal(a.values, b.values)

    def test_mc_counts_sum_to_draws(self):
        rng = np.random.default_rng(33)
        y = rng.normal(size=15)
        f = ps.build_f_hat(
            ps.PairedSample(y), 0.0, ps.SensitivityParam(3.0), mc_engine(4000)
        )
        assert f.counts.sum() == 4000
        assert_allclose(f.weights, f.counts / 4000, rtol=0, atol=1e-15)


class TestExactEnumerationOracle:
    def test_matches_naive_weighted_enumeration(self):
        # independent reconstruction: loop all sign vectors, weight each by
        # theta**k * (1-theta)**(n-k), and compare the full atom lists
        import itertools

        y = np.array([1.25, -0.5, 2.0])
        tau = 0.25
        sens = ps.SensitivityParam(2.0)
        theta = sens.theta
        m = np.abs(y - tau)
        atoms = {}
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            v = np.array(signs)
            val = float(np.mean(v * m - sens.sign_bias * m))
            k = int((v > 0).sum())
            w = theta**k * (1 - theta) ** (3 - k)
            atoms[val] = atoms.get(val, 0.0) + w
        f = ps.build_f_hat(ps.PairedSample(y), tau, sens)
        naive_vals = np.array(sorted(atoms))
        assert_allclose(f.values, naive_vals, atol=1e-12)
        assert_allclose(f.weights, [atoms[v] for v in sorted(atoms)], atol=1e-12)
        assert f.n_draws == 8


class TestEnumerateExactInPlace:
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 17])
    def test_equals_concatenating_oracle(self, n):
        m = np.abs(np.random.default_rng(n).normal(size=n))
        for got, want in zip(randdist._enumerate_exact(m), enumerate_exact_concat(m)):
            assert got.dtype == want.dtype
            assert_array_equal(got, want)


class TestExactVsMonteCarlo:
    def test_ks_distance_bound(self):
        # detection threshold from the DKW inequality at confidence 0.999
        rng = np.random.default_rng(41)
        draws = 100_000
        bound = 3 * np.sqrt(np.log(2 / 0.001) / (2 * draws))
        y = rng.normal(size=10)
        s = ps.PairedSample(y)
        sens = ps.SensitivityParam(2.5)
        f_exact = ps.build_f_hat(s, 0.0, sens, exact_engine())
        f_mc = ps.build_f_hat(s, 0.0, sens, mc_engine(draws, seed=5))
        assert ks_distance(f_exact, f_mc) <= bound
