import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import pairsens as ps
from helpers import (
    draw_monte_carlo_where,
    enumerate_exact_concat,
    ks_distance,
    mc_quantile_consistent,
    statistics_alloc,
)
from pairsens import cli, randdist
from pairsens.rng import as_seed_sequence
from test_decision_band import _unbanded


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


def _enumerate_into(m, k=True):
    # caller-owned arrays full of garbage, so every entry must be written
    s1 = np.full(2**m.size, np.nan)
    s2 = np.full(2**m.size, np.nan)
    counts = np.full(2**m.size, -1, dtype=np.int64) if k else None
    randdist._enumerate_exact(m, s1, s2, counts)
    return s1, s2, counts


class TestEnumerateExactInPlace:
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 17])
    def test_equals_concatenating_oracle(self, n):
        m = np.abs(np.random.default_rng(n).normal(size=n))
        for got, want in zip(_enumerate_into(m), enumerate_exact_concat(m)):
            assert got.dtype == want.dtype
            assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 2, 8, 17])
    def test_reenumeration_into_used_arrays(self, n):
        # a search moves tau and enumerates again over the last sums
        rng = np.random.default_rng(100 + n)
        s1, s2, _ = _enumerate_into(np.abs(rng.normal(size=n)))
        m = np.abs(rng.normal(size=n))
        randdist._enumerate_exact(m, s1, s2)
        want1, want2, _ = enumerate_exact_concat(m)
        assert_array_equal(s1, want1)
        assert_array_equal(s2, want2)


# theta = gamma / (1 + gamma) at gammas 1, 1.5, 7/3, 4, 999, 1000 and 1e9
# (which rounds to 1.0 in float32), and 0.8's float32 value and both its
# neighbours; 0.7 * 2**24 lies nearer the integer below than the one above
_THETAS = (
    0.5, 0.6, 0.7, 0.8, 0.999, 1000 / 1001, 1e9 / (1 + 1e9),
    float(np.float32(0.8)),
    float(np.nextafter(np.float32(0.8), np.float32(0.0))),
    float(np.nextafter(np.float32(0.8), np.float32(1.0))),
)


_SEEDS = (0, 20160907, *np.random.SeedSequence(5).spawn(2))


class _RawWords:
    """Stand-in bit generator whose raw stream is the given 32-bit values."""

    def __init__(self, x):
        self._words = iter(x.view(np.uint64))

    def random_raw(self, k):
        return np.fromiter(self._words, np.uint64, k)


class TestDrawMonteCarloRawBits:
    @pytest.mark.parametrize("block", [None, 1, 7, 2**22])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 257, 999])
    def test_equals_float32_where_oracle(self, n, block, monkeypatch):
        # draws of 1 and 2 give odd and even draws x pairs for odd n; 1001 is
        # a multiple of no block's row count here, and spans several blocks
        # at block sizes 1 and 7, and from 100 pairs at the default size
        if block is not None:
            monkeypatch.setattr(randdist, "_MC_BLOCK_SIGNS", block)
        m = np.abs(np.random.default_rng(n).normal(size=n))
        for theta in _THETAS:
            for seed in _SEEDS:
                for draws in (1, 2, 1001):
                    got = randdist._SignSource(m.size, theta, seed, draws).fill(m)
                    want = draw_monte_carlo_where(m, theta, draws, seed)
                    for g, w in zip(got, want):
                        assert_array_equal(g, w)

    def test_theta_rounding_to_one_draws_only_plus(self):
        m = np.array([1.0, 2.0, 4.0])
        assert randdist._sign_cut(1e9 / (1 + 1e9)) == 2**32
        s1, s2 = randdist._SignSource(m.size, 1e9 / (1 + 1e9), 0, 5).fill(m)
        assert_array_equal(s1, np.full(5, 7.0))
        assert_array_equal(s2, np.full(5, 21.0))

    @pytest.mark.parametrize("k", [1, 2, 1001, 65537])
    def test_numpy_float32_uniforms_are_raw_bits(self, k):
        # guards the stream the raw-bit draw relies on: if numpy changes how
        # a float32 uniform is made from Philox output, this fails
        for seed in _SEEDS:
            ss = as_seed_sequence(seed)
            u = np.random.Generator(np.random.Philox(ss)).random(k, dtype=np.float32)
            x = np.random.Philox(ss).random_raw((k + 1) // 2).view(np.uint32)[:k]
            assert_array_equal(u, (x >> 8).astype(np.float32) * np.float32(2.0**-24))
            for theta in _THETAS:
                cut = randdist._sign_cut(theta)
                assert_array_equal(u < theta, x < cut if cut < 2**32 else True)

    def test_signs_split_at_theta(self, monkeypatch):
        # u < theta is monotone in the raw value, so signs right at the lowest
        # and highest raw value of the 24-bit uniforms either side of the cut
        # are right at every raw value; a stand-in bit generator feeds
        # exactly those values to a one-pair draw
        for theta in _THETAS:
            j = (randdist._sign_cut(theta) >> 8) + np.arange(-2, 2)
            j = j[j < 2**24]
            x = np.concatenate([j << 8, (j << 8) + 255]).astype(np.uint32)
            monkeypatch.setattr(np.random, "Philox", lambda seed, x=x: _RawWords(x))
            s1, _ = randdist._SignSource(1, theta, 0, x.size).fill(np.array([1.0]))
            u = (x >> 8).astype(np.float32) * np.float32(2.0**-24)
            assert_array_equal(s1 > 0, u < theta)


def _earlier_rows(n):
    """Rows of a product block of 2**21 signs, the earlier block rule."""
    gen = randdist._generation_rows(n)
    return -(-(1 << 21) // (n * gen)) * gen


class TestBlockedProduct:
    """The blocked Monte Carlo sums against the whole matrix's one product,
    bit for bit.  Guards ``_MC_PRODUCT_SIGNS`` and ``_MC_PRODUCT_ROWS``: a
    product block under the BLAS small-matrix cutoff, or of too few rows at
    two BLAS threads, would change the last bits."""

    def test_block_rule(self):
        # every block but a lone one has at least these rows: over
        # OpenBLAS's cutoff (M*N*K <= 10**6 goes to its small-matrix kernel),
        # at least 32 or the earlier rule's rows, never more than those, and
        # one generation block fewer would miss one of the first two
        for n in range(1, 10**6 + 1):
            rows, gen, earlier = (randdist._product_rows(n), randdist._generation_rows(n),
                                  _earlier_rows(n))
            floor = min(32, earlier)
            assert rows % gen == 0 and rows * 2 * n > 10**6 and floor <= rows <= earlier
            assert (rows - gen) * n < 1 << 19 or rows - gen < floor

    @pytest.mark.parametrize("n", [600, 1001, 2500, 5000, 20_000, 70_000])
    def test_equals_whole_product(self, n, monkeypatch):
        # 20,000 pairs take the 32-row floor, 70,000 the cap at 2**21 signs'
        # rows; both with under 100 draws
        rows = randdist._product_rows(n)
        gen = randdist._generation_rows(n)
        sample = ps.PairedSample(np.abs(np.random.default_rng(n).normal(size=n)))
        m = sample.y
        coef = np.column_stack([m, m * m])
        products, made = [], []
        matmul = np.matmul

        def counting(a, b, **kwargs):
            out = matmul(a, b, **kwargs)
            # a replication's products of single generation blocks with m
            # only bound its sums, and are not counted here
            if b.ndim == 2:
                products.append(a.shape[0])
                made.append(out.copy())
            return out

        # two blocks, one row short of two, three and a row, and a remainder
        # of one generation block
        for draws in (2 * rows, 2 * rows - 1, 3 * rows + 1, 2 * rows + gen):
            # one product under two blocks; else one a block, the last block
            # also taking the remainder
            q = max(1, draws // rows)
            blocks = [rows] * (q - 1) + [draws - (q - 1) * rows]
            for sens in (ps.SensitivityParam(7 / 3), ps.SensitivityParam(1e9)):
                signs = randdist._SignSource(n, sens.theta, 5, draws, keep=True).rows(0, draws)
                want = signs @ coef
                with monkeypatch.context() as patch:
                    patch.setattr(np, "matmul", counting)
                    got = randdist._SignSource(n, sens.theta, 5, draws).fill(m)
                    assert products == blocks
                    products.clear()
                    # a search's kept matrix: the same products
                    kept = randdist._signed_sums(m, draws, lambda a, b: signs[a:b])
                    assert products == blocks
                    products.clear()
                    # a replication that counts every draw on the same products
                    made.clear()
                    drawn = randdist.SignDraws(sample, 0.0, mc_engine(draws, seed=5),
                                               single_use=True, studentized=False)
                    t = float(np.median(got[0]) - sens.sign_bias * m.sum()) / n
                    weight = drawn.weights_at_most(sens, {"mean": t})["mean"]
                    assert products == blocks
                    products.clear()
                for g, k, w in zip(got, kept, want.T):
                    assert_array_equal(g, w)
                    assert_array_equal(k, w)
                assert_array_equal(np.concatenate(made), want)
                abar = (want[:, 0] - sens.sign_bias * m.sum()) / n
                assert weight == np.count_nonzero(abar <= t) / draws

    def test_search_and_build_make_the_same_products(self, monkeypatch):
        # a search's blocks of its kept matrix and a build's streamed rows go
        # through the same BLAS calls, so a search decides on the sums
        # run_test sees
        n = 1001
        draws = 3 * randdist._product_rows(n) + 1
        sample = ps.PairedSample(np.random.default_rng(3).normal(size=n))
        sens = ps.SensitivityParam(1.7)
        products, made = [], []
        matmul = np.matmul

        def counting(a, b, **kwargs):
            out = matmul(a, b, **kwargs)
            # the products of single generation blocks with m only bound the
            # sums, and are not counted here
            if b.ndim == 2:
                products.append(a.shape[0])
                made.append(out.copy())
            return out

        monkeypatch.setattr(np, "matmul", counting)
        drawn = randdist.SignDraws(sample, 0.1, mc_engine(draws, seed=4))
        # no band: every block is counted
        drawn.weights_at_most(sens, {"mean": 0.0, "studentized": 0.0})
        kept = np.concatenate(made)
        products.append(None)
        streamed = randdist._SignSource(n, sens.theta, 4, draws).fill(drawn.m)
        rows = randdist._product_rows(n)
        assert products == [rows, rows, rows + 1, None, rows, rows, rows + 1]
        for k, s in zip(kept.T, streamed):
            assert_array_equal(k, s)

    def test_equals_float32_where_oracle(self):
        n = 1001
        draws = 3 * randdist._product_rows(n) + 1
        m = np.abs(np.random.default_rng(n).normal(size=n))
        got = randdist._SignSource(n, 0.7, 8, draws).fill(m)
        want = draw_monte_carlo_where(m, 0.7, draws, 8)
        for g, w in zip(got, want):
            assert_array_equal(g, w)

    @pytest.mark.parametrize("single_use", ["build", "replication", "replication-every-draw"])
    @pytest.mark.parametrize("n, draws", [(2000, 6000), (5000, 10_000), (25, 10**6)])
    def test_holds_blocks_not_the_matrix(self, single_use, n, draws, monkeypatch):
        # the whole sign matrix of 6000 draws x 2000 pairs is 96 MB, and the
        # product block is most of the figure; at 25 pairs x 10**6 draws the
        # per-draw bytes are, with nearly all values distinct.  A replication
        # with the band dropped makes every draw and counts every product
        # block: the most it holds.  At 5000 pairs x 10,000 draws the
        # largest block is 172 rows, 6.9 MB (760 rows, 30.4 MB, in blocks of
        # 2**21 signs)
        if n == 5000:
            assert randdist._SignSource(n, 0.5, 0, draws).signs.nbytes == 8 * 172 * n
        s = ps.PairedSample(np.random.default_rng(54).normal(loc=0.3, size=n))
        sens, engine = ps.SensitivityParam(2.0), mc_engine(draws)
        spec = ps.TestSpec(tau=0.0, method="combined")
        if single_use == "replication-every-draw":
            _unbanded(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if single_use == "build":
                ps.build_pair(s, 0.0, sens, engine)
            else:
                ps.testing.rejections(s, spec, sens, engine, ["combined", "perm_t"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block = randdist._MC_BYTES_PER_SIGN * randdist._MC_PRODUCT_SIGNS
        assert peak < 3 * block + 200 * draws
        # within the figure the budget checks
        per_draw = (randdist._BUILD_BYTES_PER_DRAW if single_use == "build"
                    else randdist._MC_BYTES_PER_DRAW)
        assert peak <= randdist._draw_set_bytes(n, draws, per_draw)


_THREAD_CHECK = """
import numpy as np
from pairsens import randdist

n, rows = {n}, {rows}
m = np.abs(np.random.default_rng(n).normal(size=n))
coef = np.column_stack([m, m * m])
draws = 2 * rows + randdist._product_rows(n) + 1
signs = randdist._SignSource(n, 0.7, 5, draws, keep=True).rows(0, draws)
want = np.empty((draws, 2))
last = (draws // rows - 1) * rows
for start in range(0, last, rows):
    np.matmul(signs[start : start + rows], coef, out=want[start : start + rows])
np.matmul(signs[last:], coef, out=want[last:])
for got in (randdist._SignSource(n, 0.7, 5, draws).fill(m),
            randdist._signed_sums(m, draws, lambda a, b: signs[a:b])):
    assert np.array_equal(got[0], want[:, 0]) and np.array_equal(got[1], want[:, 1])
"""


class TestProductThreads:
    """A build's and a kept matrix's sums against the products over blocks
    of 2**21 signs, the earlier block rule, bit for bit at one and two BLAS
    threads: at two, plain blocks of 2**19 signs, 16 rows at 33,000 pairs,
    round differently.  Each runs in a fresh interpreter, as the BLAS reads
    its thread count when numpy is imported."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n", [5000, 33_000, 70_000])
    def test_equals_earlier_blocks(self, n, threads):
        src = str(Path(randdist.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        script = _THREAD_CHECK.format(n=n, rows=_earlier_rows(n))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


def _garbage_buffers(size):
    out = randdist._StatBuffers.empty(size)
    for arr in out:
        arr.fill(np.nan if arr.dtype == float else True)
    return out


class TestObservedSquaresBound:
    # sum(|y - tau|**2) is finite here, about 1.2e308, but not (1 + |c|)**2
    # times it, the bound on every draw's sum of squares, once c > 0.23
    Y = 4.1e153 * (1 + 1e-3 * np.array([1, -1, 2, 3, -2, 1.5, 2.5]))

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
    def test_studentized_refused_where_the_bound_overflows(self, gamma):
        sample, sens = ps.PairedSample(self.Y), ps.SensitivityParam(gamma)
        c = sens.sign_bias
        assert np.isfinite(np.sum(self.Y**2))
        with np.errstate(over="ignore"):
            overflows = not np.isfinite((1 + abs(c)) ** 2 * np.sum(self.Y**2))
        assert overflows == (gamma > 1.5)
        if overflows:
            with pytest.raises(ValueError, match="rescale the differences"):
                randdist.observed_statistics(sample, 0.0, sens)
        else:
            randdist.observed_statistics(sample, 0.0, sens)
        # the mean statistic reads no squares
        randdist.observed_statistics(sample, 0.0, sens, studentized=False)


class TestStatisticsKinds:
    def test_mean_alone_is_bit_identical(self):
        rng = np.random.default_rng(51)
        m = np.abs(rng.normal(size=12))
        s1, s2 = randdist._SignSource(m.size, 0.7, 3, 2000).fill(m)
        sens = ps.SensitivityParam(0.7 / 0.3)
        abar, tstat = randdist._statistics(s1, s2, m, sens, False, _garbage_buffers(2000))
        assert tstat is None
        full = randdist._statistics(s1, s2, m, sens, True, _garbage_buffers(2000))
        assert_array_equal(abar, full[0])

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    def test_observed_mean_alone_is_bit_identical(self, tau):
        sample = ps.PairedSample(np.array([1.0, 1.0, -0.4, 2.3, 0.3, -1.7, 0.8]))
        sens = ps.SensitivityParam(1.8)
        dbar, tstat = randdist.observed_statistics(sample, tau, sens, studentized=False)
        assert tstat is None
        assert dbar == randdist.observed_statistics(sample, tau, sens)[0]


# samples whose exact draws include every kind: ordinary, degenerate with a
# zero mean, degenerate with a nonzero mean (a single pair, equal |y - tau|)
_STAT_SAMPLES = {
    "one-pair": np.array([2.0]),
    "two-pairs": np.array([0.5, -1.5]),
    "constant": np.full(6, 3.0),
    "ties": np.array([1.0, 1.0, 3.0, -2.0, 0.0, 1.0, 4.0]),
    "random": np.random.default_rng(52).normal(loc=0.4, size=12),
}


class TestStatisticsInPlace:
    """The in-place statistics against the allocating oracle, bit for bit."""

    @pytest.mark.parametrize("studentized", [False, True])
    @pytest.mark.parametrize("name", sorted(_STAT_SAMPLES))
    def test_exact_sums(self, name, studentized):
        y = _STAT_SAMPLES[name]
        out = _garbage_buffers(2**y.size)
        # one buffer set across taus and gammas, as a search uses it
        for tau in (0.0, 1.0, float(y[0])):
            m = np.abs(y - tau)
            s1, s2, _ = enumerate_exact_concat(m)
            for gamma in (1.0, 2.0, 1000.0):
                sens = ps.SensitivityParam(gamma)
                got = randdist._statistics(s1, s2, m, sens, studentized, out)
                want = statistics_alloc(s1, s2, m, sens, studentized)
                assert_array_equal(got[0], want[0])
                if studentized:
                    assert_array_equal(got[1], want[1])
                else:
                    assert got[1] is None and want[1] is None

    @pytest.mark.parametrize("name", sorted(_STAT_SAMPLES))
    def test_monte_carlo_sums(self, name):
        y = _STAT_SAMPLES[name]
        out = _garbage_buffers(3001)
        for seed, gamma in ((0, 1.0), (1, 2.5), (2, 40.0)):
            sens = ps.SensitivityParam(gamma)
            m = np.abs(y - 0.5)
            s1, s2 = randdist._SignSource(m.size, sens.theta, seed, 3001).fill(m)
            got = randdist._statistics(s1, s2, m, sens, True, out)
            want = statistics_alloc(s1, s2, m, sens, True)
            assert_array_equal(got[0], want[0])
            assert_array_equal(got[1], want[1])


class TestMemoryBudget:
    def test_single_use_draws_budgeted_by_what_they_hold(self, monkeypatch, tmp_path, capsys):
        # 10000 draws x 600 pairs: the whole sign matrix, 45.8 MiB, is over
        # the budget's share of a pretended 80 MiB; a test build, budgeted
        # at one product block and 120 bytes a draw, about 7.6 MiB, is under
        monkeypatch.setattr(randdist, "_physical_memory_bytes", lambda: 80 * 2**20)
        n, draws = 600, 10_000
        held = randdist._draw_set_bytes(n, draws, randdist._BUILD_BYTES_PER_DRAW)
        budget = randdist._MEMORY_BUDGET_FRACTION * 80 * 2**20
        assert held < budget < randdist._MC_BYTES_PER_SIGN * draws * n
        path = tmp_path / "pairs.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, n + 1)))
        args = ["--input", str(path), "--tau", "0", "--method", "perm-t"]
        assert cli.main(["test", *args, "--gamma", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["changepoint", *args]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: Monte Carlo sign matrix of {draws} draws x {n} pairs")

    def test_figures_cover_what_exact_work_holds(self):
        # tracemalloc peaks at 18 pairs, per sign vector, against the figures
        # checked before allocating
        s = ps.PairedSample(np.random.default_rng(53).normal(loc=0.5, size=18))
        engine = exact_engine()
        spec = ps.TestSpec(tau=0.0, method="combined")
        tracemalloc.start()
        try:
            decide = ps.testing.rejector(s, spec, engine)
            for gamma, tau in ((2.0, 0.0), (3.0, 0.0), (3.0, 0.1)):
                decide(ps.SensitivityParam(gamma), tau)
            search = tracemalloc.get_traced_memory()[1]
            del decide
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ps.build_pair(s, 0.0, ps.SensitivityParam(2.0), engine)
            build = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert search <= randdist._EXACT_BYTES_PER_DRAW * 2**18
        assert build <= randdist._BUILD_BYTES_PER_DRAW * 2**18


class TestMonteCarloMemory:
    # 500000 draws x 1000 pairs: a build is budgeted at a 29 MB product
    # block and 120 bytes a draw, 60 MB, more than the budget's share of a
    # pretended 64 MiB; the check must fire before anything of that size is
    # allocated
    def test_larger_than_memory_fails_fast(self, monkeypatch):
        monkeypatch.setattr(randdist, "_physical_memory_bytes", lambda: 64 * 2**20)
        s = ps.PairedSample(np.arange(1.0, 1001.0))
        with pytest.raises(ValueError, match="draw set of 500000 draws x 1000 pairs"):
            ps.build_pair(s, 0.0, ps.SensitivityParam(2.0), mc_engine(500_000))
        ps.build_pair(s, 0.0, ps.SensitivityParam(2.0), mc_engine(1_000))

    def test_larger_than_memory_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(randdist, "_physical_memory_bytes", lambda: 64 * 2**20)
        path = tmp_path / "pairs.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, 1001)))
        code = cli.main(["test", "--input", str(path), "--tau", "0", "--gamma", "2",
                         "--reps", "500000"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: Monte Carlo draw set of 500000 draws x 1000 pairs"
        )

    @pytest.mark.parametrize("command, what", [
        ("test", "draw set"), ("changepoint", "sign matrix"), ("interval", "sign matrix"),
    ])
    def test_huge_draw_count_refused_before_any_work(self, command, what, monkeypatch,
                                                     tmp_path, capsys):
        # 10**13 draws: the refusal is arithmetic, made before any per-draw
        # buffer or list of blocks exists
        monkeypatch.setattr(randdist, "_physical_memory_bytes", lambda: 64 * 2**20)
        path = tmp_path / "pairs.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, 101)))
        args = ["--input", str(path), "--reps", str(10**13)]
        args += {"test": ["--tau", "0", "--gamma", "2"], "changepoint": ["--tau", "0"],
                 "interval": ["--gamma", "2"]}[command]
        assert cli.main([command, *args]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: Monte Carlo {what} of {10**13} draws x 100 pairs")


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
