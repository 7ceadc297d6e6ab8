"""Curtailed Monte Carlo decisions against decisions from every draw.

A simulation replication (``testing.rejections``) decides from a single-use
``SignDraws``, which makes its signs a generation block at a time and stops
once the draws made settle every kind's weight outside the band
``threshold -/+ 2 guard`` (``SignDraws._curtailed``).  Its decisions and
fallbacks must equal those made from every draw (the band dropped, which
also drops curtailing) and those of ``helpers.rejections_sorted``, for every
method alone and all four together, both alternatives, gammas 1, 2, 4 and
1e9 (theta 1 in float32), and knife-edge samples.  Generation and product
blocks are shrunk in some cases so that a few thousand draws span many of
them: the stream does not depend on the block sizes, and the builds of the
oracle and the fallbacks make the same product blocks.
"""

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

import pairsens as ps
from pairsens import cli, randdist, testing
from helpers import rejections_sorted
from test_decision_band import _fallbacks, _unbanded

SAMPLES = {
    "skewed": (np.random.default_rng(15).lognormal(0.0, 0.9, 30) - 0.9, 0.0, 0.05),
    "normal": (np.random.default_rng(16).normal(0.6, 1.0, 25), 0.2, 0.05),
    "constant": (np.full(7, 2.0), 0.0, 0.05),
    "one-pair": (np.array([1.5]), 0.0, 0.05),
    "two-pairs": (np.array([0.5, 2.0]), 0.0, 0.05),
    "ties-at-tau": (np.array([1, 1, 3, -2, 0, 1, 4, 2, 1, 5, 1, 1], dtype=float), 1.0, 0.05),
    # 2**-8 is the weight of one draw at gamma 1: no test rejects below it
    "unattainable": (np.random.default_rng(17).normal(2.0, 1.0, 8), 0.0, 1e-3),
    # the observed studentized statistic is below 0 under "greater"
    "negative-t": (np.random.default_rng(20).normal(-0.4, 1.0, 40), 0.0, 0.05),
    # each x beside -x: the observed sum of y is exactly 0, and so t at gamma 1
    "symmetric": (np.repeat(np.random.default_rng(21).lognormal(0.0, 0.7, 12), 2)
                  * np.tile([1.0, -1.0], 12), 0.0, 0.05),
}
# 4 sum(|y|) overflows, so _sum_cut makes no cut, though no draw's mean does;
# the squares overflow too, so only perm-t decides and the others are refused
OVERFLOW = 1e307 * np.array([1.0, -1.0, 1.5, 0.5, -1.0, 1.0])
GAMMAS = (1.0, 2.0, 4.0, 1e9)
METHOD_LISTS = [(m,) for m in ps.METHODS] + [tuple(ps.METHODS)]
ENGINE = ps.EnumSpec(mode="monte_carlo", draws=3000, seed=9)
# signs per generation and per product block: the shipped sizes, and sizes
# that put a few generation blocks in each of several product blocks
BLOCKS = {"shipped": None, "small": (1 << 9, 1 << 11)}


def _shrink(monkeypatch, blocks):
    if blocks is not None:
        monkeypatch.setattr(randdist, "_MC_BLOCK_SIGNS", blocks[0])
        monkeypatch.setattr(randdist, "_MC_PRODUCT_SIGNS", blocks[1])


def _decide(monkeypatch, y, tau, alpha, alternative, methods, engine=ENGINE):
    """Each gamma's decisions, or the error raised, and the fallbacks made."""
    spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative)
    out = []
    with monkeypatch.context() as m:
        calls = _fallbacks(m)
        for gamma in GAMMAS:
            try:
                out.append(testing.rejections(ps.PairedSample(y), spec,
                                              ps.SensitivityParam(gamma), engine, methods))
            except ValueError as err:
                out.append(str(err))
    return out, calls


def _sorted(y, tau, alpha, alternative, methods, engine=ENGINE):
    spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative)
    out = []
    for gamma in GAMMAS:
        try:
            out.append(rejections_sorted(ps.PairedSample(y), spec, ps.SensitivityParam(gamma),
                                         engine, methods))
        except ValueError as err:
            out.append(str(err))
    return out


def _count_words(monkeypatch):
    """Record the raw 64-bit words each sign source requests, one entry a
    source."""
    words = []
    original = randdist._sign_stream

    class Counting:
        def __init__(self, raw):
            self.raw = raw

        def random_raw(self, k):
            words[-1] += k
            return self.raw.random_raw(k)

    def counting(theta, seed):
        raw, cut = original(theta, seed)
        words.append(0)
        return (None if raw is None else Counting(raw)), cut

    monkeypatch.setattr(randdist, "_sign_stream", counting)
    return words


@pytest.mark.parametrize("blocks", sorted(BLOCKS))
@pytest.mark.parametrize("alternative", ps.ALTERNATIVES)
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_curtailed_decisions_equal_full_draws(monkeypatch, name, alternative, blocks):
    y, tau, alpha = SAMPLES[name]
    _shrink(monkeypatch, BLOCKS[blocks])
    for methods in METHOD_LISTS:
        curtailed = _decide(monkeypatch, y, tau, alpha, alternative, methods)
        with monkeypatch.context() as m:
            _unbanded(m)
            full = _decide(monkeypatch, y, tau, alpha, alternative, methods)
        assert curtailed == full, (name, methods)
        decisions = [d if isinstance(d, str) else list(d) for d in curtailed[0]]
        assert decisions == _sorted(y, tau, alpha, alternative, methods), (name, methods)


def test_curtailing_reads_fewer_words(monkeypatch):
    # the differential cases above are not vacuous: with small blocks, the
    # skewed sample's replications stop before the end of the stream
    y, tau, alpha = SAMPLES["skewed"]
    _shrink(monkeypatch, BLOCKS["small"])
    words = _count_words(monkeypatch)
    _decide(monkeypatch, y, tau, alpha, "greater", tuple(ps.METHODS))
    assert words and min(words) < ENGINE.draws * y.size // 2


def test_theta_one_makes_no_generator(monkeypatch):
    # theta = 1e9 / (1 + 1e9) rounds to 1 in float32: every sign is +1
    def refused(seed):
        raise AssertionError("no generator is made when every sign is +1")

    monkeypatch.setattr(np.random, "Philox", refused)
    y, tau, alpha = SAMPLES["skewed"]
    sens = ps.SensitivityParam(1e9)
    for alternative in ps.ALTERNATIVES:
        spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative)
        got = testing.rejections(ps.PairedSample(y), spec, sens, ENGINE, ps.METHODS)
        assert got == rejections_sorted(ps.PairedSample(y), spec, sens, ENGINE, ps.METHODS)


@pytest.mark.parametrize("alternative", ps.ALTERNATIVES)
def test_overflowing_sums_make_no_cut(monkeypatch, alternative):
    m = np.abs(OVERFLOW)
    total = float(m.sum())
    assert np.isfinite(total) and not np.isfinite(4.0 * total)
    assert np.isnan(randdist._sum_cut(0.0, -1.0, m.size, total, 0.0))
    spec = ps.TestSpec(tau=0.0, alpha=0.05, alternative=alternative)
    curtailed = _decide(monkeypatch, OVERFLOW, 0.0, 0.05, alternative, ("perm_t",))
    with monkeypatch.context() as patch:
        _unbanded(patch)
        assert _decide(monkeypatch, OVERFLOW, 0.0, 0.05, alternative, ("perm_t",)) == curtailed
    # the build-based procedure itself is the oracle: the sorted helper reads
    # the studentized statistic, which is refused here
    want = [[testing.run_test(ps.PairedSample(OVERFLOW), replace(spec, method="perm_t"),
                              ps.SensitivityParam(gamma), ENGINE).reject] for gamma in GAMMAS]
    assert curtailed[0] == want
    # with no cut nothing settles before every draw is made; at theta 1
    # no raw word is read
    words = _count_words(monkeypatch)
    _decide(monkeypatch, OVERFLOW, 0.0, 0.05, alternative, ("perm_t",))
    assert words == [ENGINE.draws * m.size // 2] * (len(GAMMAS) - 1) + [0]
    for methods in METHOD_LISTS[1:]:
        errors = _decide(monkeypatch, OVERFLOW, 0.0, 0.05, alternative, methods)[0]
        assert all("rescale the differences" in e for e in errors)


def _product_calls(monkeypatch):
    """Record the rows of each product with the two-column coefficients,
    which a build and the exact pass make; a generation block's own product
    with m has one column."""
    rows = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        if b.ndim == 2:
            rows.append(a.shape[0])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return rows


def test_exact_pass_per_product_block(monkeypatch):
    # 600 pairs: three product blocks of 9 generation blocks each, the last
    # taking one more draw.  A rejecting decision settles no earlier than
    # 95% of the draws, so every block before the last is counted exactly;
    # with the band dropped, every block is
    n = 600
    rows = randdist._product_rows(n)
    engine = ps.EnumSpec(mode="monte_carlo", draws=3 * rows + 1, seed=2)
    sample = ps.PairedSample(np.random.default_rng(18).normal(0.3, 1.0, n))
    spec, sens = ps.TestSpec(tau=0.0, alpha=0.05), ps.SensitivityParam(1.0)
    for methods in (("perm_t",), ("studentized",), ("combined",)):
        want = rejections_sorted(sample, spec, sens, engine, methods)
        assert want == [True]
        with monkeypatch.context() as m:
            calls = _product_calls(m)
            assert testing.rejections(sample, spec, sens, engine, methods) == want
        assert calls[:2] == [rows, rows]
        with monkeypatch.context() as m:
            _unbanded(m)
            calls = _product_calls(m)
            assert testing.rejections(sample, spec, sens, engine, methods) == want
        assert calls == [rows, rows, rows + 1]


def test_block_sum_across_t_stays_open():
    # a draw whose generation-block sum and whole-product sum give means on
    # opposite sides of t: the cuts of _sum_cut leave it open, so a band
    # that one miscounted draw would cross is never crossed
    n, draws, gamma = 100, 10_000, 4.0
    sample = ps.PairedSample(np.random.default_rng(19).normal(0.5, 1.0, n))
    sens = ps.SensitivityParam(gamma)
    engine = ps.EnumSpec(mode="monte_carlo", draws=draws, seed=6)
    m = np.abs(sample.y)
    signs = randdist._SignSource(n, sens.theta, engine.seed).fill(np.empty((draws, n)))
    whole = randdist._signed_sums(m, draws, lambda a, b: signs[a:b])[0]
    gen = randdist._generation_rows(n)
    block = np.concatenate([signs[i : i + gen] @ m for i in range(0, draws, gen)])
    shift = sens.sign_bias * m.sum()
    mean_whole, mean_block = (whole - shift) / n, (block - shift) / n
    (across,) = np.nonzero(mean_block > mean_whole)
    assert across.size
    r = across[0]
    t = mean_whole[r]
    # every draw's mean is at most t on the whole product, but not on the block
    below = int(np.count_nonzero(mean_whole <= t))
    assert mean_block[r] > t
    total = float(m.sum())
    lo, hi = (randdist._sum_cut(t, side, n, total, sens.sign_bias * total)
              for side in (-1.0, 1.0))
    assert lo <= block[r] <= hi
    weight = below / draws
    draws_set = randdist.SignDraws(sample, 0.0, engine, single_use=True, studentized=False)
    # with draw r miscounted out, the upper bound would reach low; in, the
    # lower bound high
    for band in ((weight - 1 / draws, weight), (weight - 1 / draws, weight + 1 / draws)):
        got = draws_set.weights_at_most(sens, {"mean": t}, band=band)["mean"]
        assert got == weight
        assert got == draws_set.weights_at_most(sens, {"mean": t})["mean"]


def test_own_bound_reaches_negative_zero_and_gamma_one(monkeypatch):
    # the differential cases above decide studentized draws by a bound on
    # their own statistic (_own_cuts) at t < 0 and at gamma 1, where c = 0
    # gives every draw the same sum of squares; at t = 0 the bound does not
    # apply and the cuts of _cuts decide
    seen = []
    original = randdist._own_cuts

    def recording(t, n, sumsq, c, total):
        sides = original(t, n, sumsq, c, total)
        seen.append((t, c, sides is not None))
        return sides

    monkeypatch.setattr(randdist, "_own_cuts", recording)
    for name in ("negative-t", "symmetric"):
        y, tau, alpha = SAMPLES[name]
        _decide(monkeypatch, y, tau, alpha, "greater", ("studentized",))
    assert any(t < 0 and used for t, _, used in seen)
    assert any(c == 0 and used for _, c, used in seen)
    assert any(t == 0 and not used for t, _, used in seen)


def _build_statistics(y, tau, gamma, draws, seed):
    """m, the build's signed sums of m and m**2 over ``draws`` sign vectors,
    its studentized statistic of each, the signs and the bias bound."""
    m, sens = np.abs(y - tau), ps.SensitivityParam(gamma)
    signs = randdist._SignSource(m.size, sens.theta, seed).fill(np.empty((draws, m.size)))
    s1, s2 = randdist._signed_sums(m, draws, lambda a, b: signs[a:b])
    out = randdist._StatBuffers.empty(draws)
    tstat = randdist._statistics(s1, s2, m, sens, True, out)[1].copy()
    return m, s1, s2, tstat, signs, sens


@pytest.mark.parametrize("gamma", (1.0, 4.0, 1000.0))
@pytest.mark.parametrize("name", ("skewed", "normal", "negative-t"))
def test_own_cuts_hold_for_sums_within_the_bound(name, gamma):
    # a generation block's sums lie within 2 g(n) sum(m) and 2 g(n)
    # sum(m**2) of a build's.  Moved by up to 2 n u of those, either way,
    # the build's sums must give masks that never put in a draw whose build
    # statistic is above t, nor out one at or below it.  t is on, and a
    # float either side of, the statistics nearest 0 (where the mean's
    # error counts most), of the extremes and of the quartiles; at gamma
    # 1000 most draws have every sign +, the least sum of squares, where
    # its error counts most
    y, tau, _ = SAMPLES[name]
    m, s1, s2, tstat, _, sens = _build_statistics(y, tau, gamma, 2000, 3)
    n, total, sumsq = m.size, float(m.sum()), float(np.sum(m * m))
    d1, d2 = (2 * n * randdist._UNIT_ROUNDOFF * x for x in (total, sumsq))
    by_size, by_value = np.argsort(np.abs(tstat)), np.argsort(tstat)
    picks = np.concatenate((by_size[:20], by_value[[0, 1, -2, -1, 500, 1000, 1500]]))
    edges = np.concatenate([(np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))
                            for x in tstat[picks]])
    for t in set(edges.tolist()):
        sides = randdist._own_cuts(t, n, sumsq, sens.sign_bias, total)
        assert sides is not None, t
        below = tstat <= t
        for shift1 in (-d1, 0.0, d1):
            for shift2 in (-d2, 0.0, d2):
                inside, outside = sides(s1 + shift1, s2 + shift2)
                assert not np.any(inside & ~below), (t, shift1, shift2)
                assert not np.any(outside & below), (t, shift1, shift2)
                # and it is no vacuous bound: it decides every draw whose
                # statistic is not within a relative 1e-6 of t
                assert np.all(inside | outside | (np.abs(tstat - t) <= 1e-6 * abs(t)))


def test_own_cuts_refuse_where_the_bound_does_not_apply():
    m = np.abs(SAMPLES["skewed"][0])
    n, total, sumsq = m.size, float(m.sum()), float(np.sum(m * m))
    c = ps.SensitivityParam(4.0).sign_bias
    assert randdist._own_cuts(1.5, n, sumsq, c, total) is not None
    for t in (0.0, 1e-160, math.inf, -math.inf, math.nan, 1e7):
        assert randdist._own_cuts(t, n, sumsq, c, total) is None, t
    # one pair; squares out of range; 4 sum(m) overflowing; theta 1 in
    # float32, where a draw's least sum of squares is lost to rounding
    assert randdist._own_cuts(1.5, 1, sumsq, c, total) is None
    assert randdist._own_cuts(1.5, n, 2.0**901, c, total) is None
    assert randdist._own_cuts(1.5, n, sumsq, c, 1e308) is None
    assert randdist._own_cuts(1.5, n, sumsq, ps.SensitivityParam(1e9).sign_bias, total) is None


@pytest.mark.parametrize("direction", ("in", "out"))
def test_block_tstat_across_t_stays_open(direction):
    # a draw whose studentized statistic from its generation block's sums
    # and from a build's sums lie on opposite sides of t: in on the build
    # and above t on the block, or out on the build and at or below t on
    # the block.  _own_cuts leaves it open, so a band that one miscounted
    # draw would cross is never crossed
    n, draws, gamma = 100, 10_000, 4.0
    sample = ps.PairedSample(np.random.default_rng(19).normal(0.5, 1.0, n))
    engine = ps.EnumSpec(mode="monte_carlo", draws=draws, seed=6)
    m, s1, s2, whole, signs, sens = _build_statistics(sample.y, 0.0, gamma, draws, engine.seed)
    gen = randdist._generation_rows(n)
    blocks = [(signs[i : i + gen] @ m, signs[i : i + gen] @ (m * m)) for i in range(0, draws, gen)]
    b1, b2 = (np.concatenate(x) for x in zip(*blocks))
    block = randdist._statistics(b1, b2, m, sens, True, randdist._StatBuffers.empty(draws))[1]
    if direction == "in":
        (across,) = np.nonzero(block > whole)
        r = across[0]
        t = float(whole[r])
    else:
        (across,) = np.nonzero(block < whole)
        r = across[0]
        t = float(np.nextafter(whole[r], -np.inf))
    assert (whole[r] <= t) == (direction == "in") and (block[r] <= t) != (whole[r] <= t)
    total, sumsq = float(m.sum()), float(np.sum(m * m))
    inside, outside = randdist._own_cuts(t, n, sumsq, sens.sign_bias, total)(b1, b2)
    assert not inside[r] and not outside[r]
    weight = np.count_nonzero(whole <= t) / draws
    draws_set = randdist.SignDraws(sample, 0.0, engine, single_use=True, studentized=True)
    # with draw r miscounted out, the upper bound would reach low; in, the
    # lower bound high
    for band in ((weight - 1 / draws, weight), (weight, weight + 1 / draws),
                 (weight - 1 / draws, weight + 1 / draws)):
        got = draws_set.weights_at_most(sens, {"studentized": t}, band=band)["studentized"]
        assert got == weight
    assert weight == draws_set.weights_at_most(sens, {"studentized": t})["studentized"]


def _simulate(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


SIMULATE = ["simulate", "--scenario", "counterexample", "--pairs", "24", "--tau", "2.5",
            "--gamma", "4", "--reps", "5", "--mc-draws", "200", "--seed", "1"]


def test_reduced_simulate_draws_fewer_signs(monkeypatch):
    # the reduced simulate-mc workload: 200 draws of 24 pairs are one
    # generation block at the shipped size, so the blocks are shrunk to 20
    # draws, which leaves the stream and the output unchanged
    want = _simulate(SIMULATE)
    with monkeypatch.context() as m:
        _unbanded(m)
        assert _simulate(SIMULATE) == want
    monkeypatch.setattr(randdist, "_MC_BLOCK_SIGNS", 20 * 24)
    words = _count_words(monkeypatch)
    assert _simulate(SIMULATE) == want
    assert len(words) == 5
    assert sum(words) < 5 * 200 * 24 // 2


@pytest.mark.parametrize("methods", ("perm-t,neyman,studentized", "studentized"))
def test_simulate_draws_under_30_percent_of_the_signs(monkeypatch, methods):
    # 100 pairs and 10,000 draws, as the simulate-mc workload, at the
    # shipped block sizes: the replications read under 30% of their signs
    # once each studentized draw is settled by a bound on its own statistic
    # (over 36% when settled by its mean)
    argv = ["simulate", "--scenario", "counterexample", "--pairs", "100", "--tau", "2.5",
            "--gamma", "4", "--reps", "20", "--mc-draws", "10000", "--seed", "1",
            "--methods", methods]
    words = _count_words(monkeypatch)
    _simulate(argv)
    assert len(words) == 20
    assert sum(words) < 0.3 * 20 * 10_000 * 100 // 2
