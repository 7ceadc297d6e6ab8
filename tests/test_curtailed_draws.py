"""Curtailed Monte Carlo decisions against decisions from every draw.

A simulation replication (``testing.rejections``) decides from a single-use
``SignDraws``, which makes its signs a generation block at a time and stops
once the draws made settle every kind's weight outside the band
``threshold -/+ 2 guard`` (``SignDraws._curtailed``).  Its decisions and
fallbacks must equal those made from every draw (the band dropped, which
also drops curtailing) and those of ``helpers.rejections_sorted``, for every
method alone and all four together, both alternatives, gammas 1, 2, 4 and
1e9 (theta 1 in float32), and knife-edge samples.  A search's decisions,
which make and bound their signs alike but keep the rows made for the next
decision at the same theta, must equal ``helpers.rejections_sorted`` alike.  Generation
and product blocks are shrunk in some cases so that a few thousand draws
span many of them: the stream does not depend on the block sizes, and the
builds of the oracle and the fallbacks make the same product blocks.
"""

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import pairsens as ps
from pairsens import cli, randdist, testing

from helpers import m_sums, rejections_sorted
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


def _blocks_read(monkeypatch):
    """Record, per pass over the product blocks, how many were read and how
    many there are."""
    read = []
    original = randdist._product_blocks

    def counting(draws, n):
        blocks = list(original(draws, n))
        read.append([0, len(blocks)])
        for block in blocks:
            read[-1][0] += 1
            yield block

    monkeypatch.setattr(randdist, "_product_blocks", counting)
    return read


def _alphas_at_weights(sample, points, alternative):
    """Alphas half a draw either side of each point's observed statistics'
    weights in the sorted distributions: there a decision that counts one
    draw wrong differs."""
    if alternative == "less":
        sample, points = ps.PairedSample(-sample.y), [(g, -t) for g, t in points]
    alphas = set()
    for gamma, tau in points:
        sens = ps.SensitivityParam(gamma)
        observed = randdist.observed_statistics(sample, tau, sens)
        for dist, t in zip(randdist.build_pair(sample, tau, sens, ENGINE), observed):
            for side in (-0.5, 0.5):
                alphas.add(1.0 - dist.cdf(t) - randdist._CUM_SLACK + side / ENGINE.draws)
    return sorted(alpha for alpha in alphas if 0.0 < alpha <= 0.5)


@pytest.mark.parametrize("alternative", ps.ALTERNATIVES)
@pytest.mark.parametrize("name", ["skewed", "normal", "constant", "ties-at-tau", "two-pairs"])
def test_search_decisions_equal_sorted(monkeypatch, name, alternative):
    # a search's decider, band on, over taus it moves between and the gammas
    # in turn, against the sorted distributions, at the sample's alpha and at
    # alphas half a draw from the weights; its kept matrix spans several
    # product blocks, and some decisions read only some of them
    y, tau, alpha = SAMPLES[name]
    _shrink(monkeypatch, BLOCKS["small"])
    sample = ps.PairedSample(y)
    points = [(gamma, t) for gamma in GAMMAS for t in (tau, tau + 0.3, tau - 0.3)]
    read = []
    for level in [alpha, *_alphas_at_weights(sample, points, alternative)]:
        spec = ps.TestSpec(tau=tau, alpha=level, alternative=alternative)
        # every method list at the sample's alpha, all four methods elsewhere
        for methods in METHOD_LISTS if level == alpha else METHOD_LISTS[-1:]:
            want = [rejections_sorted(sample, replace(spec, tau=t), ps.SensitivityParam(gamma),
                                      ENGINE, methods) for gamma, t in points]
            with monkeypatch.context() as m:
                blocks = _blocks_read(m)
                decide = testing._decider(sample, spec, ENGINE, methods)
                got = [list(decide(ps.SensitivityParam(gamma), t)) for gamma, t in points]
            assert got == want, (name, level, methods)
            read += blocks
    assert all(total >= 2 for _, total in read)
    if name == "skewed":
        assert any(done < total for done, total in read)


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
    signs = randdist._SignSource(n, sens.theta, engine.seed, draws, keep=True).rows(0, draws)
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
    signs = randdist._SignSource(m.size, sens.theta, seed, draws, keep=True).rows(0, draws)
    s1, s2 = randdist._signed_sums(m, draws, lambda a, b: signs[a:b])
    out = randdist._StatBuffers.empty(draws)
    tstat = randdist._statistics(s1, s2, m, sens, True, out, m_sums(m, True))[1].copy()
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
    block = randdist._statistics(b1, b2, m, sens, True, randdist._StatBuffers.empty(draws),
                                 m_sums(m, True))[1]
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


def test_search_keeps_the_rows_it_has_made(monkeypatch):
    # a search at one theta and several taus, band on: its decisions stop in
    # different generation blocks, each making only the rows after those an
    # earlier one made, and the rows it keeps are those of a whole-matrix
    # fill, bit for bit; with the band dropped its weights are those of
    # every draw, counted on a build's sums
    y, _, alpha = SAMPLES["skewed"]
    _shrink(monkeypatch, BLOCKS["small"])
    words = _count_words(monkeypatch)
    sample, sens = ps.PairedSample(y), ps.SensitivityParam(1.0)
    n, draws, seed = y.size, ENGINE.draws, ENGINE.seed
    whole = randdist._SignSource(n, sens.theta, seed, draws, keep=True).rows(0, draws)
    threshold = 1.0 - alpha - randdist._CUM_SLACK
    guard = testing._GUARD_EPS_PER_DRAW * draws * testing._EPS
    band = (threshold - 2.0 * guard, threshold + 2.0 * guard)
    taus = (3.0, 1.0, 0.9, 0.8, 0.6, -1.0)
    searched = randdist.SignDraws(sample, taus[0], ENGINE)
    made = []
    for tau in taus:
        searched.move_to(tau)
        stats = randdist.observed_statistics(sample, tau, sens, True, searched.observed_sums[0])
        searched.weights_at_most(sens, dict(zip(("mean", "studentized"), stats)), band=band)
        made.append(searched._source.made)
        assert 2 * words[1] == made[-1] * n
        assert_array_equal(searched._source.signs[: made[-1]], whole[: made[-1]])
    gen, rows = randdist._generation_rows(n), randdist._product_rows(n)
    assert made == sorted(made) and len(set(made)) >= 4 and made[-1] < draws
    assert any(k % rows for k in made) and not any(k % gen for k in made)
    for tau in taus:
        searched.move_to(tau)
        m = searched.m[0]
        stats = randdist.observed_statistics(sample, tau, sens, True, searched.observed_sums[0])
        got = searched.weights_at_most(sens, dict(zip(("mean", "studentized"), stats)))
        s1, s2 = randdist._SignSource(n, sens.theta, seed, draws).fill(m)
        built = randdist._statistics(s1, s2, m, sens, True, randdist._StatBuffers.empty(draws),
                                     m_sums(m, True))
        assert got == {kind: np.count_nonzero(stat <= t) / draws
                       for kind, stat, t in zip(("mean", "studentized"), built, stats)}
    assert searched._source.made == draws
    assert_array_equal(searched._source.signs, whole)


def test_changepoint_makes_under_a_matrix_of_signs_a_gamma(monkeypatch):
    # a Monte Carlo search makes its signs only as its decisions read them:
    # on average under three quarters of a whole draws x n matrix at each
    # gamma it decides (a search that drew the whole matrix made all of it)
    words = _count_words(monkeypatch)
    gammas = set()
    original = randdist.SignDraws.weights_at_most

    def recording(draws, sens, *args, **kwargs):
        gammas.add(sens.gamma)
        return original(draws, sens, *args, **kwargs)

    monkeypatch.setattr(randdist.SignDraws, "weights_at_most", recording)
    sample = ps.PairedSample(np.random.default_rng(22).normal(0.3, 1.0, 200))
    engine = ps.EnumSpec(mode="monte_carlo", draws=3000, seed=3)
    ps.changepoint_gamma(sample, tau=0.0, method="combined", engine=engine)
    assert len(gammas) > 10
    assert 2 * sum(words) < 0.75 * engine.draws * sample.n_pairs * len(gammas)


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
