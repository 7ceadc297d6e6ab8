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
    # 600 pairs: three product blocks of 33 generation blocks each, the last
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


def test_simulate_draws_under_half_the_signs(monkeypatch):
    # 100 pairs and 10,000 draws, as the simulate-mc workload, at the
    # shipped block sizes: the replications read under half their signs
    argv = ["simulate", "--scenario", "counterexample", "--pairs", "100", "--tau", "2.5",
            "--gamma", "4", "--reps", "20", "--mc-draws", "10000", "--seed", "1"]
    words = _count_words(monkeypatch)
    _simulate(argv)
    assert len(words) == 20
    assert sum(words) < 0.5 * 20 * 10_000 * 100 // 2
