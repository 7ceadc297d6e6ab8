"""Decisions against the full chain, bit for bit.

An exact decision counts, per number of + signs, the draws whose statistic
is at most the observed one, from two sorted half-enumerations
(``randdist._Halves``); only the draws near a cut get their sums finished on
the doubling chain, and the observed assignment's draw is settled by its own
statistic.  Its counts must equal ``np.bincount(k[stat <= t])`` of
the full chain (``helpers.enumerate_exact_concat`` and
``helpers.studentized_full_chain``).  A Monte Carlo decision settles every
draw whose mean lies at or beyond the cut points of ``randdist._cuts`` and
computes the studentized statistic only for the others; its mask must equal
``tstat <= t`` of the full chain.  Both are checked on random, constant,
tied, one- and two-pair samples and on samples whose sums of squares sit near
either end of the float range, at observed values of both signed zeros, both
infinities and NaN, with draws a few ulps either side of each cut, at gamma 1,
and at statistics so large that only the sign of the mean may settle a draw.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import pairsens as ps
from pairsens import randdist
from helpers import (
    draw_monte_carlo_where,
    enumerate_exact_concat,
    observed_statistics_loop,
    studentized_full_chain,
)

SAMPLES = {
    "random": (np.random.default_rng(81).normal(loc=0.4, size=10), (0.0, 0.4, 1.5)),
    "constant": (np.full(8, 3.0), (3.0, 1.0)),
    "ties-at-tau": (np.array([1, 1, 3, -2, 0, 1, 4, 2, 1, 5], dtype=float), (1.0, 0.0)),
    "one-pair": (np.array([2.0]), (0.0, 3.0)),
    # at 1.25 both pairs are 0.75 from tau: means of exactly 0 with t = 0
    "two-pairs": (np.array([0.5, 2.0]), (0.0, 1.0, 1.25)),
    # zero means over denominators that underflow to 0: NaN statistics
    "underflow": (2e-162 * np.array([1.0, -1.0, 1.0, -1.0]), (0.0,)),
    # squares that overflow, so inf - inf: NaN statistics
    "overflow": (3e153 * np.array([2.0, -1.0, 0.5, 3.0, -2.0]), (0.0,)),
}
GAMMAS = (1.0, 1.3, 2.0, 5.0, 1000.0)
OBSERVED = (0.0, -0.0, 0.5, -0.5, 3.0, np.inf, -np.inf, np.nan)
ENGINES = {
    "exact": ps.EnumSpec(mode="exact"),
    "monte_carlo": ps.EnumSpec(mode="monte_carlo", draws=1000, seed=7),
}


def _oracle(draws, sens, engine):
    """Every draw's mean and studentized statistic on the full chain, and
    its + count (None for Monte Carlo draws)."""
    m = draws.m
    if engine.mode == "exact":
        s1, s2, k = enumerate_exact_concat(m)
    else:
        (s1, s2), k = draw_monte_carlo_where(m, sens.theta, engine.draws, engine.seed), None
    with np.errstate(all="ignore"):
        stats = {"mean": (s1 - sens.sign_bias * np.sum(m)) / m.size,
                 "studentized": studentized_full_chain(s1, s2, m, sens)}
    return stats, k


def _check(draws, sens, kind, t, stats, k):
    """The decision at t against the full chain: the exact counts per +
    count, or the Monte Carlo mask; and the weight."""
    below = draws.weights_at_most(sens, {kind: t})[kind]
    want = stats[kind] <= t
    msg = f"{kind} tau={draws.tau} gamma={sens.gamma} t={t!r}"
    if draws.mode == "exact":
        counts = draws._halves.counts_at_most(kind, t, sens)
        assert_array_equal(counts, np.bincount(k[want], minlength=draws.m.size + 1), err_msg=msg)
        # the observed assignment's own statistic settles its draw alike
        own = stats[kind][np.sum((draws.y >= draws.tau) << np.arange(draws.m.size))]
        assert_array_equal(draws._halves.counts_at_most(kind, t, sens, own), counts, err_msg=msg)
        # the masked sum of per-draw weights, in another order: within the guard
        w = randdist._weight_table(sens.theta, draws.m.size)[k]
        assert abs(below - float(w @ want)) < draws.n_draws * np.finfo(float).eps, msg
    else:
        assert kind == "studentized"
        assert_array_equal(draws._studentized_at_most(t), want.astype(float), err_msg=msg)
        assert below == np.count_nonzero(want) / draws.n_draws


def _record_open(monkeypatch):
    """Record, per exact decision, its open draws and the number of draws."""
    opened = []
    original = randdist._Halves._open

    def recording(halves, first, last, *args):
        opened.append((int(np.sum(last - first)), 2**halves.n))
        return original(halves, first, last, *args)

    monkeypatch.setattr(randdist._Halves, "_open", recording)
    return opened


def _observed(sample, tau, sens):
    """The observed statistics; the studentized one is None where the
    squares overflow at this gamma, which the procedures refuse."""
    try:
        return randdist.observed_statistics(sample, tau, sens)
    except ValueError:
        return randdist.observed_statistics(sample, tau, sens, studentized=False)


def _ulps(t, k=3):
    return [float(np.int64(bits).view(float))
            for bits in np.float64(t).view(np.int64) + np.arange(-k, k + 1)]


def test_counts_equal_full_chain(monkeypatch):
    engine = ENGINES["exact"]
    opened = _record_open(monkeypatch)
    for name, (y, taus) in SAMPLES.items():
        sample = ps.PairedSample(y)
        # one set of draws moved over the taus, as a search uses it
        draws = randdist.SignDraws(sample, taus[0], engine)
        with np.errstate(all="ignore"):
            for tau in taus:
                draws.move_to(tau)
                for gamma in GAMMAS:
                    sens = ps.SensitivityParam(gamma)
                    stats, k = _oracle(draws, sens, engine)
                    observed = _observed(sample, tau, sens)
                    for kind, own in zip(("mean", "studentized"), observed):
                        # the observed draw's own value, and a few ulps off it
                        near = [] if own is None else _ulps(own) if math.isfinite(own) else [own]
                        for t in OBSERVED + tuple(near):
                            _check(draws, sens, kind, t, stats, k)
    # most decisions finish a few draws; some every draw (no cut: NaN, or the
    # sums of squares near either end of the float range)
    assert any(n_open == total for n_open, total in opened)
    assert np.median([n_open / total for n_open, total in opened]) < 0.1


@pytest.mark.parametrize("gamma", [1.0, 2.0, 1000.0])
@pytest.mark.parametrize("name", ["random", "ties-at-tau", "two-pairs"])
def test_counts_around_the_split_sum_cut(gamma, name):
    # t a few ulps and a few widths of the rounding bound from draws' own means,
    # so draws fall just inside and outside the widened cut of _sum_cut
    y, taus = SAMPLES[name]
    engine, sens = ENGINES["exact"], ps.SensitivityParam(gamma)
    draws = randdist.SignDraws(ps.PairedSample(y), taus[0], engine)
    stats, k = _oracle(draws, sens, engine)
    n, total = y.size, float(np.sum(draws.m))
    shift = sens.sign_bias * np.sum(draws.m)
    means = np.unique(stats["mean"])
    for a in means[np.linspace(0, means.size - 1, 5).astype(int)]:
        width = randdist._sum_cut(a, 1.0, n, total, shift) - (n * a + shift)
        assert width > 0
        ts = _ulps(a) + [a + f * width / n for f in (-2, -1, -0.5, 0.5, 1, 2)]
        for t in ts:
            for kind in ("mean", "studentized"):
                _check(draws, sens, kind, t, stats, k)


def _limit(n):
    """The largest |t| the band takes for n pairs, give or take an ulp."""
    return math.sqrt((n - 1) * (0.5 / randdist._DEGENERATE_RTOL - 1.0))


def _crossing(cut, a, n):
    """The least positive float t with ``cut(t) >= a``, by bisection on the
    float's bits, or None when no t below the band's limit reaches a."""
    lo, hi = map(int, np.array([np.finfo(float).tiny, _limit(n) * (1 - 1e-15)]).view(np.int64))
    if not cut(float(np.int64(hi).view(float))) >= a:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cut(float(np.int64(mid).view(float))) >= a:
            hi = mid
        else:
            lo = mid
    return int(hi)


@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("gamma", [1.0, 2.0, 1000.0])
@pytest.mark.parametrize("name", ["random", "ties-at-tau", "two-pairs"])
def test_mask_a_few_ulps_from_each_cut(mode, gamma, name):
    y, taus = SAMPLES[name]
    engine, sens = ENGINES[mode], ps.SensitivityParam(gamma)
    draws = randdist.SignDraws(ps.PairedSample(y), taus[0], engine)
    stats, k = _oracle(draws, sens, engine)
    means = np.unique(stats["mean"][stats["mean"] != 0.0])
    n, sumsq, c = y.size, float(np.sum(draws.m**2)), sens.sign_bias
    edges = 0
    for a in means[np.linspace(0, means.size - 1, 6).astype(int)]:
        for side in (0, 1):
            # the near cut of |t| is the upper cut of a negative t, and so on
            def cut(t):
                return abs(randdist._cuts(math.copysign(t, a), n, sumsq, c)[side ^ (a < 0)])

            bits = _crossing(cut, abs(a), n)
            if bits is None:
                continue
            edges += 1
            for step in range(-3, 4):
                t = math.copysign(float(np.int64(bits + step).view(float)), a)
                # the draw with mean a sits within a few ulps of the cut
                assert abs(cut(abs(t)) - abs(a)) <= 8 * np.spacing(abs(a))
                _check(draws, sens, "studentized", t, stats, k)
    assert edges >= 4


@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_mask_equals_full_chain(monkeypatch, mode):
    engine = ENGINES[mode]
    gathered = []
    original = randdist._positions

    def counting(mask, out):
        gathered.append(name)
        return original(mask, out)

    monkeypatch.setattr(randdist, "_positions", counting)
    decisions = 0
    for name, (y, taus) in SAMPLES.items():
        sample = ps.PairedSample(y)
        draws = randdist.SignDraws(sample, taus[0], engine)
        with np.errstate(all="ignore"):
            for tau in taus:
                draws.move_to(tau)
                for gamma in GAMMAS:
                    sens = ps.SensitivityParam(gamma)
                    stats, k = _oracle(draws, sens, engine)
                    observed = _observed(sample, tau, sens)[1]
                    for t in OBSERVED + (() if observed is None else (observed,)):
                        decisions += 1
                        _check(draws, sens, "studentized", t, stats, k)
    if mode == "monte_carlo":
        # some decisions gathered, others computed over every draw
        assert 0 < len(gathered) < decisions * 2
        # the sign of the mean cannot settle draws near the ends of the float range
        assert not {"underflow", "overflow"} & set(gathered)
    else:
        assert not gathered


@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_gamma_one_equals_full_chain(monkeypatch, mode):
    sizes = []
    original = randdist._enumerate_exact

    def recording(m, s1, s2=None, k=None):
        sizes.append(m.size)
        return original(m, s1, s2, k)

    monkeypatch.setattr(randdist, "_enumerate_exact", recording)
    engine, sens = ENGINES[mode], ps.SensitivityParam(1.0)
    for name in ("random", "constant", "ties-at-tau", "two-pairs"):
        y, taus = SAMPLES[name]
        draws = randdist.SignDraws(ps.PairedSample(y), taus[0], engine)
        for tau in (tau for tau in taus if np.any(y - tau)):
            draws.move_to(tau)
            stats, k = _oracle(draws, sens, engine)
            tstat = stats["studentized"]
            # every draw's own statistic and its neighbours are observed values
            finite = np.unique(tstat[np.isfinite(tstat)])[::7]
            near = np.concatenate([finite, np.nextafter(finite, np.inf),
                                   np.nextafter(finite, -np.inf)])
            for t in OBSERVED + tuple(near):
                _check(draws, sens, "studentized", t, stats, k)
        # a decision enumerates no sign vectors: it chains halves from steps
        assert not sizes
        sizes.clear()


@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("spread", [1e-5, 1e-6, 1e-7])
def test_huge_t_falls_back_to_the_sign_rule(mode, spread):
    # near-constant pairs: the draws whose signs agree sit at the degenerate
    # threshold, with statistics near the limit of |t| the band takes
    y = 1.0 + spread * np.random.default_rng(5).normal(size=8)
    n, limit = y.size, _limit(y.size)
    engine = ENGINES[mode]
    draws = randdist.SignDraws(ps.PairedSample(y), 0.0, engine)
    sumsq = float(np.sum(draws.m**2))
    for gamma in (1.0, 2.0):
        sens = ps.SensitivityParam(gamma)
        stats, k = _oracle(draws, sens, engine)
        tstat = stats["studentized"]
        big = np.unique(np.abs(tstat[np.isfinite(tstat)]))[-4:]
        around = [limit * (1 + j * 1e-15) for j in range(-4, 5)]
        ts = [*big, *np.nextafter(big, 0.0), *around, 1e300]
        for t in ts + [-t for t in ts]:
            _check(draws, sens, "studentized", t, stats, k)
            cuts = randdist._cuts(t, n, sumsq, sens.sign_bias)
            if t * t < (n - 1) * (0.5 / randdist._DEGENERATE_RTOL - 1.0):
                assert not any(map(math.isnan, cuts))
            else:
                assert str(cuts) == str((0.0, math.nan) if t > 0 else (math.nan, -0.0))


def _same(got, want):
    """Equal floats, NaN matching NaN and None matching None."""
    return str(got) == str(want)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_observed_statistics_equal_the_loop(name):
    # the observed signed sums, accumulated by numpy and kept per tau by
    # SignDraws, against the loop over the pairs: at each tested tau, at each
    # pair's own value (ties at tau) and between them
    y, taus = SAMPLES[name]
    sample = ps.PairedSample(y)
    points = sorted({*taus, *y.tolist(), *((y[:-1] + y[1:]) / 2).tolist()})
    for studentized in (False, True):
        draws = randdist.SignDraws(sample, points[0], ENGINES["exact"], studentized=studentized)
        for tau in points:
            draws.move_to(tau)
            for gamma in GAMMAS:
                sens = ps.SensitivityParam(gamma)
                try:
                    want = observed_statistics_loop(sample, tau, sens, studentized)
                except ValueError:
                    for sums in (None, draws.observed_sums):
                        with pytest.raises(ValueError, match="rescale"):
                            randdist.observed_statistics(sample, tau, sens, studentized, sums)
                    continue
                with np.errstate(all="ignore"):
                    for sums in (None, draws.observed_sums):
                        got = randdist.observed_statistics(sample, tau, sens, studentized, sums)
                        assert _same(got, want), (tau, gamma, studentized, sums)


def test_observed_statistics_equal_the_loop_on_random_samples():
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        scale = 10.0 ** rng.choice([-150, -3, 0, 5, 150])
        y = scale * (rng.integers(-3, 4, n) if rng.random() < 0.3 else rng.normal(0.5, 1, n))
        sample = ps.PairedSample(y)
        tau = float(rng.choice(y)) if rng.random() < 0.3 else float(scale * rng.normal())
        sens = ps.SensitivityParam(float(rng.choice(GAMMAS)))
        for studentized in (False, True):
            with np.errstate(all="ignore"):
                got = randdist.observed_statistics(sample, tau, sens, studentized)
                want = observed_statistics_loop(sample, tau, sens, studentized)
            assert _same(got, want), (n, scale, tau, sens.gamma, studentized)
