"""The studentized decision mask against the full chain, bit for bit.

A decision settles every draw whose mean lies at or beyond the cut points of
``randdist._cuts`` and computes the studentized statistic only for the
others.  The mask it sums must equal ``tstat <= t`` of
``helpers.studentized_full_chain`` over every draw: on random, constant,
tied, one- and two-pair samples and on samples whose sums of squares sit
near either end of the float range, at observed values of both signed
zeros, both infinities and NaN, with shares of open draws on both sides of
the gather cutoff, for both engines; with draws a few ulps either side of
each cut, at gamma 1, where no sums of squares are enumerated, and at
statistics so large that only the sign of the mean may settle a draw.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import pairsens as ps
from pairsens import randdist
from helpers import draw_monte_carlo_where, enumerate_exact_concat, studentized_full_chain

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


def _oracle_sums(m, sens, engine):
    if engine.mode == "exact":
        return enumerate_exact_concat(m)[:2]
    return draw_monte_carlo_where(m, sens.theta, engine.draws, engine.seed)


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
        # one set of draws moved over the taus, as a search uses it
        draws = randdist.SignDraws(sample, taus[0], engine)
        with np.errstate(all="ignore"):
            for tau in taus:
                draws.move_to(tau)
                m = np.abs(y - tau)
                for gamma in GAMMAS:
                    sens = ps.SensitivityParam(gamma)
                    tstat = studentized_full_chain(*_oracle_sums(m, sens, engine), m, sens)
                    observed = randdist.observed_statistics(sample, tau, sens)[1]
                    for t in OBSERVED + (observed,):
                        want = (tstat <= t).astype(float)
                        below = draws.weights_at_most(sens, {"studentized": t})["studentized"]
                        decisions += 1
                        got = draws._studentized_at_most(t)
                        assert_array_equal(got, want, err_msg=f"{name} {tau} {gamma} {t}")
                        if mode == "exact":
                            assert below == float(draws._w @ want)
                        else:
                            assert below == np.count_nonzero(want) / engine.draws
    # each decision asked twice; some gathered, others computed over every draw
    assert 0 < len(gathered) < decisions * 2
    # the sign of the mean cannot settle draws near the ends of the float range
    assert not {"underflow", "overflow"} & set(gathered)


def _decide(draws, sens, t):
    draws.weights_at_most(sens, {"studentized": t})
    return draws._studentized_at_most(t)


def _oracle(draws, sens, engine):
    m = draws.m
    return studentized_full_chain(*_oracle_sums(m, sens, engine), m, sens)


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
    tstat = _oracle(draws, sens, engine)
    draws.weights_at_most(sens, {"mean": 0.0})
    means = np.unique(draws._out.abar[draws._out.abar != 0.0])
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
                assert_array_equal(_decide(draws, sens, t), (tstat <= t).astype(float),
                                   err_msg=f"a={a!r} side={side} t={t!r}")
    assert edges >= 4


@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_gamma_one_enumerates_no_squares(monkeypatch, mode):
    squares = []
    original = randdist._enumerate_exact

    def recording(m, s1, s2=None, k=None):
        squares.append(s2 is not None)
        return original(m, s1, s2, k)

    monkeypatch.setattr(randdist, "_enumerate_exact", recording)
    engine, sens = ENGINES[mode], ps.SensitivityParam(1.0)
    for name in ("random", "constant", "ties-at-tau", "two-pairs"):
        y, taus = SAMPLES[name]
        draws = randdist.SignDraws(ps.PairedSample(y), taus[0], engine)
        # at c = 0 the squares are read only outside _SETTLED_SUMSQ: all m = 0
        for tau in (tau for tau in taus if np.any(y - tau)):
            draws.move_to(tau)
            tstat = _oracle(draws, sens, engine)
            # every draw's own statistic and its neighbours are observed values
            finite = np.unique(tstat[np.isfinite(tstat)])[::7]
            near = np.concatenate([finite, np.nextafter(finite, np.inf),
                                   np.nextafter(finite, -np.inf)])
            for t in OBSERVED + tuple(near):
                assert_array_equal(_decide(draws, sens, t), (tstat <= t).astype(float),
                                   err_msg=f"{name} {tau} {t!r}")
    assert mode != "exact" or squares and not any(squares)


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
        tstat = _oracle(draws, sens, engine)
        big = np.unique(np.abs(tstat[np.isfinite(tstat)]))[-4:]
        around = [limit * (1 + k * 1e-15) for k in range(-4, 5)]
        ts = [*big, *np.nextafter(big, 0.0), *around, 1e300]
        for t in ts + [-t for t in ts]:
            assert_array_equal(_decide(draws, sens, t), (tstat <= t).astype(float),
                               err_msg=f"{spread} {gamma} {t!r}")
            cuts = randdist._cuts(t, n, sumsq, sens.sign_bias)
            if t * t < (n - 1) * (0.5 / randdist._DEGENERATE_RTOL - 1.0):
                assert not any(map(math.isnan, cuts))
            else:
                assert str(cuts) == str((0.0, math.nan) if t > 0 else (math.nan, -0.0))
