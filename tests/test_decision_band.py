"""Decisions settled by a weight band against decisions from the full weight.

``testing._decider`` passes the band ``threshold -/+ 2 guard`` to
``SignDraws.weights_at_most``, which may then return, for a kind, the weight
of the draws its cuts put in (a lower bound) or of those its cuts do not put
out (an upper bound) without finishing the open draws; a Monte Carlo bound
counts the draws of the product blocks read so far.  A bound is returned
only beyond the band, where the weight itself lies outside the guard on the
same side, so every decision, every ``run_test`` fallback and every search
must equal those made with ``band=None``.  Checked for exact and Monte Carlo
draws, all four methods, gammas 1, 2, 1000 and 1e9 (theta 1 in float32), many
taus, and constant data, one and two pairs, ties at tau and an alpha below
``2**-n`` that no test can attain.
"""

import numpy as np
import pytest

import pairsens as ps
from pairsens import randdist, testing
from test_search_decision import _c11_sample

SAMPLES = {
    "skewed": (np.random.default_rng(5).lognormal(0.0, 0.9, 11) - 0.6, 0.05),
    "normal": (np.random.default_rng(6).normal(0.8, 1.0, 9), 0.05),
    "constant": (np.full(7, 2.0), 0.05),
    "one-pair": (np.array([1.5]), 0.05),
    "two-pairs": (np.array([0.5, 2.0]), 0.05),
    "ties-at-tau": (np.array([1, 1, 3, -2, 0, 1, 4, 2, 1, 5], dtype=float), 0.05),
    # 2**-8 is the weight of one draw at gamma 1: no test rejects below it
    "unattainable": (np.random.default_rng(7).normal(2.0, 1.0, 8), 1e-3),
}
TAUS = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
GAMMAS = (1.0, 2.0, 1000.0, 1e9)
ENGINES = {
    "exact": ps.EnumSpec(mode="exact"),
    "monte_carlo": ps.EnumSpec(mode="monte_carlo", draws=2000, seed=3),
}
METHOD_LISTS = [(m,) for m in ps.METHODS] + [tuple(ps.METHODS)]


def _engine(mode, n):
    """``ENGINES[mode]``, but Monte Carlo draws over three product blocks, so
    that a decision can stop with its bound after the first or the second."""
    if mode == "exact":
        return ENGINES[mode]
    return ps.EnumSpec(mode="monte_carlo", draws=3 * randdist._product_rows(n), seed=3)


def _unbanded(monkeypatch):
    """Make every decision read the full weights, whatever band it passes."""
    original = randdist.SignDraws.weights_at_most

    def full(draws, sens, observed, own=None, band=None, **kwargs):
        return original(draws, sens, observed, own, **kwargs)

    monkeypatch.setattr(randdist.SignDraws, "weights_at_most", full)


def _fallbacks(monkeypatch):
    """Record the ``run_test`` calls by which a decider re-decides."""
    calls = []
    original = testing.run_test

    def recording(sample, spec, sens, engine=None):
        calls.append((spec.method, spec.tau, sens.gamma))
        return original(sample, spec, sens, engine)

    monkeypatch.setattr(testing, "run_test", recording)
    return calls


def _decisions(monkeypatch, y, alpha, engine, methods, alternative):
    """Each (tau, gamma) decision of one decider, or the error it raised,
    and the fallbacks it made."""
    with monkeypatch.context() as m:
        calls = _fallbacks(m)
        spec = ps.TestSpec(tau=0.0, alpha=alpha, alternative=alternative)
        decide = testing._decider(ps.PairedSample(y), spec, engine, methods)
        out = []
        for tau in TAUS:
            for gamma in GAMMAS:
                try:
                    out.append(decide(ps.SensitivityParam(gamma), tau))
                except ValueError as err:
                    out.append(str(err))
    return out, calls


@pytest.mark.parametrize("alternative", ps.ALTERNATIVES)
@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_banded_decisions_equal_full_weights(monkeypatch, name, mode, alternative):
    y, alpha = SAMPLES[name]
    for methods in METHOD_LISTS:
        banded = _decisions(monkeypatch, y, alpha, ENGINES[mode], methods, alternative)
        with monkeypatch.context() as m:
            _unbanded(m)
            full = _decisions(monkeypatch, y, alpha, ENGINES[mode], methods, alternative)
        assert banded == full, (name, methods)


def _weights(draws, sens, kind, t, band):
    return draws.weights_at_most(sens, {kind: t}, band=band)[kind]


@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("name", ["skewed", "normal", "ties-at-tau", "two-pairs"])
def test_bounds_bracket_the_weight(mode, name):
    # at any threshold the bound decides as the weight does; bands placed at
    # the weight, at its bounds and between, so that each way out is taken
    y, _ = SAMPLES[name]
    sample = ps.PairedSample(y)
    draws = randdist.SignDraws(sample, 0.0, _engine(mode, y.size))
    guard = testing._GUARD_EPS_PER_DRAW * draws.n_draws * testing._EPS
    taken = set()
    for tau in TAUS:
        draws.move_to(tau)
        for gamma in GAMMAS:
            sens = ps.SensitivityParam(gamma)
            try:
                stats = randdist.observed_statistics(sample, tau, sens)
            except ValueError:
                continue
            kinds = ("studentized",) if mode == "monte_carlo" else ("mean", "studentized")
            for kind, t in zip(("mean", "studentized"), stats):
                if kind not in kinds:
                    continue
                weight = _weights(draws, sens, kind, t, None)
                # a band that any weight clears from above, and from below
                lower = _weights(draws, sens, kind, t, (-1.0, -1.0))
                upper = _weights(draws, sens, kind, t, (2.0, 2.0))
                assert lower <= weight + 2 * guard and weight <= upper + 2 * guard
                for threshold in {weight, lower, upper, 0.5 * (lower + upper),
                                  lower - 3 * guard, upper + 3 * guard, 0.95}:
                    band = (threshold - 2 * guard, threshold + 2 * guard)
                    got = _weights(draws, sens, kind, t, band)
                    if got != weight:
                        taken.add("in" if got >= band[1] else "out")
                        assert got >= band[1] or got <= band[0]
                    for w in (got, weight):
                        assert abs(w - threshold) >= guard or got == weight
                    assert (got >= threshold) == (weight >= threshold)
    assert taken == {"in", "out"}


@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_thresholds_at_the_band_edges(monkeypatch, mode):
    # alpha placed so that the threshold lies a fraction of the guard or a
    # few guards from the weight or from either bound: a band narrower than
    # the guard would return a bound inside it and fall back where the weight
    # does not
    sample = ps.PairedSample(SAMPLES["skewed"][0])
    engine = _engine(mode, sample.n_pairs)
    draws = randdist.SignDraws(sample, 0.0, engine)
    guard = testing._GUARD_EPS_PER_DRAW * draws.n_draws * testing._EPS
    cases, bounded = [], 0
    for tau in (-1.0, 0.0, 0.5):
        draws.move_to(tau)
        for gamma in (1.0, 1.3, 2.0, 5.0):
            sens = ps.SensitivityParam(gamma)
            t = randdist.observed_statistics(sample, tau, sens)[1]
            edges = [_weights(draws, sens, "studentized", t, band)
                     for band in (None, (-1.0, -1.0), (2.0, 2.0))]
            alphas = [1.0 - (edge + k * guard) - randdist._CUM_SLACK
                      for edge in edges for k in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)]
            alphas = [alpha for alpha in alphas if 0.0 < alpha <= 0.5]
            bounded += len(set(edges)) > 1 and bool(alphas)
            cases += [(tau, gamma, alpha) for alpha in alphas]
    assert bounded >= 8

    def run(tau, gamma, alpha):
        with monkeypatch.context() as m:
            calls = _fallbacks(m)
            spec = ps.TestSpec(tau=tau, alpha=alpha, method="studentized")
            return testing.rejector(sample, spec, engine)(ps.SensitivityParam(gamma)), calls

    for case in cases:
        banded = run(*case)
        with monkeypatch.context() as m:
            _unbanded(m)
            assert run(*case) == banded, case


def test_changepoint_at_gamma_max_finishes_no_open_draw(monkeypatch):
    # the studentized changepoint search's first decision past gamma 1, on
    # the criterion-11 sample: the band settles it from the cut counts alone
    opened = []
    original = randdist._Halves._open

    def recording(halves, first, last, *args):
        opened.append(int(np.sum(last - first)))
        return original(halves, first, last, *args)

    monkeypatch.setattr(randdist._Halves, "_open", recording)
    spec = ps.TestSpec(tau=0.0, alpha=0.05, method="studentized")
    decide = testing.rejector(_c11_sample(), spec, ps.EnumSpec(mode="exact"))
    assert decide(ps.SensitivityParam(1000.0)) is False
    assert sum(opened) == 0


@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("method", ps.METHODS)
def test_searches_equal_unbanded(monkeypatch, mode, method):
    sample = ps.PairedSample(SAMPLES["skewed"][0])
    engine = ENGINES[mode]

    def searches():
        return (ps.changepoint_gamma(sample, tau=0.0, method=method, engine=engine,
                                     grid_points=9),
                ps.sensitivity_interval(sample, 2.0, method=method, engine=engine))

    banded = searches()
    with monkeypatch.context() as m:
        _unbanded(m)
        assert searches() == banded
