"""The searches' reject-only decisions against the full test procedures.

``testing.rejector`` decides by the weight of the draws at or below the
observed statistic, over shared draws, and falls back to ``run_test`` only
when that weight lies within roundoff of the threshold.  Its decisions must equal ``run_test(...).reject`` exactly, with
the fallback guard as shipped, forced on for every call, and forced off,
whether one decider moves over the bias bound, over tau, or both.
"""

import tracemalloc

import numpy as np
import pytest

import pairsens as ps
from pairsens import testing
from helpers import halves_only, record_enumerations

GAMMAS = (1.0, 1.5, 2.0, 3.7, 10.0, 1000.0)
ENGINES = {
    "exact": ps.EnumSpec(mode="exact"),
    "monte_carlo": ps.EnumSpec(mode="monte_carlo", draws=1000, seed=7),
}


def _random_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for i, n in enumerate((5, 8, 10, 12)):
        y = rng.normal(loc=rng.uniform(-0.5, 1.5), scale=rng.uniform(0.5, 2.0), size=n)
        cases.append((f"random-{i}", y, float(rng.normal(scale=0.3)),
                      float(rng.choice([0.025, 0.05, 0.1]))))
    return cases


def _knife_edge_cases():
    ints = np.array([1, 1, 3, -2, 0, 1, 4, 2, 1, 5], dtype=float)
    pos = np.random.default_rng(5).lognormal(size=8)
    return [
        ("constant-at-tau", np.full(8, 3.0), 3.0, 0.05),
        ("constant-off-tau", np.full(8, 3.0), 1.0, 0.05),
        ("ties-at-tau", ints, 1.0, 0.05),
        # at gamma 1 every CDF step is a multiple of 2**-n
        ("alpha-2^-n", pos[:6], 0.0, 2.0**-6),
        ("alpha-1/16", pos, 0.0, 1 / 16),
        # no atom but the largest has that little tail weight
        ("alpha-unattainable", pos, 0.0, 1e-9),
    ]


CASES = _random_cases() + _knife_edge_cases()


def _configurations():
    for name, y, tau, alpha in CASES:
        for method in ps.METHODS:
            for alternative in ps.ALTERNATIVES:
                for mode in ENGINES:
                    yield pytest.param(y, tau, alpha, method, alternative, mode,
                                       id=f"{name}-{method}-{alternative}-{mode}")
    # one pair: only perm-t is defined without a standard error
    for alternative in ps.ALTERNATIVES:
        for mode in ENGINES:
            yield pytest.param(np.array([2.0]), 0.0, 0.05, "perm_t", alternative, mode,
                               id=f"single-pair-perm_t-{alternative}-{mode}")


@pytest.mark.parametrize("guard", ["shipped", "always", "never"])
@pytest.mark.parametrize("y, tau, alpha, method, alternative, mode", list(_configurations()))
def test_decisions_equal_run_test(monkeypatch, guard, y, tau, alpha, method, alternative, mode):
    sample = ps.PairedSample(y)
    spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative, method=method)
    engine = ENGINES[mode]
    results = [testing.run_test(sample, spec, ps.SensitivityParam(g), engine)
               for g in GAMMAS]

    fallbacks = []
    original = testing.run_test

    def counting_run_test(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(testing, "run_test", counting_run_test)
    if guard != "shipped":
        monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW",
                            np.inf if guard == "always" else 0.0)
    # one decision function for every gamma, as a changepoint search uses it
    decide = testing.rejector(sample, spec, engine)
    got = [decide(ps.SensitivityParam(g)) for g in GAMMAS]

    assert got == [r.reject for r in results]
    drawn = 0 if method == "neyman" else sum(not r.degenerate for r in results)
    if guard == "always":
        assert len(fallbacks) == drawn
    elif guard == "never":
        assert not fallbacks


def _tau_configurations():
    pos = np.random.default_rng(5).lognormal(size=8)
    ys = {
        "random": np.random.default_rng(6).normal(loc=0.7, size=9),
        "constant": np.full(8, 3.0),
        "two-pairs": np.array([0.5, 2.0]),
        "lognormal": pos,
    }
    for name, y in ys.items():
        # a y_i, other values, then the first tau again after the others
        taus = (0.1, float(y[1]), -1.0, float(np.median(y)), 3.0, 0.1, float(y[1]))
        for method in ps.METHODS:
            for alternative in ps.ALTERNATIVES:
                for mode in ENGINES:
                    yield pytest.param(y, taus, method, alternative, mode,
                                       id=f"{name}-{method}-{alternative}-{mode}")
    for alternative in ps.ALTERNATIVES:
        for mode in ENGINES:
            yield pytest.param(np.array([2.0]), (0.0, 2.0, -1.0, 0.0), "perm_t",
                               alternative, mode,
                               id=f"single-pair-perm_t-{alternative}-{mode}")


@pytest.mark.parametrize("guard", ["shipped", "always", "never"])
@pytest.mark.parametrize("y, taus, method, alternative, mode", list(_tau_configurations()))
def test_one_decider_over_taus_equals_run_test(monkeypatch, guard, y, taus, method,
                                               alternative, mode):
    sample = ps.PairedSample(y)
    engine = ENGINES[mode]
    # gamma moves too, and repeats, so kept weights meet a moved tau
    points = [(tau, GAMMAS[i % 3]) for i, tau in enumerate(taus)]

    def spec_at(tau):
        return ps.TestSpec(tau=tau, alpha=0.05, alternative=alternative, method=method)

    results = [testing.run_test(sample, spec_at(tau), ps.SensitivityParam(g), engine)
               for tau, g in points]

    fallbacks = []
    original = testing.run_test

    def counting_run_test(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(testing, "run_test", counting_run_test)
    if guard != "shipped":
        monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW",
                            np.inf if guard == "always" else 0.0)
    # one decider for the whole sequence, as an interval search uses it
    decide = testing.rejector(sample, spec_at(taus[0]), engine)
    got = [decide(ps.SensitivityParam(g), tau) for tau, g in points]

    assert got == [r.reject for r in results]
    if guard == "always":
        # every drawn decision falls back, at the tau asked, once per
        # point: a point met again is not decided again
        drawn = [tau for (tau, _), r in dict(zip(points, results)).items()
                 if method != "neyman" and not r.degenerate]
        assert [args[1].tau for args in fallbacks] == drawn
    elif guard == "never":
        assert not fallbacks


def _c11_sample():
    # criterion 11's synthetic right-skewed 20-pair sample
    rng = np.random.default_rng(2026)
    raw = rng.lognormal(mean=0.0, sigma=0.9, size=20)
    return ps.PairedSample((raw - raw.mean()) / raw.std(ddof=1) * 4.26 + 4.75)


# recorded from the bisection that called run_test at every evaluation
C11_SEARCH = {
    "perm_t": (5.855540752410889, (5.855064392089844, 5.856017112731934), (), 34),
    "studentized": (5.855540752410889, (5.855064392089844, 5.856017112731934), (), 34),
}


@pytest.mark.parametrize("method", sorted(C11_SEARCH))
def test_changepoint_enumerates_halves_only(monkeypatch, method):
    calls = record_enumerations(monkeypatch)
    sample = _c11_sample()
    res = ps.changepoint_gamma(sample, tau=0.0, alpha=0.05, method=method, grid_points=12)
    # the search's decisions chain two halves of the pairs, once: its tau
    # does not move
    assert halves_only(calls)
    assert [kind for kind, fallback in calls if not fallback] == ["halves"]
    assert (res.gamma_changepoint, res.bracket, res.inversions,
            res.n_evaluations) == C11_SEARCH[method]


# recorded from the interval search that made one rejector per tau
C11_INTERVAL = {
    ("perm_t", 1.0): (3.1608537946208637, 6.391001069039032,
                      (3.160835458389018, 3.1608537946208637),
                      (6.391001069039032, 6.391019405270878), False),
    ("perm_t", 2.0): (2.166846666260554, 8.021660503317039,
                      (2.166828330028708, 2.166846666260554),
                      (8.021660503317039, 8.021678839548883), False),
    ("studentized", 1.0): (3.1608537946208637, 6.391001069039032,
                           (3.160835458389018, 3.1608537946208637),
                           (6.391001069039032, 6.391019405270878), False),
    ("studentized", 2.0): (2.180250451739827, 8.269236305698904,
                           (2.180232115507981, 2.180250451739827),
                           (8.269236305698904, 8.26925464193075), False),
}


@pytest.mark.parametrize("method, gamma", sorted(C11_INTERVAL))
def test_interval_matches_record(method, gamma):
    res = ps.sensitivity_interval(_c11_sample(), gamma, method=method)
    assert (res.lower, res.upper, res.lower_bracket, res.upper_bracket,
            res.non_monotone) == C11_INTERVAL[(method, gamma)]


@pytest.mark.parametrize("method", ["perm_t", "studentized", "combined"])
def test_interval_evaluations_reuse_buffers(method):
    # 16 pairs: one float64 array over all sign vectors is 512 KiB
    y = np.random.default_rng(8).normal(loc=1.0, size=16)
    sample = ps.PairedSample(y)
    spec = ps.TestSpec(tau=0.0, alpha=0.05, alternative="greater", method=method)
    decide = testing.rejector(sample, spec, ps.EnumSpec(mode="exact"))
    sens = ps.SensitivityParam(2.0)
    taus = np.linspace(-0.5, 2.0, 21)
    tracemalloc.start()
    try:
        decide(sens, float(taus[0]))
        allocated = 0
        for tau in taus[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            decide(sens, float(tau))
            allocated += tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert allocated < 8 * 2**16
