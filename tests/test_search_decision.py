"""The searches' reject-only decisions against the full test procedures.

``testing.rejector`` decides by a masked weight sum over shared draws and
falls back to ``run_test`` only when that sum lies within roundoff of the
threshold.  Its decisions must equal ``run_test(...).reject`` exactly, with
the fallback guard as shipped, forced on for every call, and forced off.
"""

import numpy as np
import pytest

import pairsens as ps
from pairsens import randdist, testing

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
def test_changepoint_enumerates_once(monkeypatch, method):
    enumerated = []
    original = randdist._enumerate_exact

    def counting_enumerate(m):
        enumerated.append(m.size)
        return original(m)

    monkeypatch.setattr(randdist, "_enumerate_exact", counting_enumerate)
    res = ps.changepoint_gamma(_c11_sample(), tau=0.0, alpha=0.05, method=method,
                               grid_points=12)
    assert enumerated == [20]
    assert (res.gamma_changepoint, res.bracket, res.inversions,
            res.n_evaluations) == C11_SEARCH[method]
