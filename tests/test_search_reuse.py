"""Work a search keeps instead of redoing.

An exact search chains only halves of the pairs, never enumerating all
``2**n`` sign vectors, unless a guard fallback builds a sorted distribution.  A Monte Carlo
search keeps the rows of its sign matrix it has made while theta is
unchanged, so an interval search at one bias bound draws its signs from one
stream per side, and redoes only the matrix product when tau moves.  No signs are drawn into a matrix or buffer
while another is alive.
The endpoints stay those recorded before either change.
"""

import weakref

import numpy as np
import pytest

import pairsens as ps
from pairsens import randdist, testing
from helpers import halves_only, record_enumerations
from test_search_decision import C11_INTERVAL, _c11_sample


@pytest.mark.parametrize("method, gamma", sorted(C11_INTERVAL))
def test_interval_enumerates_halves_only(monkeypatch, method, gamma):
    calls = record_enumerations(monkeypatch)
    sample = _c11_sample()
    res = ps.sensitivity_interval(sample, gamma, method=method)
    assert (res.lower, res.upper, res.lower_bracket, res.upper_bracket,
            res.non_monotone) == C11_INTERVAL[(method, gamma)]
    assert halves_only(calls)


MC_ENGINE = ps.EnumSpec(mode="monte_carlo", draws=1000, seed=7)

# recorded from the search that redrew the signs at every evaluation
# (78 draws per interval)
MC_INTERVAL = {
    ("perm_t", 2.0): (2.1503073851356502, 8.02518105983143,
                      (2.1502890489038045, 2.1503073851356502),
                      (8.02518105983143, 8.025199396063275), False),
    ("studentized", 1.0): (3.1173785889144936, 6.365587051700765,
                           (3.117360252682648, 3.1173785889144936),
                           (6.365587051700765, 6.365605387932611), False),
    ("studentized", 2.0): (2.1513158778871695, 8.256364270943157,
                           (2.1512975416553237, 2.1513158778871695),
                           (8.256364270943157, 8.256382607175002), False),
    ("combined", 2.0): (2.1503073851356502, 8.256364270943157,
                        (2.1502890489038045, 2.1503073851356502),
                        (8.256364270943157, 8.256382607175002), False),
}


@pytest.mark.parametrize("method, gamma", sorted(MC_INTERVAL))
def test_monte_carlo_interval_draws_once_per_side(monkeypatch, method, gamma):
    streams = []
    original = np.random.Philox

    def counting(seed):
        streams.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "Philox", counting)
    res = ps.sensitivity_interval(_c11_sample(), gamma, method=method, engine=MC_ENGINE)
    assert (res.lower, res.upper, res.lower_bracket, res.upper_bracket,
            res.non_monotone) == MC_INTERVAL[(method, gamma)]
    # each side's search has its own set of draws, kept for the whole search
    assert len(streams) == 2


@pytest.mark.parametrize("search, fallbacks", [("changepoint", True), ("interval", True),
                                               ("changepoint", False)],
                         ids=["changepoint", "interval", "changepoint-new-theta"])
def test_no_sign_matrix_beside_another(monkeypatch, search, fallbacks):
    # with fallbacks, every decision falls back to run_test, whose build
    # draws its own signs; without, a changepoint makes a new matrix at each
    # gamma.  Each array a sign source fills, a search's kept matrix or a
    # build's product block buffer, is made only when no other is alive
    if fallbacks:
        monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW", np.inf)
    alive = []
    original = randdist._SignSource.__init__

    def tracking(source, *args, **kwargs):
        assert not any(ref() is not None for ref in alive)
        original(source, *args, **kwargs)
        alive.append(weakref.ref(source.signs))

    monkeypatch.setattr(randdist._SignSource, "__init__", tracking)
    sample = ps.PairedSample(_c11_sample().y[:12])
    if search == "changepoint":
        ps.changepoint_gamma(sample, tau=0.0, method="combined", engine=MC_ENGINE,
                             grid_points=5)
    else:
        ps.sensitivity_interval(sample, 2.0, method="combined", engine=MC_ENGINE)
    assert len(alive) > 2
