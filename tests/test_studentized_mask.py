"""The studentized decision mask against the full chain, bit for bit.

A decision computes the studentized statistic only for the draws whose
mean's sign leaves ``tstat <= t`` open, and settles the others by that sign.
The mask it sums must equal ``tstat <= t`` of ``helpers.studentized_full_chain``
over every draw: on random, constant, tied, one- and two-pair samples and on
samples whose sums of squares sit near either end of the float range, at
observed values of both signed zeros, both infinities and NaN, with shares
of open draws on both sides of the gather cutoff, for both engines.
"""

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
