"""A search decides each distinct point once.

``testing._decider`` keeps each decision by its ``(gamma, tau)`` point, so a
search that returns to a point (an interval side's grid starts and ends on
its two walk points, grid points meet bisection midpoints, the changepoint
scan starts at gamma 1) reads the kept decision.  Every point a search
visits must decide as a fresh ``rejector`` decides it alone, with the guard
as shipped and with every decision sent to ``run_test``.
"""

import numpy as np
import pytest

import pairsens as ps
from pairsens import inference, randdist, testing

SAMPLE = ps.PairedSample(np.random.default_rng(91).normal(loc=0.9, size=9))
ENGINES = {
    "exact": ps.EnumSpec(mode="exact"),
    "monte_carlo": ps.EnumSpec(mode="monte_carlo", draws=400, seed=4),
}


def _record_points(monkeypatch):
    """Record, per decider a search makes, its spec and each point it asks
    for with the decision it got."""
    deciders = []
    original = testing.rejector

    def recording(sample, spec, engine=None):
        decide, points = original(sample, spec, engine), []
        deciders.append((spec, points))

        def many(batch):
            got = decide.many(batch)
            points.extend((sens.gamma, tau, r) for (sens, tau), r in zip(batch, got))
            return got

        def recorded(sens, tau=spec.tau):
            return many([(sens, tau)])[0]

        recorded.many = many
        return recorded

    monkeypatch.setattr(inference, "rejector", recording)
    return deciders


def _search(search, method, alternative, engine):
    if search == "changepoint":
        ps.changepoint_gamma(SAMPLE, tau=0.2, method=method, alternative=alternative,
                             engine=engine, grid_points=9)
    else:
        ps.sensitivity_interval(SAMPLE, 1.7, method=method, engine=engine)


@pytest.mark.parametrize("guard", ["shipped", "always"])
@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("method", ps.METHODS)
@pytest.mark.parametrize("search, alternative", [("changepoint", "greater"),
                                                 ("changepoint", "less"),
                                                 ("interval", None)])
def test_every_visited_point_decides_as_a_fresh_rejector(monkeypatch, search, alternative,
                                                         method, mode, guard):
    if guard == "always":
        monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW", np.inf)
    engine = ENGINES[mode]
    deciders = _record_points(monkeypatch)
    _search(search, method, alternative, engine)
    revisited = 0
    for spec, points in deciders:
        revisited += len(points) - len({(g, t) for g, t, _ in points})
        for gamma, tau, got in points:
            fresh = testing.rejector(SAMPLE, spec, engine)
            assert got == fresh(ps.SensitivityParam(gamma), tau), (spec, gamma, tau)
    if search == "interval":
        # each side's grid starts and ends on its walk points
        assert revisited >= 2 * len(deciders)


def test_exact_interval_decides_fewer_points_than_it_evaluates(monkeypatch):
    deciders = _record_points(monkeypatch)
    decisions = []
    original = randdist.SignDraws.weights_at_most

    def counting(draws, *args, **kwargs):
        decisions.append(draws.tau)
        return original(draws, *args, **kwargs)

    monkeypatch.setattr(randdist.SignDraws, "weights_at_most", counting)
    ps.sensitivity_interval(SAMPLE, 1.7, method="studentized", engine=ENGINES["exact"])
    evaluated = sum(len(points) for _, points in deciders)
    distinct = sum(len({(g, t) for g, t, _ in points}) for _, points in deciders)
    assert len(decisions) == distinct < evaluated


@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("method", ps.METHODS)
@pytest.mark.parametrize("alternative", ps.ALTERNATIVES)
def test_signed_zero_taus_decide_alike(method, alternative, mode):
    # 0.0 and -0.0 are one key of the kept decisions; ties at 0 of either sign
    y = np.array([-0.0, 0.0, 0.7, -0.3, 1.9, 0.0, 2.4, -1.1])
    sample, engine = ps.PairedSample(y), ENGINES[mode]
    assert hash(0.0) == hash(-0.0) and 0.0 == -0.0
    for tau_spec in (0.0, -0.0, 1.0):
        spec = ps.TestSpec(tau=tau_spec, alternative=alternative, method=method)
        for gamma in (1.0, 1.4, 3.0):
            sens = ps.SensitivityParam(gamma)
            alone = [testing.rejector(sample, spec, engine)(sens, tau) for tau in (0.0, -0.0)]
            assert alone[0] == alone[1]
            assert alone[0] == testing.run_test(sample, ps.TestSpec(
                tau=-0.0, alternative=alternative, method=method), sens, engine).reject
            decide = testing.rejector(sample, spec, engine)
            assert [decide(sens, 0.0), decide(sens, -0.0)] == alone
