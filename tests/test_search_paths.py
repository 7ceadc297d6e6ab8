"""The changepoint and interval searches against their written-out oracles.

``inference.rejector`` is replaced by a recorder, so each search's evaluated
points can be compared in order.  Most cases decide from a stub indicator
(monotone, with holes, with rejecting islands, everywhere, nowhere, or
random steps); a few decide with the real rejector.  Each search must
evaluate the same points as the oracle and return a result with the same
``repr``, or raise the same error.
"""

import bisect
import math

import numpy as np
import pytest

import pairsens as ps
from pairsens import inference, testing
from helpers import changepoint_gamma_oracle, invert_one_side_oracle


class Recorder:
    """Stands in for ``inference.rejector`` and records every evaluation.

    ``indicator(alternative, point)`` decides; when it is None, the real
    rejector does.  The point, ``point_of(sens, tau)``, is the bias bound in
    a changepoint search and the hypothesized value in an interval search.
    A search asks through the batch form ``many``, a list of ``(sens,
    tau)``; the oracles ask one point at a time.  Both record the same
    points in the same order.
    """

    def __init__(self, indicator, point_of):
        self.indicator, self.point_of = indicator, point_of
        self.points = []

    def __call__(self, sample, spec, engine=None):
        real = testing.rejector(sample, spec, engine) if self.indicator is None else None

        def many(points):
            at = [self.point_of(sens, tau) for sens, tau in points]
            self.points.extend((spec.alternative, point) for point in at)
            if real is not None:
                return real.many(points)
            return [bool(self.indicator(spec.alternative, point)) for point in at]

        def decide(sens, tau=spec.tau):
            return many([(sens, tau)])[0]

        decide.many = many
        return decide


def _outcome(call):
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _differ(monkeypatch, indicator, new, old, point_of):
    """Run ``new`` and ``old`` on fresh recorders; both must match."""
    runs = []
    for call in (new, old):
        recorder = Recorder(indicator, point_of)
        monkeypatch.setattr(inference, "rejector", recorder)
        runs.append((_outcome(call), recorder.points))
    assert runs[0][1] == runs[1][1]
    assert runs[0][0] == runs[1][0]
    return runs[0]


def _changepoints(monkeypatch, indicator, sample, **kwargs):
    return _differ(
        monkeypatch,
        indicator,
        lambda: ps.changepoint_gamma(sample, **kwargs),
        lambda: changepoint_gamma_oracle(sample, **kwargs),
        lambda sens, tau: sens.gamma,
    )


def _invert_one_side_oracle(rejects, *args):
    # the oracle decides one point at a time, and also returns an
    # ``infinite`` flag, which the endpoint repeats
    endpoint, bracket, _, non_monotone = invert_one_side_oracle(
        lambda t: rejects([t])[0], *args)
    return endpoint, bracket, non_monotone


def _intervals(monkeypatch, indicator, sample, **kwargs):
    def old():
        with monkeypatch.context() as m:
            m.setattr(inference, "_invert_one_side", _invert_one_side_oracle)
            return ps.sensitivity_interval(sample, **kwargs)

    def new():
        return ps.sensitivity_interval(sample, **kwargs)

    return _differ(monkeypatch, indicator, new, old, lambda sens, tau: tau)


def _steps(edges, flags):
    """Piecewise-constant indicator: ``flags[i]`` below ``edges[i]``, the last
    flag at and above the last edge."""
    return lambda x: flags[bisect.bisect_right(edges, x)]


# ---------------------------------------------------------------- changepoint

CP_SAMPLE = ps.PairedSample([0.4, 1.3, -0.2, 2.1, 0.9])

CP_INDICATORS = {
    "threshold_3.7": lambda g: g < 3.7,
    "threshold_at_one": lambda g: g < 1.0,
    "threshold_1.0004": lambda g: g < 1.0004,
    "threshold_1.03": lambda g: g < 1.03,
    "threshold_10": lambda g: g <= 10.0,
    "threshold_57.3": lambda g: g < 57.3,
    "threshold_999.99": lambda g: g < 999.99,
    "everywhere": lambda g: True,
    "nowhere": lambda g: False,
    # the first midpoint on [1, 1000] falls into the hole, the scan finds
    # rejections above it and the search bisects again towards 700
    "hole_catches_bisection": lambda g: g < 700.0 and not 400.0 < g < 500.6,
    "holes_below": lambda g: g < 8.0 and not 1.5 < g < 2.2 and not 3.0 < g < 3.4,
    "hole_near_one": lambda g: g < 1.04 and not 1.01 < g < 1.02,
    "island_above": lambda g: g < 3.0 or 5.0 < g < 5.5,
    "islands_above": lambda g: g < 2.0 or 2.6 < g < 2.9 or 9.5 < g < 11.0,
    "island_near_gamma_max": lambda g: g < 1.02 or 1.035 < g < 1.045,
}


# on [1, 19] the first midpoint is exactly 10, where midpoints turn geometric
@pytest.mark.parametrize("gamma_max", [1.05, 12.0, 19.0, 1000.0])
@pytest.mark.parametrize("name", sorted(CP_INDICATORS))
def test_changepoint_matches_oracle(monkeypatch, name, gamma_max):
    indicator = CP_INDICATORS[name]
    for grid_points in (0, 1, 2, 7, 50):
        for tol in (1e-3, 0.37, 1e-9):
            _changepoints(monkeypatch, lambda alt, g: indicator(g), CP_SAMPLE, tau=0.0,
                          gamma_max=gamma_max, tol=tol, grid_points=grid_points)


@pytest.mark.parametrize("seed", range(40))
def test_changepoint_matches_oracle_random_steps(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    for gamma_max in (1.05, 12.0, 1000.0):
        edges = sorted(np.exp(rng.uniform(0.0, math.log(2.0 * gamma_max),
                                          rng.integers(1, 9))).tolist())
        flags = [bool(rng.random() < 0.85)] + (rng.random(len(edges)) < 0.4).tolist()
        indicator = _steps(edges, flags)
        for grid_points in (2, 13, 50):
            _changepoints(monkeypatch, lambda alt, g: indicator(g), CP_SAMPLE, tau=0.0,
                          gamma_max=gamma_max, tol=1e-3, grid_points=grid_points)


def test_changepoint_cases_reach_every_branch(monkeypatch):
    def run(name, **kwargs):
        out, points = _changepoints(monkeypatch, lambda alt, g: CP_INDICATORS[name](g),
                                    CP_SAMPLE, tau=0.0, **kwargs)
        return out, len(points)

    out, _ = run("hole_catches_bisection", gamma_max=1000.0)
    assert "monotone=False" in out and "gamma_changepoint=700.0" in out
    out, _ = run("island_above", gamma_max=1000.0)
    assert "monotone=False" in out and "gamma_changepoint=5.5" in out
    out, n = run("everywhere", gamma_max=12.0)
    assert "exceeded_gamma_max=True" in out and n == 2
    out, n = run("nowhere", gamma_max=12.0)
    assert "rejects_at_gamma_one=False" in out and n == 1
    out, _ = run("threshold_3.7", gamma_max=1.05)
    assert "exceeded_gamma_max=True" in out


# ------------------------------------------------------------------- interval

IV_SAMPLES = {
    "spread": ps.PairedSample([0.3, 1.1, -0.4, 2.0]),
    "constant": ps.PairedSample([3.0, 3.0, 3.0]),
    "zeros": ps.PairedSample([0.0, 0.0]),
    "wide": ps.PairedSample([1.0e6, 3.0e6, -2.5e6]),
}


def _bounds(lower, upper):
    """Greater rejects below ``lower``, less rejects above ``upper``."""
    return lambda alt, t: t < lower if alt == "greater" else t > upper


def _iv_indicators(sample):
    c = float(sample.y.mean())
    s = float(sample.y.max() - sample.y.min()) or max(abs(float(sample.y[0])), 1.0)
    return {
        "monotone": _bounds(c - 0.3 * s, c + 0.45 * s),
        "center_rejected": _bounds(c + 2.7 * s, c + 3.1 * s),
        "far_out": _bounds(c - 37.0 * s, c + 1000.0 * s),
        "touching": _bounds(c, c),
        "crossed": _bounds(c + 0.5 * s, c - 0.5 * s),
        "everywhere": lambda alt, t: True,
        "nowhere": lambda alt, t: False,
        "greater_only": lambda alt, t: alt == "greater" and t < c - s,
        # a non-rejected hole inside the rejecting side, seen by the precheck
        "holes": lambda alt, t: (
            t < c - 0.2 * s and not c - 0.9 * s < t < c - 0.7 * s
            if alt == "greater"
            else t > c + 0.2 * s and not c + 0.55 * s < t < c + 0.6 * s
        ),
        "island_beyond": lambda alt, t: (
            t < c - 3.0 * s or c - 1.5 * s < t < c - 1.2 * s
            if alt == "greater"
            else t > c + 3.0 * s or c + 1.25 * s < t < c + 1.5 * s
        ),
    }


@pytest.mark.parametrize("sample_name", sorted(IV_SAMPLES))
@pytest.mark.parametrize("name", sorted(_iv_indicators(IV_SAMPLES["spread"])))
def test_interval_matches_oracle(monkeypatch, sample_name, name):
    sample = IV_SAMPLES[sample_name]
    indicator = _iv_indicators(sample)[name]
    for precheck_points in (0, 2, 3, 17):
        for tol in (None, 0.0, -1.0, 0.05):
            for max_expansions in (0, 1, 60):
                _intervals(monkeypatch, indicator, sample, gamma=1.5, tol=tol,
                           max_expansions=max_expansions, precheck_points=precheck_points)


@pytest.mark.parametrize("seed", range(40))
def test_interval_matches_oracle_random_steps(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    sample = IV_SAMPLES["spread"]
    c = float(sample.y.mean())
    sides = {}
    for alt in ("greater", "less"):
        edges = sorted((c + rng.normal(scale=3.0, size=rng.integers(1, 7))).tolist())
        flags = (rng.random(len(edges) + 1) < 0.5).tolist()
        # mostly the right tail for each side: rejecting far out on its own end
        if rng.random() < 0.8:
            flags[0 if alt == "greater" else -1] = True
        sides[alt] = _steps(edges, flags)
    for precheck_points in (3, 9, 17):
        for max_expansions in (1, 4, 60):
            _intervals(monkeypatch, lambda alt, t: sides[alt](t), sample, gamma=2.0,
                       max_expansions=max_expansions, precheck_points=precheck_points)


def test_interval_cases_reach_every_branch(monkeypatch):
    sample = IV_SAMPLES["spread"]
    indicators = _iv_indicators(sample)

    def run(name, **kwargs):
        return _intervals(monkeypatch, indicators[name], sample, gamma=1.5, **kwargs)[0]

    assert "non_monotone=True" in run("holes")
    assert "non_monotone=True" in run("island_beyond")
    assert "lower=-inf, upper=inf" in run("nowhere")
    assert run("everywhere") == ("RuntimeError",
                                 "could not find a non-rejected hypothesis value")
    assert run("monotone", max_expansions=0)[0] == "RuntimeError"
    assert run("center_rejected", max_expansions=1)[0] == "RuntimeError"
    assert run("crossed")[0] == "ValueError"


# ------------------------------------------------------- the real rejector

@pytest.mark.parametrize("method", ["perm_t", "studentized", "combined", "neyman"])
def test_real_searches_match_oracle(monkeypatch, method):
    y = np.random.default_rng(91).normal(loc=0.9, size=11)
    sample = ps.PairedSample(y)
    for alternative in ("greater", "less"):
        signed = ps.PairedSample(y if alternative == "greater" else -y)
        _changepoints(monkeypatch, None, signed, tau=0.0, method=method,
                      alternative=alternative, grid_points=9)
    _intervals(monkeypatch, None, sample, gamma=1.7, method=method)
    engine = ps.EnumSpec(mode="monte_carlo", draws=500, seed=4)
    _changepoints(monkeypatch, None, sample, tau=0.0, method=method, engine=engine,
                  grid_points=5)
    _intervals(monkeypatch, None, sample, gamma=1.3, method=method, engine=engine,
               tol=1e-4, precheck_points=5)
