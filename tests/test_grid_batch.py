"""A batch of decisions equals the same decisions made one at a time.

``testing._decider``'s ``many`` decides the new points of a batch that share
a tau together (a changepoint's monotonicity grid): their standard errors,
observed statistics, weight tables and exact cut counts come from row-wise
numpy calls.  Each point must decide, fall back to ``run_test``, ask for its
weights and raise exactly as it does alone, in the same order, for every
method, both engines and alternatives, and on each knife edge.  An exact
changepoint's grid makes one chunked count pass per kind, not one per
gamma.
"""

import math

import numpy as np
import pytest

import pairsens as ps
from pairsens import inference, randdist, testing

_RNG = np.random.default_rng(23)

# name: (y, tau)
SAMPLES = {
    "skewed": (_RNG.lognormal(0.0, 0.9, 12) - 1.2, -0.3),
    # every |y - tau| equal
    "constant": (np.full(8, 2.0), 1.0),
    "two-pairs": (np.array([1.5, -0.25]), 0.0),
    # integers, 4 of them at tau = 1; no exact p-value under 1/256
    "ties-at-tau": (np.array([1.0, 3, 0, 1, 5, 2, 1, 6, 1, 4, 0, 2]), 1.0),
    # perm-t decides; the standard error overflows, so every other method raises
    "scale-1e200": (1e200 * _RNG.normal(0.3, 1.0, 12), 0.0),
    # sum(|y|**2) is finite, but not (1 + |c|)**2 times it once gamma passes
    # about 1.6: the studentized statistic raises partway through the grid
    "squares-overflow-partway": (4.1e153 * (1 + 1e-3 * np.array([1, -1, 2, 3, -2, 1.5, 2.5])),
                                 0.0),
}

ENGINES = {
    "exact": ps.EnumSpec(mode="exact"),
    "monte_carlo": ps.EnumSpec(mode="monte_carlo", draws=400, seed=4),
}

METHOD_LISTS = [[m] for m in ps.METHODS] + [list(ps.METHODS), ["combined", "perm_t"]]


def _points(tau):
    """A grid at tau, with a repeat, then a few points at another tau."""
    grid = [(ps.SensitivityParam(g), tau) for g in np.geomspace(1.0, 8.0, 14).tolist()]
    return grid + [grid[3]] + [(ps.SensitivityParam(g), tau + 0.25) for g in (1.0, 1.7)]


def _run(monkeypatch, sample, spec, engine, methods, points, batched):
    """The decisions, the ``weights_at_most`` calls and the ``run_test``
    fallbacks, in order, and the error raised, if any."""
    asked, fell_back = [], []
    weights_at_most, run_test = randdist.SignDraws.weights_at_most, testing.run_test

    def asking(draws, sens, observed, own=None, band=None):
        asked.append((sens.gamma, draws.tau, dict(observed), band))
        return weights_at_most(draws, sens, observed, own, band)

    def falling_back(sample, spec, sens, engine=None):
        fell_back.append((spec.method, sens.gamma, spec.tau))
        return run_test(sample, spec, sens, engine)

    with monkeypatch.context() as m:
        m.setattr(randdist.SignDraws, "weights_at_most", asking)
        m.setattr(testing, "run_test", falling_back)
        decide, got, error = testing._decider(sample, spec, engine, methods), [], None
        try:
            if batched:
                got = decide.many(points)
            else:
                for sens, tau in points:
                    got.append(decide(sens, tau))
        except ValueError as exc:
            error = str(exc)
    return got, asked, fell_back, error


@pytest.mark.parametrize("guard", ["shipped", "always"])
@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("alternative", ps.ALTERNATIVES)
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_batch_decides_as_one_at_a_time(monkeypatch, name, alternative, mode, guard):
    if guard == "always":
        # every decision falls back to run_test
        monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW", np.inf)
    y, tau = SAMPLES[name]
    if alternative == "less":
        y, tau = -y, -tau
    sample, points = ps.PairedSample(y), _points(tau)
    alphas = (0.05, 0.001) if name == "ties-at-tau" else (0.05,)
    for alpha in alphas:
        spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative)
        for methods in METHOD_LISTS:
            batched = _run(monkeypatch, sample, spec, ENGINES[mode], methods, points, True)
            alone = _run(monkeypatch, sample, spec, ENGINES[mode], methods, points, False)
            # the same weights asked for and the same fallbacks, in the same
            # order, so the same points decided before any error
            assert batched[1:] == alone[1:], methods
            if batched[3] is None:
                assert batched[0] == alone[0] and len(alone[0]) == len(points)


def test_knife_edges_reach_each_case(monkeypatch):
    # the grid raises partway on the squares, and the guard sends points to
    # run_test, so the differential test above sees both
    y, tau = SAMPLES["squares-overflow-partway"]
    spec = ps.TestSpec(tau=tau, method="studentized")
    got, asked, _, error = _run(monkeypatch, ps.PairedSample(y), spec, ENGINES["exact"],
                                ["studentized"], _points(tau), True)
    assert error.startswith("the squares of |y - tau| overflow")
    assert 0 < len(asked) < len(_points(tau)) - 4
    monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW", np.inf)
    y, tau = SAMPLES["skewed"]
    spec = ps.TestSpec(tau=tau, method="combined")
    _, _, fell_back, error = _run(monkeypatch, ps.PairedSample(y), spec, ENGINES["exact"],
                                  ["combined"], _points(tau), True)
    assert error is None and len(fell_back) == 16


@pytest.mark.parametrize("n, method", [(12, "combined"), (17, "studentized"), (17, "perm_t"),
                                       (20, "perm_t")])
def test_exact_grid_counts_in_one_chunked_pass(monkeypatch, n, method):
    # each _count call is one pass over a chunk of points: the grid's 49 new
    # gammas (gamma 1 is decided first) are counted in passes of at most
    # _Halves.chunk points per kind, not one pass per gamma
    passes = []
    original = randdist._Halves._count

    def counting(halves, kind, keys):
        passes.append((kind, len(keys), halves.chunk))
        return original(halves, kind, keys)

    monkeypatch.setattr(randdist._Halves, "_count", counting)
    # right-skewed, with two negative differences, so that a bias bound
    # under gamma_max stops the rejection
    rng, y = np.random.default_rng(5), np.zeros(1)
    while np.count_nonzero(y < 0) < 2:
        raw = rng.lognormal(0.0, 0.9, n)
        y = (raw - raw.mean()) / raw.std() * 4.26 + 4.75
    sample = ps.PairedSample(y)
    engine = ps.EnumSpec(mode="exact", exact_cap=20)
    runs = {}
    for grid_points in (0, 50):
        passes.clear()
        res = ps.changepoint_gamma(sample, 0.0, method=method, engine=engine,
                                   grid_points=grid_points)
        assert res.monotone and res.rejects_at_gamma_one and not res.exceeded_gamma_max
        runs[grid_points] = list(passes)
    bisection, whole = runs[0], runs[50]
    assert whole[: len(bisection)] == bisection
    assert all(size == 1 for _, size, _ in bisection)
    grid = whole[len(bisection):]
    kinds = {"perm_t": ["mean"], "studentized": ["studentized"],
             "combined": ["mean", "studentized"]}[method]
    chunk = grid[0][2]
    per_kind = math.ceil(49 / chunk)
    assert sorted({kind for kind, _, _ in grid}) == kinds
    assert len(grid) == per_kind * len(kinds)
    assert sum(size for _, size, _ in grid) == 49 * len(kinds)
    assert per_kind == (1 if n <= 17 else 3)


def test_scan_asks_for_its_grid_at_once(monkeypatch):
    # the changepoint's and the interval's scans each pass their whole grid
    # to the indicator in one call; the other steps pass one point
    batches = []
    original = inference._scan

    def scanning(rejects, grid):
        def recording(points):
            batches.append(len(points))
            return rejects(points)
        return original(recording, grid)

    monkeypatch.setattr(inference, "_scan", scanning)
    y, tau = SAMPLES["skewed"]
    ps.changepoint_gamma(ps.PairedSample(y), tau, grid_points=50)
    ps.sensitivity_interval(ps.PairedSample(y), 1.5, precheck_points=17)
    assert batches == [50, 17, 17]
