"""An exact decision's split sums and its shared constant tables.

``randdist._Halves`` makes the high half's signed sums of m by one product
with a constant +/-1 table, and reads the tables that depend on n and its
rows alone from a per-process cache (``randdist._halves_tables``).  Every
split sum ``pa[a] + sb[p]`` must lie within ``2 g(n) sum(m)`` of the full
chain's sum of its draw, the premise of ``randdist._sum_cut``, and the
counts must equal the full chain's.  The shared tables must be read-only
(but for the two selections that numpy's take reads as indices), built once
for the four deciders of an interval call, bounded, and shared by deciders
of different sizes without changing a decision.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import pairsens as ps
from pairsens import cli, randdist, testing
from helpers import enumerate_exact_concat, studentized_full_chain

EXACT = ps.EnumSpec(mode="exact")
_U = np.finfo(float).eps / 2


def _sample(name, n):
    rng = np.random.default_rng(n)
    return {
        "random": (rng.normal(0.4, 1.0, n), 0.0),
        "constant": (np.full(n, 3.0), 1.0),
        "ties-at-tau": (rng.integers(-3, 4, n).astype(float), 0.0),
        "scale-2e-162": (2e-162 * rng.normal(0.4, 1.0, n), 0.0),
        "scale-1e200": (1e200 * rng.normal(0.4, 1.0, n), 0.0),
    }[name]


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("name", ["random", "constant", "ties-at-tau", "scale-2e-162",
                                  "scale-1e200"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 20])
def test_split_sums_and_counts_equal_full_chain(n, name, rows):
    y, tau = _sample(name, n)
    draws = randdist.SignDraws(ps.PairedSample(y), tau, EXACT, studentized=rows == 2)
    halves, m = draws._halves, draws.m[0]
    with np.errstate(all="ignore"):
        s1, s2, k = enumerate_exact_concat(m)
    # every split sum within 2 g(n) sum(m) of its draw's chain sum
    h, total = halves.h, float(np.sum(m))
    split = halves.pa[0, 0][:, None] + halves.sb[0][None, :]
    draw = np.arange(2**h)[:, None] + 2**h * halves.order[0][None, :]
    assert np.all(np.abs(split - s1[draw]) <= 2 * n * _U / (1 - n * _U) * total)
    rng = np.random.default_rng(7)
    for gamma in (1.0, 2.0):
        sens = ps.SensitivityParam(gamma)
        with np.errstate(all="ignore"):
            stats = {"mean": (s1 - sens.sign_bias * total) / n}
            if rows == 2 and name != "scale-1e200":
                stats["studentized"] = studentized_full_chain(s1, s2, m, sens)
        own = randdist.observed_statistics(ps.PairedSample(y), tau, sens, rows == 2
                                           and name != "scale-1e200")
        for kind, stat in stats.items():
            t_own = own[kind == "studentized"]
            for t in [t_own] + rng.choice(stat, 4).tolist():
                want = np.bincount(k[stat <= t], minlength=n + 1)
                assert_array_equal(halves.counts_at_most(kind, t, sens), want)
                assert_array_equal(halves.counts_at_most(kind, t, sens, t_own), want)


def test_shared_tables_are_read_only_but_for_the_selections():
    tables = randdist._halves_tables(17, 2, randdist._COUNT_BLOCK, randdist._OPEN_BLOCK)
    arrays = {name: t for name, t in tables._asdict().items() if isinstance(t, np.ndarray)}
    assert {name for name, t in arrays.items() if t.flags.writeable} == {"low_sel", "sel"}
    for name, table in arrays.items():
        if name not in ("low_sel", "sel"):
            with pytest.raises(ValueError):
                table.flat[0] = 0


def _counting(monkeypatch):
    builds = []
    build = randdist._halves_tables.__wrapped__

    def building(*key):
        builds.append(key[:2])
        return build(*key)

    monkeypatch.setattr(randdist, "_halves_tables", functools.lru_cache(maxsize=2)(building))
    return builds


def test_interval_builds_its_tables_once(monkeypatch, tmp_path, capsys):
    builds, made = _counting(monkeypatch), []
    init = randdist._Halves.__init__

    def initializing(halves, n, rows):
        made.append((n, rows))
        return init(halves, n, rows)

    monkeypatch.setattr(randdist._Halves, "__init__", initializing)
    raw = np.random.default_rng(5).lognormal(0.0, 0.9, 17)
    path = tmp_path / "y.csv"
    y = ((raw - raw.mean()) * 4.0 + 1.0).tolist()
    path.write_text("difference\n" + "\n".join(map(repr, y)))
    assert cli.main(["interval", "--input", str(path), "--gammas", "1,2",
                     "--method", "studentized"]) == 0
    capsys.readouterr()
    assert made == [(17, 2)] * 4
    assert builds == [(17, 2)]


def test_cache_stays_bounded_and_shared_deciders_decide_as_fresh_ones(monkeypatch):
    _counting(monkeypatch)
    engine = ps.EnumSpec(mode="exact", exact_cap=24)
    rng = np.random.default_rng(3)
    samples = {n: ps.PairedSample(rng.normal(0.5, 1.0, n)) for n in range(16, 25)}
    for n, sample in samples.items():
        testing.rejector(sample, ps.TestSpec(tau=0.0, method="perm_t"), engine)(
            ps.SensitivityParam(1.5))
        assert randdist._halves_tables.cache_info().currsize <= 2
    # three deciders alive, of three tables, called in turns
    specs = [(16, "studentized"), (17, "perm_t"), (18, "combined")]
    alive = [testing.rejector(samples[n], ps.TestSpec(tau=0.0, method=method), EXACT)
             for n, method in specs]
    points = [(ps.SensitivityParam(g), t) for g in (1.0, 2.0) for t in (-0.5, 0.3, 0.9)]
    for sens, tau in points:
        for decide, (n, method) in zip(alive, specs):
            fresh = testing.rejector(samples[n], ps.TestSpec(tau=0.0, method=method), EXACT)
            assert decide(sens, tau) == fresh(sens, tau)


# tracemalloc's peak of this move at the parent commit (numpy 2.4.6), whose
# high half's sums were taken into a (15, 9, 512) float64 step table
PARENT_BATCH_MOVE_PEAK = 1_314_318


def test_batch_move_peaks_below_the_parents():
    y = np.random.default_rng(17).normal(loc=0.5, size=17)
    draws = randdist.SignDraws(ps.PairedSample(y), 0.0, EXACT)
    taus = np.linspace(-1.0, 2.0, 15).tolist()
    draws.move_to(*taus)
    draws.move_to(0.1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        draws.move_to(*taus)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_BATCH_MOVE_PEAK - 100_000
