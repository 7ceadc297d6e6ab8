"""Simulation replications' decisions against the sorted-distribution oracle.

``testing.rejections`` decides every method of one replication by the
searches' weight of the draws at or below each observed statistic, over one
``SignDraws``, and re-decides a method by ``run_test`` only when its weight
lies within roundoff of the threshold.
Its decisions must equal those of ``helpers.rejections_sorted``, which
compares each observed statistic with a sorted distribution's quantile,
with the guard as shipped, forced on for every method and forced off.
"""

from dataclasses import replace

import numpy as np
import pytest

import pairsens as ps
from pairsens import randdist, sim, testing
from helpers import degenerate, rejections_sorted
from test_search_decision import CASES, ENGINES, GAMMAS

METHOD_LISTS = [(m,) for m in ps.METHODS] + [
    tuple(ps.METHODS),
    ("perm_t", "neyman", "perm_t", "combined"),
]


def _configurations():
    for name, y, tau, alpha in CASES:
        for alternative in ps.ALTERNATIVES:
            for mode in ENGINES:
                yield pytest.param(y, tau, alpha, alternative, mode, METHOD_LISTS,
                                   id=f"{name}-{alternative}-{mode}")
    # one pair: only perm-t is defined without a standard error
    for alternative in ps.ALTERNATIVES:
        for mode in ENGINES:
            yield pytest.param(np.array([2.0]), 0.0, 0.05, alternative, mode,
                               [("perm_t",), ("perm_t", "perm_t")],
                               id=f"single-pair-perm_t-{alternative}-{mode}")


def _set_guard(monkeypatch, guard):
    if guard != "shipped":
        monkeypatch.setattr(testing, "_GUARD_EPS_PER_DRAW",
                            np.inf if guard == "always" else 0.0)


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("guard", ["shipped", "always", "never"])
@pytest.mark.parametrize("y, tau, alpha, alternative, mode, method_lists",
                         list(_configurations()))
def test_rejections_equal_sorted_oracle(monkeypatch, guard, y, tau, alpha, alternative,
                                        mode, method_lists):
    sample = ps.PairedSample(y)
    # spec.method is not read; a method outside every list shows that
    spec = ps.TestSpec(tau=tau, alpha=alpha, alternative=alternative, method="neyman")
    engine = ENGINES[mode]
    points = [(ps.SensitivityParam(g), methods) for g in GAMMAS for methods in method_lists]
    expected = [rejections_sorted(sample, spec, sens, engine, methods)
                for sens, methods in points]
    # the methods each call draws for: distinct, and not degenerate
    drawn = [
        sum(not testing.run_test(sample, replace(spec, method=m), sens, engine).degenerate
            for m in set(methods) if m != "neyman")
        for sens, methods in points
    ]

    fallbacks = []
    original = testing.run_test

    def counting_run_test(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(testing, "run_test", counting_run_test)
    _set_guard(monkeypatch, guard)
    for (sens, methods), want, n_drawn in zip(points, expected, drawn):
        before = len(fallbacks)
        assert testing.rejections(sample, spec, sens, engine, methods) == want
        made = fallbacks[before:]
        if guard == "always":
            # one fallback per drawing method, at the asked tau and method
            assert len(made) == n_drawn
            assert all(args[1].tau == tau for args in made)
            assert {args[1].method for args in made} <= set(methods) - {"neyman"}
        elif guard == "never":
            assert not made


@pytest.mark.parametrize("kind", ["mean", "studentized"])
@pytest.mark.parametrize("mode", sorted(ENGINES))
def test_guard_catches_roundoff_in_each_kind(monkeypatch, kind, mode):
    # every weight of one kind is moved just across the threshold, as
    # roundoff could move it: each method reading that kind must fall back
    engine = ENGINES[mode]
    original = randdist.SignDraws.weights_at_most

    def wrong_side(draws, *args, **kwargs):
        below = original(draws, *args, **kwargs)
        if kind in below:
            shift = draws.n_draws * np.finfo(float).eps
            below[kind] = threshold - shift if below[kind] >= threshold else threshold + shift
        return below

    for name, y, tau, alpha in CASES:
        sample = ps.PairedSample(y)
        spec = ps.TestSpec(tau=tau, alpha=alpha)
        threshold = 1.0 - alpha - randdist._CUM_SLACK
        for gamma in GAMMAS:
            sens = ps.SensitivityParam(gamma)
            want = rejections_sorted(sample, spec, sens, engine, ps.METHODS)
            with monkeypatch.context() as m:
                fallbacks = []
                _count_calls(m, testing, "run_test", fallbacks)
                m.setattr(randdist.SignDraws, "weights_at_most", wrong_side)
                got = testing.rejections(sample, spec, sens, engine, ps.METHODS)
            assert got == want, (name, gamma)
            reading = [mth for mth in ps.METHODS if kind in testing._KINDS[mth]
                       and not degenerate(mth, sample, tau, sens)]
            assert len(fallbacks) == len(reading), (name, gamma)


SCENARIOS = {
    "counterexample": dict(scenario="counterexample", n_pairs=10, tau=2.5, gamma=4.0),
    "favorable_normal": dict(scenario="favorable_normal", n_pairs=12, tau=0.0, gamma=2.0),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulated_rates_equal_sorted_oracle(monkeypatch, name, mode, seed):
    kwargs = dict(SCENARIOS[name], methods=list(ps.METHODS), alpha=0.05,
                  replications=60, seed=seed, engine=ENGINES[mode])
    got = ps.estimate_size_power_multi(**kwargs)
    monkeypatch.setattr(sim, "rejections", rejections_sorted)
    want = ps.estimate_size_power_multi(**kwargs)
    assert got == want
    # the rates are not all trivial, so the comparison can tell
    assert any(0.0 < r.rejection_rate < 1.0 for r in got)


@pytest.mark.parametrize("guard", ["shipped", "always", "never"])
@pytest.mark.parametrize("mode", sorted(ENGINES))
@pytest.mark.parametrize("methods", [("perm_t", "neyman", "studentized"), ("combined",),
                                     ("neyman",)])
def test_one_sign_draw_set_per_replication(monkeypatch, guard, mode, methods):
    reps = 25
    made, built = [], []
    _count_calls(monkeypatch, testing, "SignDraws", made)
    for name in ("build_f_hat", "build_g_hat", "build_pair"):
        _count_calls(monkeypatch, testing, name, built)
    _set_guard(monkeypatch, guard)
    results = ps.estimate_size_power_multi(
        "counterexample", methods, tau=2.5, alpha=0.05, gamma=4.0, n_pairs=10,
        replications=reps, seed=4, engine=ENGINES[mode])
    assert any(r.rejection_rate > 0.0 for r in results)
    drawing = [m for m in methods if m != "neyman"]
    # counterexample samples never degenerate, so every drawing method is drawn
    assert len(made) == (reps if drawing else 0)
    if guard == "never" or not drawing:
        assert built == []
    elif guard == "always":
        # each fallback is one run_test, and so one build, per drawing method
        assert len(built) == reps * len(drawing)
