"""Sensitivity-analysis test procedures for the sample average treatment effect.

Four procedures share the bias-corrected mean statistic: a large-sample
normal test, the classical permutational t against the non-studentized
worst-case distribution, its studentized counterpart, and the conjunction
of the last two.  All are one-sided; the "less" alternative runs the
"greater" machinery on the negated sample, so every reported result is on
the sign-normalized scale where reject means statistic >= critical value.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence, Union

import numpy as np

from ._normal import ndtr, ndtri
from .core import (
    PairedSample,
    SensitivityParam,
    TestResult,
    TestSpec,
    d_values,
    sample_mean_and_se,
)
from .randdist import (
    _CUM_SLACK,
    EnumSpec,
    SignDraws,
    build_f_hat,
    build_g_hat,
    build_pair,
    observed_statistics,
)

__all__ = [
    "rejections",
    "rejector",
    "run_test",
    "test_combined",
    "test_neyman",
    "test_perm_t",
    "test_studentized",
]

# A decision's weight this close to the reject threshold, in units of
# n_draws * eps, is re-decided from the sorted distribution.  The sorted
# distribution's CDF adds the n_draws per-draw weights one by one, within
# (n_draws - 1) * eps / 2 of their true sum.  A Monte Carlo weight is a
# count of draws over n_draws, rounded once; an exact one is ``table @
# counts`` over the n + 1 counts of + signs (``SignDraws.weights_at_most``),
# within (2n + 2) * eps / 2 of the same sum.  Either differs from the CDF by
# less than 2 * n_draws * eps for every n >= 1.
_GUARD_EPS_PER_DRAW = 2.0

# float64's machine epsilon: np.finfo costs a lookup a decision
_EPS = 2.0**-52


def _normalized(sample: PairedSample, spec: TestSpec) -> tuple[PairedSample, TestSpec]:
    """Reduce a "less" alternative to "greater" on the negated sample."""
    if spec.alternative == "greater":
        return sample, spec
    return PairedSample(-sample.y), replace(spec, tau=-spec.tau, alternative="greater")


# The reference distributions each method compares its observed statistic
# with: "mean" is the non-studentized worst case, "studentized" the per-draw
# studentized one.  neyman reads none; it uses a normal quantile.
_KINDS = {
    "neyman": (),
    "perm_t": ("mean",),
    "studentized": ("studentized",),
    "combined": ("mean", "studentized"),
}

# The kinds in the order observed_statistics and SignDraws.statistics
# return their statistics.
_STATISTICS = ("mean", "studentized")


def _mean_se(sample: PairedSample, tau: float, sens: SensitivityParam) -> tuple[float, float]:
    """Mean and standard error of the bias-corrected differences."""
    return sample_mean_and_se(d_values(sample, tau, sens))


def _degenerate(
    method: str, all_tied: bool, mean_se: Union[tuple[float, float], None]
) -> bool:
    """perm-t is degenerate when every ``|y_i - tau|`` is zero (``all_tied``);
    every other method when the standard error of ``_mean_se`` is 0.  A
    degenerate test does not reject."""
    return all_tied if method == "perm_t" else mean_se[1] == 0.0


def _neyman(mean_se: tuple[float, float], alpha: float) -> tuple[Union[float, None], float, bool]:
    """The studentized mean (None when degenerate), the normal critical value,
    and whether the first reaches the second, from ``_mean_se``."""
    dbar, sd = mean_se
    critical = ndtri(1.0 - alpha)
    if sd == 0.0:
        return None, critical, False
    stat = dbar / sd
    return stat, critical, bool(stat >= critical)


def run_test(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """Run the procedure ``spec.method`` names.

    Each procedure compares an observed statistic with the 1 - alpha
    quantile of the reference distributions ``_KINDS`` names for it:

    - ``neyman``: the studentized mean against a standard normal quantile;
    - ``perm_t``: the bias-corrected mean against the non-studentized
      worst case;
    - ``studentized``: the studentized mean against the worst case with
      per-draw studentization;
    - ``combined``: both of the last two, from one set of assignment draws.
      It rejects exactly when both reject; the reported critical value is
      the larger of the two thresholds on the studentized scale.

    The p-value upper bound is the reference distribution's tail weight at
    the observed statistic, the larger of the two for ``combined``; Monte
    Carlo results also report the conservative ``(1 + count) / (1 + draws)``
    variant.  A degenerate test (see ``_degenerate``) does not reject.
    """
    norm_sample, norm_spec = _normalized(sample, spec)
    method, tau = spec.method, norm_spec.tau
    reported = dict(
        method=method,
        tau=spec.tau,
        gamma=sens.gamma,
        alpha=spec.alpha,
        alternative=spec.alternative,
    )
    perm_t = method == "perm_t"
    # perm-t reads no standard error; every other method reads one, once
    mean_se = None if perm_t else _mean_se(norm_sample, tau, sens)
    if method == "neyman":
        stat, critical, reject = _neyman(mean_se, norm_spec.alpha)
        return TestResult(
            **reported,
            statistic=stat,
            critical_value=critical,
            p_value_upper=1.0 if stat is None else ndtr(-stat),
            reject=reject,
            degenerate=stat is None,
            mode="normal",
        )
    engine = engine or EnumSpec()
    all_tied = perm_t and not np.any(np.abs(norm_sample.y - tau))
    if _degenerate(method, all_tied, mean_se):
        dbar = observed_statistics(norm_sample, tau, sens, studentized=False)[0] if perm_t else None
        mode = engine.resolve(norm_sample.n_pairs)
        return TestResult(
            **reported,
            statistic=dbar,
            critical_value=0.0 if perm_t else None,
            p_value_upper=1.0,
            reject=False,
            degenerate=True,
            mode=mode,
            n_draws="exact" if mode == "exact" else engine.draws,
        )
    kinds = _KINDS[method]
    stats = observed_statistics(norm_sample, tau, sens, "studentized" in kinds)
    # the builds are looked up at call time, so wrappers see each one
    if len(kinds) == 2:
        dists = dict(zip(kinds, build_pair(norm_sample, tau, sens, engine)))
    else:
        build = build_f_hat if kinds == ("mean",) else build_g_hat
        dists = {kinds[0]: build(norm_sample, tau, sens, engine)}
    observed = dict(zip(_STATISTICS, stats))
    critical = {kind: dists[kind].quantile(1.0 - norm_spec.alpha) for kind in kinds}
    counts = [dists[kind].tail_count(observed[kind]) for kind in kinds]
    reported_critical = critical[kinds[-1]]
    if method == "combined":
        reported_critical = max(critical["mean"] / mean_se[1], reported_critical)
    dist = dists[kinds[0]]
    return TestResult(
        **reported,
        statistic=observed[kinds[-1]],
        critical_value=reported_critical,
        p_value_upper=max(dists[kind].tail_prob(observed[kind]) for kind in kinds),
        reject=all(observed[kind] >= critical[kind] for kind in kinds),
        mode=dist.mode,
        n_draws="exact" if dist.mode == "exact" else dist.n_draws,
        p_value_upper_conservative=(
            None if counts[0] is None else (1 + max(counts)) / (1 + dist.n_draws)
        ),
    )


def test_neyman(
    sample: PairedSample, spec: TestSpec, sens: SensitivityParam
) -> TestResult:
    """``run_test`` with the large-sample normal test, whatever ``spec.method``."""
    return run_test(sample, replace(spec, method="neyman"), sens)


def test_perm_t(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """``run_test`` with the permutational t, whatever ``spec.method``."""
    return run_test(sample, replace(spec, method="perm_t"), sens, engine)


def test_studentized(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """``run_test`` with the studentized test, whatever ``spec.method``."""
    return run_test(sample, replace(spec, method="studentized"), sens, engine)


def test_combined(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """``run_test`` with the conjunction of the permutational t and
    studentized tests, whatever ``spec.method``."""
    return run_test(sample, replace(spec, method="combined"), sens, engine)


def _decider(
    sample: PairedSample,
    spec: TestSpec,
    engine: Union[EnumSpec, None],
    methods: Sequence[str],
    single_use: bool = False,
) -> Callable[..., tuple[bool, ...]]:
    """Each of ``methods`` decided as ``run_test(...).reject`` would, as a
    function of ``sens`` and ``tau`` (default ``spec.tau``), in a tuple.

    ``stat >= quantile(p)`` holds exactly when the weight of draws at or
    below ``stat`` reaches ``p`` less the quantile's slack, so a decision is
    that weight, with no sort or merge, over one ``SignDraws`` that the
    methods share.  Exact draws are counted per number of + signs from two
    half-enumerations, and only the draws near a cut are finished one by
    one; Monte Carlo draws are counted a product block at a time, on the
    sums a build makes (``SignDraws``).  What depends on tau alone, the
    observed signed sums among it, is redone only when tau moves, and the
    weights of the + counts only when the bias bound moves.  A weight within ``guard`` of the threshold is re-decided
    by ``run_test``.  Each ``(gamma, tau)`` point is decided once: a search
    that returns to a point gets the same tuple again.  A ``single_use``
    decider, called once, does not keep its Monte Carlo sign matrix, and
    makes only as many of its draws as settle its kinds (below).  The
    standard error is computed once per point, for every method but perm-t.

    A kind whose draws settled by the cuts already put its weight outside
    the band ``threshold -/+ 2 guard`` finishes none of its open draws: the
    weight of the draws surely at or below its observed value, or of those
    not surely above it, stands in for the weight.  Such a bound decides as
    the weight would, outside the guard and on the same side, so the
    decisions, the ``run_test`` fallbacks and the searches are unchanged.  A
    Monte Carlo bound may count a prefix of the draws only, the rest counted
    neither in nor out (``SignDraws._curtailed``).  A Monte Carlo weight is
    a count over ``n_draws``, one rounding, monotone in the count.  An exact
    weight and its bound are ``fl(table @ c)`` for per-k counts ``c <=
    c'``: n + 1 non-negative terms, each within ``g = (n+1) u / (1 - (n+1)
    u)`` (u = eps/2) of its exact value relatively, in any order of summing,
    and the exact values are ordered.  A lower bound
    ``b >= threshold + 2 guard`` gives a weight ``>= b (1-g)/(1+g) >= b -
    2g b``, at least ``threshold + 2 guard - 2g (threshold + 2 guard)``; an
    upper bound ``b <= threshold - 2 guard < 1`` a weight ``<= b (1+g)/(1-g)
    < threshold - 2 guard + 2g/(1-g)``.  Both clear the guard when ``guard
    >= 2g (1 + 2 guard) / (1-g)``; with ``guard = 2 n_draws eps = 2**(n+2)
    u <= 2**-20`` (n <= 30) that is ``2**(n+1) >= (n+1)(1 + 2**-18)``, which
    holds with a factor 2 to spare at n = 1, the tight case, and more above;
    the spare, at least 4u, covers the roundings of the band's ends and of
    the guard test, under u each.
    """
    engine = engine or EnumSpec()
    norm_sample, norm_spec = _normalized(sample, spec)
    flip = spec.alternative != "greater"
    alpha = norm_spec.alpha
    unique = list(dict.fromkeys(methods))
    # neyman reads no draws
    draws = None
    if any(_KINDS[m] for m in unique):
        studentized = any("studentized" in _KINDS[m] for m in unique)
        draws = SignDraws(norm_sample, norm_spec.tau, engine, single_use, studentized)
    threshold = 1.0 - alpha - _CUM_SLACK
    if draws is not None:
        guard = _GUARD_EPS_PER_DRAW * draws.n_draws * _EPS
        band = (threshold - 2.0 * guard, threshold + 2.0 * guard)
    reads_se = any(m != "perm_t" for m in unique)
    decided = {}

    def decide(sens: SensitivityParam, tau: float = spec.tau) -> tuple[bool, ...]:
        point = (sens.gamma, tau)
        if point not in decided:
            decided[point] = decide_once(sens, tau)
        return decided[point]

    def decide_once(sens: SensitivityParam, tau: float) -> tuple[bool, ...]:
        t = -tau if flip else tau
        if draws is not None and t != draws.tau:
            draws.move_to(t)
        mean_se = _mean_se(norm_sample, t, sens) if reads_se else None
        drawn = [m for m in unique if _KINDS[m] and not _degenerate(m, draws.all_tied, mean_se)]
        kinds = tuple(k for k in _STATISTICS if any(k in _KINDS[m] for m in drawn))
        if kinds:
            stats = observed_statistics(norm_sample, t, sens, "studentized" in kinds,
                                        draws.observed_sums)
            observed = {k: stat for k, stat in zip(_STATISTICS, stats) if k in kinds}
            below = draws.weights_at_most(sens, observed, own=observed, band=band)

        def one(m: str) -> bool:
            if not _KINDS[m]:
                return _neyman(mean_se, alpha)[2]
            if m not in drawn:
                return False
            if any(abs(below[k] - threshold) < guard for k in _KINDS[m]):
                # the build draws its own signs; only one matrix at a time
                draws.drop_signs()
                return run_test(sample, replace(spec, method=m, tau=tau), sens, engine).reject
            return all(below[k] >= threshold for k in _KINDS[m])

        by_method = {m: one(m) for m in unique}
        return tuple(by_method[m] for m in methods)

    return decide


def rejector(
    sample: PairedSample,
    spec: TestSpec,
    engine: Union[EnumSpec, None] = None,
) -> Callable[..., bool]:
    """``run_test(sample, spec, sens, engine).reject`` as a function of
    ``sens`` and ``tau`` (default ``spec.tau``), for a whole search over
    either or both; see ``_decider``."""
    decide = _decider(sample, spec, engine, [spec.method])
    return lambda sens, tau=spec.tau: decide(sens, tau)[0]


def rejections(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: EnumSpec,
    methods: Sequence[str],
) -> list[bool]:
    """``run_test(sample, replace(spec, method=m), sens, engine).reject`` for
    each ``m`` in ``methods``, from one set of draws; ``spec.method`` is not
    read.  See ``_decider``."""
    return list(_decider(sample, spec, engine, methods, single_use=True)(sens))
