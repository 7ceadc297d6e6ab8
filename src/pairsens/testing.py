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

# A masked weight sum this close to the reject threshold, in units of
# n_draws * eps, is re-decided from the sorted distribution.  Two float sums
# of the same n_draws weights in different orders differ by less than
# n_draws * eps (each is within (n_draws - 1) * eps / 2 of the true sum).
_GUARD_EPS_PER_DRAW = 2.0


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


def _se(sample: PairedSample, tau: float, sens: SensitivityParam) -> float:
    """Standard error of the bias-corrected differences."""
    return sample_mean_and_se(d_values(sample, tau, sens))[1]


def _degenerate(
    method: str, sample: PairedSample, tau: float, sens: SensitivityParam
) -> bool:
    """perm-t is degenerate when every ``|y_i - tau|`` is zero; every other
    method when the standard error is 0.  A degenerate test does not reject."""
    if method == "perm_t":
        return not np.any(np.abs(sample.y - tau))
    return _se(sample, tau, sens) == 0.0


def _neyman(
    sample: PairedSample, tau: float, alpha: float, sens: SensitivityParam
) -> tuple[Union[float, None], float, bool]:
    """The studentized mean (None when degenerate), the normal critical value,
    and whether the first reaches the second."""
    dbar, sd = sample_mean_and_se(d_values(sample, tau, sens))
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
    if method == "neyman":
        stat, critical, reject = _neyman(norm_sample, tau, norm_spec.alpha, sens)
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
    if _degenerate(method, norm_sample, tau, sens):
        perm_t = method == "perm_t"
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
    # the builds are looked up at call time, so wrappers see each one
    kinds = _KINDS[method]
    if len(kinds) == 2:
        dists = dict(zip(kinds, build_pair(norm_sample, tau, sens, engine)))
    else:
        build = build_f_hat if kinds == ("mean",) else build_g_hat
        dists = {kinds[0]: build(norm_sample, tau, sens, engine)}
    stats = observed_statistics(norm_sample, tau, sens, "studentized" in kinds)
    observed = dict(zip(_STATISTICS, stats))
    critical = {kind: dists[kind].quantile(1.0 - norm_spec.alpha) for kind in kinds}
    counts = [dists[kind].tail_count(observed[kind]) for kind in kinds]
    reported_critical = critical[kinds[-1]]
    if method == "combined":
        reported_critical = max(
            critical["mean"] / _se(norm_sample, tau, sens), reported_critical
        )
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
) -> Callable[..., list[bool]]:
    """Each of ``methods`` decided as ``run_test(...).reject`` would, as a
    function of ``sens`` and ``tau`` (default ``spec.tau``).

    ``stat >= quantile(p)`` holds exactly when the weight of draws at or
    below ``stat`` reaches ``p`` less the quantile's slack, so a decision is
    a masked sum, with no sort or merge, over one ``SignDraws`` that the
    methods share.  Its buffers are rewritten at each call: the enumeration
    only when tau moves, the weights only when the bias bound does, and the
    studentized statistic only for the draws whose mean's sign leaves the
    comparison open.  A sum within roundoff of the threshold is re-decided
    by ``run_test``.  A ``single_use`` decider, called once, does not keep
    its Monte Carlo sign matrix (see ``SignDraws``).
    """
    engine = engine or EnumSpec()
    norm_sample, norm_spec = _normalized(sample, spec)
    flip = spec.alternative != "greater"
    alpha = norm_spec.alpha
    unique = list(dict.fromkeys(methods))
    # neyman reads no draws
    drawing = any(_KINDS[m] for m in unique)
    draws = SignDraws(norm_sample, norm_spec.tau, engine, single_use) if drawing else None
    threshold = 1.0 - alpha - _CUM_SLACK

    def decide(sens: SensitivityParam, tau: float = spec.tau) -> list[bool]:
        t = -tau if flip else tau
        drawn = [m for m in unique if _KINDS[m] and not _degenerate(m, norm_sample, t, sens)]
        kinds = tuple(k for k in _STATISTICS if any(k in _KINDS[m] for m in drawn))
        if kinds:
            if t != draws.tau:
                draws.move_to(t)
            stats = observed_statistics(norm_sample, t, sens, "studentized" in kinds)
            observed = dict(zip(_STATISTICS, stats))
            below = draws.weights_at_most(sens, {k: observed[k] for k in kinds})
            guard = _GUARD_EPS_PER_DRAW * draws.n_draws * np.finfo(float).eps

        def one(m: str) -> bool:
            if not _KINDS[m]:
                return _neyman(norm_sample, t, alpha, sens)[2]
            if m not in drawn:
                return False
            if any(abs(below[k] - threshold) < guard for k in _KINDS[m]):
                # the build draws its own signs; only one matrix at a time
                draws.drop_signs()
                return run_test(sample, replace(spec, method=m, tau=tau), sens, engine).reject
            return all(below[k] >= threshold for k in _KINDS[m])

        decided = {m: one(m) for m in unique}
        return [decided[m] for m in methods]

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
    return _decider(sample, spec, engine, methods, single_use=True)(sens)
