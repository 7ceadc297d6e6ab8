"""Sensitivity-analysis test procedures for the sample average treatment effect.

Four procedures share the bias-corrected mean statistic: a large-sample
normal test, the classical permutational t against the non-studentized
worst-case distribution, its studentized counterpart, and the conjunction
of the last two.  All are one-sided; the "less" alternative runs the
"greater" machinery on the negated sample, so every reported result is on
the sign-normalized scale where reject means statistic >= critical value.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np
from scipy.special import ndtr, ndtri

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
    ReferenceDistribution,
    SignDraws,
    build_f_hat,
    build_g_hat,
    build_pair,
    observed_statistics,
)

__all__ = [
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
    flipped = TestSpec(
        tau=-spec.tau, alpha=spec.alpha, alternative="greater", method=spec.method
    )
    return PairedSample(-sample.y), flipped


def _engine_fields(dist: ReferenceDistribution) -> tuple[str, Union[int, str]]:
    return dist.mode, "exact" if dist.mode == "exact" else dist.n_draws


def _all_at_tau(sample: PairedSample, tau: float) -> bool:
    """perm-t is degenerate when every ``|y_i - tau|`` is zero."""
    return not np.any(np.abs(sample.y - tau))


def _se(sample: PairedSample, tau: float, sens: SensitivityParam) -> float:
    """Standard error of the bias-corrected differences; 0 makes a
    studentized or combined test degenerate."""
    return sample_mean_and_se(d_values(sample, tau, sens))[1]


def _conservative(dist: ReferenceDistribution, stat: float) -> Union[float, None]:
    """(1 + count) / (1 + draws) variant for Monte Carlo distributions."""
    count = dist.tail_count(stat)
    if count is None:
        return None
    return (1 + count) / (1 + dist.n_draws)


def test_neyman(
    sample: PairedSample, spec: TestSpec, sens: SensitivityParam
) -> TestResult:
    """Large-sample test: studentized mean against a standard normal quantile."""
    norm_sample, norm_spec = _normalized(sample, spec)
    d = d_values(norm_sample, norm_spec.tau, sens)
    dbar, sd = sample_mean_and_se(d)
    critical = float(ndtri(1.0 - norm_spec.alpha))
    if sd == 0.0:
        return TestResult(
            method="neyman",
            tau=spec.tau,
            gamma=sens.gamma,
            alpha=spec.alpha,
            alternative=spec.alternative,
            statistic=None,
            critical_value=critical,
            p_value_upper=1.0,
            reject=False,
            degenerate=True,
            mode="normal",
        )
    stat = dbar / sd
    return TestResult(
        method="neyman",
        tau=spec.tau,
        gamma=sens.gamma,
        alpha=spec.alpha,
        alternative=spec.alternative,
        statistic=stat,
        critical_value=critical,
        p_value_upper=float(ndtr(-stat)),
        reject=bool(stat >= critical),
        mode="normal",
    )


def test_perm_t(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """Permutational t: mean statistic against the non-studentized worst case.

    Rejects iff the bias-corrected mean reaches the 1 - alpha quantile of
    the mean reference distribution; the reported p-value upper bound is
    that distribution's tail weight at the observed statistic.  If every
    ``|y_i - tau|`` is zero the whole comparison is degenerate and the test
    does not reject.
    """
    engine = engine or EnumSpec()
    norm_sample, norm_spec = _normalized(sample, spec)
    dbar, _ = observed_statistics(norm_sample, norm_spec.tau, sens)
    if _all_at_tau(norm_sample, norm_spec.tau):
        mode = engine.resolve(norm_sample.n_pairs)
        return TestResult(
            method="perm_t",
            tau=spec.tau,
            gamma=sens.gamma,
            alpha=spec.alpha,
            alternative=spec.alternative,
            statistic=dbar,
            critical_value=0.0,
            p_value_upper=1.0,
            reject=False,
            degenerate=True,
            mode=mode,
            n_draws="exact" if mode == "exact" else engine.draws,
        )
    fhat = build_f_hat(norm_sample, norm_spec.tau, sens, engine)
    critical = fhat.quantile(1.0 - norm_spec.alpha)
    mode, n_draws = _engine_fields(fhat)
    return TestResult(
        method="perm_t",
        tau=spec.tau,
        gamma=sens.gamma,
        alpha=spec.alpha,
        alternative=spec.alternative,
        statistic=dbar,
        critical_value=critical,
        p_value_upper=fhat.tail_prob(dbar),
        reject=bool(dbar >= critical),
        mode=mode,
        n_draws=n_draws,
        p_value_upper_conservative=_conservative(fhat, dbar),
    )


def test_studentized(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """Studentized test: same worst-case assignment law, per-draw studentization."""
    engine = engine or EnumSpec()
    norm_sample, norm_spec = _normalized(sample, spec)
    sd = _se(norm_sample, norm_spec.tau, sens)
    if sd == 0.0:
        mode = engine.resolve(norm_sample.n_pairs)
        return TestResult(
            method="studentized",
            tau=spec.tau,
            gamma=sens.gamma,
            alpha=spec.alpha,
            alternative=spec.alternative,
            statistic=None,
            critical_value=None,
            p_value_upper=1.0,
            reject=False,
            degenerate=True,
            mode=mode,
            n_draws="exact" if mode == "exact" else engine.draws,
        )
    ghat = build_g_hat(norm_sample, norm_spec.tau, sens, engine)
    _, stat = observed_statistics(norm_sample, norm_spec.tau, sens)
    critical = ghat.quantile(1.0 - norm_spec.alpha)
    mode, n_draws = _engine_fields(ghat)
    return TestResult(
        method="studentized",
        tau=spec.tau,
        gamma=sens.gamma,
        alpha=spec.alpha,
        alternative=spec.alternative,
        statistic=stat,
        critical_value=critical,
        p_value_upper=ghat.tail_prob(stat),
        reject=bool(stat >= critical),
        mode=mode,
        n_draws=n_draws,
        p_value_upper_conservative=_conservative(ghat, stat),
    )


def test_combined(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """Conjunction of the permutational t and studentized tests.

    Rejects exactly when both constituents reject.  The reported critical
    value is the larger of the two thresholds on the studentized scale, and
    the p-value upper bound is the max of the two.  Both constituents share
    one set of assignment draws.
    """
    engine = engine or EnumSpec()
    norm_sample, norm_spec = _normalized(sample, spec)
    sd = _se(norm_sample, norm_spec.tau, sens)
    if sd == 0.0:
        mode = engine.resolve(norm_sample.n_pairs)
        return TestResult(
            method="combined",
            tau=spec.tau,
            gamma=sens.gamma,
            alpha=spec.alpha,
            alternative=spec.alternative,
            statistic=None,
            critical_value=None,
            p_value_upper=1.0,
            reject=False,
            degenerate=True,
            mode=mode,
            n_draws="exact" if mode == "exact" else engine.draws,
        )
    fhat, ghat = build_pair(norm_sample, norm_spec.tau, sens, engine)
    dbar, stat = observed_statistics(norm_sample, norm_spec.tau, sens)
    p = 1.0 - norm_spec.alpha
    f_crit = fhat.quantile(p)
    g_crit = ghat.quantile(p)
    p_f = fhat.tail_prob(dbar)
    p_s = ghat.tail_prob(stat)
    cons_f = _conservative(fhat, dbar)
    cons_s = _conservative(ghat, stat)
    mode, n_draws = _engine_fields(fhat)
    return TestResult(
        method="combined",
        tau=spec.tau,
        gamma=sens.gamma,
        alpha=spec.alpha,
        alternative=spec.alternative,
        statistic=stat,
        critical_value=max(f_crit / sd, g_crit),
        p_value_upper=max(p_f, p_s),
        reject=bool(dbar >= f_crit and stat >= g_crit),
        mode=mode,
        n_draws=n_draws,
        p_value_upper_conservative=(
            None if cons_f is None else max(cons_f, cons_s)
        ),
    )


_DISPATCH = {
    "neyman": lambda sample, spec, sens, engine: test_neyman(sample, spec, sens),
    "perm_t": test_perm_t,
    "studentized": test_studentized,
    "combined": test_combined,
}


def run_test(
    sample: PairedSample,
    spec: TestSpec,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> TestResult:
    """Dispatch on ``spec.method``."""
    return _DISPATCH[spec.method](sample, spec, sens, engine)


def rejector(
    sample: PairedSample,
    spec: TestSpec,
    engine: Union[EnumSpec, None] = None,
) -> Callable[[SensitivityParam], bool]:
    """``run_test(sample, spec, sens, engine).reject`` as a function of ``sens``.

    For searches, which need only the decision.  ``stat >= quantile(p)``
    holds exactly when the weight of draws at or below ``stat`` reaches
    ``p`` (less the quantile's slack), so the decision is a masked sum over
    the draws, with no sort, merge or ``ReferenceDistribution``.  The exact
    enumeration is made once and shared by every bias bound asked of the
    returned function; per bound only the weights and the per-draw
    statistics are recomputed, on the same arithmetic path as a build.  A
    masked sum too close to the threshold for its roundoff to be ruled out
    is re-decided by ``run_test``, so the decisions are those of
    ``run_test``.
    """
    engine = engine or EnumSpec()
    method = spec.method
    if method == "neyman":
        return lambda sens: test_neyman(sample, spec, sens).reject
    norm_sample, norm_spec = _normalized(sample, spec)
    tau = norm_spec.tau
    draws = SignDraws(norm_sample, tau, engine)
    threshold = 1.0 - norm_spec.alpha - _CUM_SLACK
    guard = _GUARD_EPS_PER_DRAW * draws.n_draws * np.finfo(float).eps

    def rejects(sens: SensitivityParam) -> bool:
        if method == "perm_t":
            if _all_at_tau(norm_sample, tau):
                return False
        elif _se(norm_sample, tau, sens) == 0.0:
            return False
        abar, tstat, weights = draws.statistics(sens)
        dbar, stat = observed_statistics(norm_sample, tau, sens)
        compared = {
            "perm_t": ((abar, dbar),),
            "studentized": ((tstat, stat),),
            "combined": ((abar, dbar), (tstat, stat)),
        }[method]
        below = [draws.weight_at_most(vals, weights, t) for vals, t in compared]
        if any(abs(b - threshold) < guard for b in below):
            return run_test(sample, spec, sens, engine).reject
        return all(b >= threshold for b in below)

    return rejects
