"""Shared checks for comparing Monte Carlo and exact reference distributions,
and the reference implementations that faster paths are tested against."""

import numpy as np
from scipy.special import ndtr, ndtri

from pairsens.core import (
    PairedSample,
    TestResult,
    TestSpec,
    d_values,
    sample_mean_and_se,
)
from pairsens.randdist import (
    _DEGENERATE_RTOL,
    EnumSpec,
    build_f_hat,
    build_g_hat,
    build_pair,
    observed_statistics,
)
from pairsens.rng import as_generator


def mc_quantile_consistent(exact, mc, p, n_sigma=3.0):
    """Exact CDF evaluated at the MC quantile must bracket p within binomial error.

    The MC quantile t satisfies F_mc(t) >= p > F_mc(t-); replacing the
    empirical CDF by its expectation, F_exact(t) should not sit more than
    ``n_sigma`` binomial standard errors below p, nor F_exact(t-) more than
    that above it.  Robust to atoms in the exact distribution.
    """
    t = mc.quantile(p)
    se = np.sqrt(p * (1.0 - p) / mc.n_draws)
    at_or_below = exact.cdf(t)
    strictly_below = 1.0 - exact.tail_prob(t)
    return at_or_below >= p - n_sigma * se and strictly_below <= p + n_sigma * se


def ks_distance(dist_a, dist_b):
    """Sup-norm distance between two atom-distribution CDFs."""
    grid = np.union1d(dist_a.values, dist_b.values)
    gaps = [abs(dist_a.cdf(t) - dist_b.cdf(t)) for t in grid]
    return max(gaps)


def enumerate_exact_concat(m):
    """Reference doubling enumeration that concatenates new arrays per pair.

    Returns the signed sums of m and m**2 and the count of + signs for all
    ``2**n`` sign vectors, bit ``i`` of the index giving the sign of pair
    ``i``; the in-place enumeration must equal it element for element.
    """
    s1 = np.zeros(1)
    s2 = np.zeros(1)
    k = np.zeros(1, dtype=np.int64)
    for mi in m:
        s1 = np.concatenate([s1 - mi, s1 + mi])
        mi2 = mi * mi
        s2 = np.concatenate([s2 - mi2, s2 + mi2])
        k = np.concatenate([k, k + 1])
    return s1, s2, k


def draw_monte_carlo_where(m, theta, draws, seed):
    """Reference Monte Carlo draw through float32 uniforms and ``np.where``.

    Holds the float32 uniforms, the mask and the float64 signs at once; the
    raw-bit, blocked draw must give the same signed sums bit for bit.
    """
    rng = as_generator(seed)
    u = rng.random((draws, m.size), dtype=np.float32)
    signs = np.where(u < theta, 1.0, -1.0)
    sums = signs @ np.column_stack([m, m * m])
    return sums[:, 0], sums[:, 1]


def statistics_alloc(s1, s2, m, sens, studentized):
    """Reference per-draw statistics that allocate a fresh array per step.

    The mean and, when ``studentized`` is set, the studentized statistic of
    every draw from its signed sums; non-degenerate draws are divided by a
    boolean gather and scatter.  The in-place version must equal it bit for
    bit.
    """
    n = m.size
    c = sens.sign_bias
    abar = (s1 - c * np.sum(m)) / n
    if not studentized:
        return abar, None
    sumsq = (1.0 + c * c) * np.sum(m * m) - 2.0 * c * s2
    np.maximum(sumsq, 0.0, out=sumsq)
    ssd = sumsq - n * abar * abar
    np.maximum(ssd, 0.0, out=ssd)
    degenerate = ssd <= _DEGENERATE_RTOL * sumsq
    if n < 2:
        degenerate = np.ones_like(degenerate)
    tstat = np.empty_like(abar)
    ok = ~degenerate
    if np.any(ok):
        tstat[ok] = abar[ok] / np.sqrt(ssd[ok] / (n * (n - 1)))
    da = abar[degenerate]
    tstat[degenerate] = np.where(da > 0, np.inf, np.where(da < 0, -np.inf, 0.0))
    return abar, tstat


# The four test procedures as they were written out one by one, each with
# its own degenerate branch.  ``run_test`` and its public wrappers must give
# every ``TestResult`` field equal to these, None matched to None.


def _normalized(sample, spec):
    if spec.alternative == "greater":
        return sample, spec
    flipped = TestSpec(
        tau=-spec.tau, alpha=spec.alpha, alternative="greater", method=spec.method
    )
    return PairedSample(-sample.y), flipped


def _engine_fields(dist):
    return dist.mode, "exact" if dist.mode == "exact" else dist.n_draws


def _all_at_tau(sample, tau):
    return not np.any(np.abs(sample.y - tau))


def _se(sample, tau, sens):
    return sample_mean_and_se(d_values(sample, tau, sens))[1]


def _conservative(dist, stat):
    count = dist.tail_count(stat)
    if count is None:
        return None
    return (1 + count) / (1 + dist.n_draws)


def procedure_neyman(sample, spec, sens, engine=None):
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


def procedure_perm_t(sample, spec, sens, engine=None):
    """Permutational t: mean statistic against the non-studentized worst case."""
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


def procedure_studentized(sample, spec, sens, engine=None):
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


def procedure_combined(sample, spec, sens, engine=None):
    """Conjunction of the permutational t and studentized tests."""
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


PROCEDURES = {
    "neyman": procedure_neyman,
    "perm_t": procedure_perm_t,
    "studentized": procedure_studentized,
    "combined": procedure_combined,
}
