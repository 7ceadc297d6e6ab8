"""Shared checks for comparing Monte Carlo and exact reference distributions,
and the reference implementations that faster paths are tested against."""

import numpy as np

from pairsens.randdist import _DEGENERATE_RTOL
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
