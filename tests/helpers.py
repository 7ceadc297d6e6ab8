"""Shared checks for comparing Monte Carlo and exact reference distributions."""

import numpy as np


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
