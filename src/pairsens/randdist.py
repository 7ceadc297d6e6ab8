"""Worst-case reference distributions over biased sign assignments.

For a given sample, hypothesized value and bias bound, the test statistic is
referred to the distribution of the assignment statistics over sign vectors
drawn +1 with probability theta.  The non-studentized distribution collects
the means of those statistics; the studentized one divides each draw's mean
by that draw's own standard-error estimate.  Small samples are enumerated
exactly over all ``2**n`` sign vectors; larger ones use seeded Monte Carlo.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .core import PairedSample, SensitivityParam
from .rng import SeedLike, as_generator

__all__ = [
    "EnumSpec",
    "ReferenceDistribution",
    "SignDraws",
    "build_f_hat",
    "build_g_hat",
    "build_pair",
    "observed_statistics",
]

# Slack when comparing cumulative weights to a requested probability.
# Absorbs float literals (0.95 parses one ulp above 19/20) and cumsum drift
# across up to ~1e6 atoms; never perturbs a quantile by more than one atom.
_CUM_SLACK = 1e-12

# A draw is degenerate when its within-draw sum of squared deviations is
# this small relative to its raw sum of squares (zero variance up to
# roundoff); mathematically that happens only when all entries coincide.
_DEGENERATE_RTOL = 1e-12

# Peak bytes an exact build holds per enumerated sign vector: the signed sums,
# + counts, weights, both statistics, their temporaries and the sort of two
# kinds (tracemalloc measured 136 at 18 pairs).
_EXACT_BYTES_PER_DRAW = 144


@dataclass(frozen=True)
class EnumSpec:
    """How to construct a reference distribution.

    Mode "auto" enumerates exactly when the sample has at most ``exact_cap``
    pairs (the default cap of 20 means about a million assignments and about
    half a second per reference-distribution build on one core) and
    otherwise runs ``draws`` seeded Monte Carlo draws.  Mode "exact" refuses
    samples above the cap.  An exact enumeration that would need more than
    the machine's physical memory (about 150 bytes per assignment) raises
    ValueError before allocating anything.  The seed may be an
    int or a numpy SeedSequence; results are bit-reproducible given
    ``(seed, draws)`` regardless of how work is scheduled, because draws
    consume a counter-based Philox stream in fixed order (draw ``b`` owns
    the ``b``-th block of uniforms, so a parallel worker could regenerate
    any block from the seed alone).
    """

    mode: str = "auto"
    exact_cap: int = 20
    draws: int = 10_000
    seed: SeedLike = 0

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "monte_carlo"):
            raise ValueError("mode must be 'auto', 'exact' or 'monte_carlo'")
        if not (0 <= int(self.exact_cap) <= 30):
            raise ValueError("exact_cap must be between 0 and 30")
        if int(self.draws) < 1:
            raise ValueError("draws must be a positive integer")

    def resolve(self, n_pairs: int) -> str:
        """Pick "exact" or "monte_carlo" for a sample of ``n_pairs`` pairs."""
        if self.mode == "monte_carlo":
            return "monte_carlo"
        if self.mode == "exact":
            if n_pairs > self.exact_cap:
                raise ValueError(
                    f"exact enumeration requested for {n_pairs} pairs "
                    f"but exact_cap is {self.exact_cap}"
                )
            return "exact"
        return "exact" if n_pairs <= self.exact_cap else "monte_carlo"

    def reseeded(self, seed: SeedLike) -> "EnumSpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class ReferenceDistribution:
    """Empirical distribution of a statistic over assignment draws.

    Atoms are sorted ascending with duplicate values merged (weights summed)
    so quantile and tail queries are a binary search.  Atoms may be +/-inf
    (degenerate studentized draws).  In Monte Carlo mode ``counts`` holds the
    integer multiplicity of each atom and ``weights == counts / n_draws``;
    in exact mode ``n_draws`` is the number of enumerated assignments.
    """

    values: np.ndarray
    weights: np.ndarray
    mode: str
    statistic_kind: str
    n_draws: int
    seed: SeedLike = None
    counts: Union[np.ndarray, None] = None
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _tail: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("distribution needs at least one atom")
        if v.shape != w.shape:
            raise ValueError("values and weights must have equal length")
        if np.any(np.isnan(v)):
            raise ValueError("atoms must not be NaN")
        if np.any(v[1:] < v[:-1]):
            raise ValueError("atoms must be sorted ascending")
        total = float(np.sum(w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError("mode must be 'exact' or 'monte_carlo'")
        if self.statistic_kind not in ("mean", "studentized"):
            raise ValueError("statistic_kind must be 'mean' or 'studentized'")
        for name, arr in (("values", v), ("weights", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.counts is not None:
            c = np.asarray(self.counts)
            c.flags.writeable = False
            object.__setattr__(self, "counts", c)
        object.__setattr__(self, "_cum", np.cumsum(w))
        # suffix sums, one longer than the atoms: _tail[i] = weight of atoms >= values[i]
        tail = np.zeros(v.size + 1)
        tail[:-1] = np.cumsum(w[::-1])[::-1]
        object.__setattr__(self, "_tail", tail)

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)

    def quantile(self, p: float) -> float:
        """Left-continuous generalized inverse: smallest atom with CDF >= p."""
        if not (0.0 < p < 1.0):
            raise ValueError("quantile probability must be in (0, 1)")
        idx = int(np.searchsorted(self._cum, p - _CUM_SLACK, side="left"))
        return float(self.values[min(idx, self.values.size - 1)])

    def tail_prob(self, t: float) -> float:
        """Total weight of atoms >= t (the worst-case p-value at statistic t)."""
        idx = int(np.searchsorted(self.values, t, side="left"))
        return float(min(max(self._tail[idx], 0.0), 1.0))

    def tail_count(self, t: float) -> Union[int, None]:
        """Number of Monte Carlo draws >= t; None in exact mode."""
        if self.counts is None:
            return None
        idx = int(np.searchsorted(self.values, t, side="left"))
        return int(np.sum(self.counts[idx:]))

    def cdf(self, t: float) -> float:
        """Total weight of atoms <= t."""
        idx = int(np.searchsorted(self.values, t, side="right"))
        return float(self._cum[idx - 1]) if idx > 0 else 0.0

    def mean(self) -> float:
        return float(np.sum(self.values * self.weights))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.sum(self.weights * (self.values - mu) ** 2))


def _physical_memory_bytes() -> Union[int, None]:
    """Installed physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_exact_fits(n_pairs: int) -> None:
    """Refuse, before allocating, an enumeration larger than physical memory."""
    need = _EXACT_BYTES_PER_DRAW * 2**n_pairs
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"exact enumeration of {n_pairs} pairs needs about {need / 2**30:.1f} GiB "
            f"but this machine has {have / 2**30:.1f} GiB; "
            f"lower the exact cap to use Monte Carlo draws"
        )


def _enumerate_exact(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed subset sums of m and m**2 plus the count of + signs per vector.

    Doubling construction: bit ``i`` of the assignment index gives the sign
    of pair ``i``, so each of the ``2**n`` vectors costs O(1) amortized.
    Each step writes the + half from the current prefix, then turns the
    prefix itself into the - half, all within arrays allocated once.
    """
    _check_exact_fits(m.size)
    total = 1 << m.size
    s1 = np.zeros(total)
    s2 = np.zeros(total)
    k = np.zeros(total, dtype=np.int64)
    size = 1
    for mi in m:
        mi2 = mi * mi
        np.add(s1[:size], mi, out=s1[size : 2 * size])
        np.subtract(s1[:size], mi, out=s1[:size])
        np.add(s2[:size], mi2, out=s2[size : 2 * size])
        np.subtract(s2[:size], mi2, out=s2[:size])
        np.add(k[:size], 1, out=k[size : 2 * size])
        size *= 2
    return s1, s2, k


def _draw_monte_carlo(
    m: np.ndarray, theta: float, draws: int, seed: SeedLike
) -> tuple[np.ndarray, np.ndarray]:
    """Signed sums of m and m**2 over ``draws`` iid theta-biased sign vectors."""
    rng = as_generator(seed)
    # 24-bit uniforms are ample for thresholding against theta and cut the
    # generation cost of large simulations roughly in half
    u = rng.random((draws, m.size), dtype=np.float32)
    signs = np.where(u < theta, 1.0, -1.0)
    sums = signs @ np.column_stack([m, m * m])
    return sums[:, 0], sums[:, 1]


def _statistics(
    s1: np.ndarray, s2: np.ndarray, m: np.ndarray, sens: SensitivityParam
) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw mean statistic and studentized statistic from signed sums.

    Uses ``sum(A^2) = (1 + c^2) sum(m^2) - 2c sum(v m^2)`` with
    ``c = 2*theta - 1``, so each draw needs only the two signed sums.
    Degenerate draws (zero within-draw variance) map to 0 when the mean is
    0 and to +/-inf matching the sign of the mean otherwise.
    """
    n = m.size
    c = sens.sign_bias
    abar = (s1 - c * np.sum(m)) / n
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


def observed_statistics(
    sample: PairedSample, tau: float, sens: SensitivityParam
) -> tuple[float, float]:
    """Observed mean and studentized statistics on the atoms' arithmetic path.

    The observed assignment (signs of ``y - tau``, ties +1) is one of the
    enumerated sign vectors, and its statistics must tie its own atom
    bit-for-bit or worst-case p-values lose that atom's weight to roundoff.
    The signed sums are therefore accumulated left to right exactly as the
    doubling enumeration does, then pushed through the same transform.
    Mathematically the results equal ``mean(d)`` and ``mean(d)/se(d)``.
    """
    resid = sample.y - tau
    m = np.abs(resid)
    s1 = 0.0
    s2 = 0.0
    for ri, mi in zip(resid, m):
        if ri < 0.0:
            s1 -= mi
            s2 -= mi * mi
        else:
            s1 += mi
            s2 += mi * mi
    abar, tstat = _statistics(np.array([s1]), np.array([s2]), m, sens)
    return float(abar[0]), float(tstat[0])


def _merge_atoms(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and locate runs of equal values; returns (order, run starts)."""
    order = np.argsort(vals)
    v = vals[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return order, starts


class SignDraws:
    """Signed sums of one ``(sample, tau)`` over the engine's sign draws.

    The only code that makes draws: reference-distribution builds and the
    searches' reject-only decisions both read them from here.  The exact
    enumeration does not depend on the bias bound, so it is made on first
    use and kept for every later bound asked of the same object; Monte Carlo
    signs threshold uniforms against theta, so they are redrawn for each
    bound from the engine's seed (common random numbers).
    """

    def __init__(self, sample: PairedSample, tau: float, engine: EnumSpec):
        self.m = np.abs(sample.y - tau)
        self.mode = engine.resolve(sample.n_pairs)
        self.engine = engine
        self.n_draws = 2**sample.n_pairs if self.mode == "exact" else engine.draws
        self._enumeration = None

    def statistics(
        self, sens: SensitivityParam
    ) -> tuple[np.ndarray, np.ndarray, Union[np.ndarray, None]]:
        """Per-draw mean and studentized statistics, and per-draw weights.

        Exact draws weigh ``theta**k * (1 - theta)**(n - k)`` with ``k`` the
        number of + signs; Monte Carlo draws all weigh ``1 / n_draws`` and
        the weights are returned as None.
        """
        theta = sens.theta
        if self.mode == "exact":
            if self._enumeration is None:
                self._enumeration = _enumerate_exact(self.m)
            s1, s2, k = self._enumeration
            n = self.m.size
            ks = np.arange(n + 1)
            table = theta**ks * (1.0 - theta) ** (n - ks)
            weights = table[k]
        else:
            s1, s2 = _draw_monte_carlo(self.m, theta, self.engine.draws, self.engine.seed)
            weights = None
        abar, tstat = _statistics(s1, s2, self.m, sens)
        return abar, tstat, weights

    def weight_at_most(
        self, vals: np.ndarray, weights: Union[np.ndarray, None], t: float
    ) -> float:
        """Total weight of the draws whose statistic is <= t.

        Adds the same per-draw weights as the sorted distribution's CDF, in
        another order, so the two differ by at most ``n_draws`` roundings.
        """
        below = vals <= t
        if weights is None:
            return np.count_nonzero(below) / self.n_draws
        return float(weights @ below)


def _build(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: EnumSpec,
    kinds: tuple[str, ...],
) -> tuple[ReferenceDistribution, ...]:
    draws = SignDraws(sample, tau, engine)
    abar, tstat, draw_weights = draws.statistics(sens)
    by_kind = {"mean": abar, "studentized": tstat}

    out = []
    for kind in kinds:
        vals = by_kind[kind]
        order, starts = _merge_atoms(vals)
        merged_vals = vals[order][starts]
        if draw_weights is not None:
            merged_w = np.add.reduceat(draw_weights[order], starts)
            counts = None
        else:
            counts = np.diff(np.concatenate((starts, [vals.size])))
            merged_w = counts / draws.n_draws
        out.append(
            ReferenceDistribution(
                values=merged_vals,
                weights=merged_w,
                mode=draws.mode,
                statistic_kind=kind,
                n_draws=int(draws.n_draws),
                seed=engine.seed if draws.mode == "monte_carlo" else None,
                counts=counts,
            )
        )
    return tuple(out)


def build_f_hat(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> ReferenceDistribution:
    """Distribution of the mean assignment statistic over biased sign draws.

    Exact mode weights each of the ``2**n`` sign vectors by
    ``theta**k * (1 - theta)**(n - k)`` with ``k`` the number of + signs;
    Monte Carlo mode is the empirical distribution of seeded iid draws.
    Pairs with ``|y_i - tau| = 0`` contribute the constant 0 to every draw.
    """
    return _build(sample, tau, sens, engine or EnumSpec(), ("mean",))[0]


def build_g_hat(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> ReferenceDistribution:
    """Distribution of the studentized assignment statistic.

    The standard error in the denominator is recomputed within each sign
    draw, never held fixed at the observed assignment.
    """
    return _build(sample, tau, sens, engine or EnumSpec(), ("studentized",))[0]


def build_pair(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: Union[EnumSpec, None] = None,
) -> tuple[ReferenceDistribution, ReferenceDistribution]:
    """Both reference distributions from one shared set of assignment draws."""
    return _build(sample, tau, sens, engine or EnumSpec(), ("mean", "studentized"))
