"""Worst-case reference distributions over biased sign assignments.

For a given sample, hypothesized value and bias bound, the test statistic is
referred to the distribution of the assignment statistics over sign vectors
drawn +1 with probability theta.  The non-studentized distribution collects
the means of those statistics; the studentized one divides each draw's mean
by that draw's own standard-error estimate.  Small samples are enumerated
exactly over all ``2**n`` sign vectors; larger ones use seeded Monte Carlo.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Union

import numpy as np

from .core import PairedSample, SensitivityParam
from .rng import SeedLike, as_seed_sequence

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

# Bytes an exact SignDraws holds per sign vector, all a search holds: the
# signed sums, + counts, weights, both statistics, the scratch array and the
# mask (tracemalloc measured 57 at 18 pairs).
_EXACT_BYTES_PER_DRAW = 64

# Peak bytes an exact build holds per sign vector: the statistics and
# weights, the sort and merge of two kinds, and the first distribution while
# the second is made (tracemalloc measured 112 at 18 pairs).
_EXACT_BUILD_BYTES_PER_DRAW = 120

# Share of physical memory that one allocation may plan to use.  Work above
# it is refused, not attempted: near all of memory the machine swaps or the
# process is killed.  A constant, so the refusal (exit 2) depends only on the
# input and the machine.
_MEMORY_BUDGET_FRACTION = 0.5

# Bytes a Monte Carlo build holds per draw x pair: its float64 sign matrix.
_MC_BYTES_PER_SIGN = 8

# Signs made per Monte Carlo generation block.  A block's raw bits and
# float64 signs (12 bytes a sign, 768 KiB) fit one core's L2 cache, so the
# passes that threshold and rescale them read from cache, not memory.
_MC_BLOCK_SIGNS = 1 << 16


@dataclass(frozen=True)
class EnumSpec:
    """How to construct a reference distribution.

    Mode "auto" enumerates exactly when the sample has at most ``exact_cap``
    pairs (the default cap of 20 means about a million assignments, and on
    one core of a 2-vCPU Xeon about 0.2 s to build one reference
    distribution, 0.4 s to build both) and otherwise runs ``draws`` seeded
    Monte Carlo draws.  Mode "exact" refuses samples above the cap.  An
    exact build holds about 120 bytes per assignment and a search about
    64; work that would need more than half the machine's physical memory
    raises ValueError before allocating anything.  The seed may be an
    int or a numpy SeedSequence; results are bit-reproducible given
    ``(seed, draws)`` regardless of how work is scheduled, because draws
    consume a counter-based Philox stream in fixed order: sign ``j`` of draw
    ``b`` is made from the ``(b * n + j)``-th 32-bit half of the raw stream,
    low half of each 64-bit word first, so a parallel worker could
    regenerate any block of draws from the seed alone.  A Monte Carlo build
    holds 8 bytes per draw x pair, under the same memory budget.
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


def _check_fits(need: int, what: str, remedy: str) -> None:
    """Refuse, before allocating, work that needs more than the memory budget."""
    have = _physical_memory_bytes()
    if have is not None and need > _MEMORY_BUDGET_FRACTION * have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB, more than "
            f"{_MEMORY_BUDGET_FRACTION:.0%} of this machine's {have / 2**30:.1f} GiB; "
            f"{remedy}"
        )


def _check_exact_fits(n_pairs: int, bytes_per_draw: int) -> None:
    _check_fits(
        bytes_per_draw * 2**n_pairs,
        f"exact enumeration of {n_pairs} pairs",
        "lower the exact cap to use Monte Carlo draws",
    )


def _enumerate_exact(
    m: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    k: Union[np.ndarray, None] = None,
) -> None:
    """Fill s1 and s2 with the signed subset sums of m and m**2 over all
    ``2**n`` sign vectors, and k, when given, with their counts of + signs.

    Doubling construction: bit ``i`` of the assignment index gives the sign
    of pair ``i``, so each of the ``2**n`` vectors costs O(1) amortized.
    Each step writes the + half from the current prefix, then turns the
    prefix itself into the - half, all within the caller's arrays.  The
    counts depend on ``n`` alone, so a caller that keeps k passes it once.
    """
    s1[0] = 0.0
    s2[0] = 0.0
    if k is not None:
        k[0] = 0
    size = 1
    for mi in m:
        mi2 = mi * mi
        np.add(s1[:size], mi, out=s1[size : 2 * size])
        np.subtract(s1[:size], mi, out=s1[:size])
        np.add(s2[:size], mi2, out=s2[size : 2 * size])
        np.subtract(s2[:size], mi2, out=s2[:size])
        if k is not None:
            np.add(k[:size], 1, out=k[size : 2 * size])
        size *= 2


def _sign_cut(theta: float) -> int:
    """Raw 32-bit value below which a Monte Carlo sign is +1.

    numpy makes a float32 uniform from a raw 32-bit value ``x`` as
    ``(x >> 8) * 2**-24`` and compares it with theta rounded to float32, so
    ``u < theta`` holds exactly when ``x`` is below the returned cut.  A
    theta that rounds to 1.0 gives ``2**32``: every sign is +1.
    """
    return math.ceil(float(np.float32(theta)) * 2**24) << 8


def _draw_monte_carlo(
    m: np.ndarray, theta: float, draws: int, seed: SeedLike
) -> tuple[np.ndarray, np.ndarray]:
    """Signed sums of m and m**2 over ``draws`` iid theta-biased sign vectors.

    The ``draws x n`` sign matrix is filled a block of rows at a time by
    thresholding the raw Philox stream (see ``_sign_cut``), then reduced by
    one matrix product.  The product stays whole: BLAS row sums of a slice
    of rows can differ in the last bits from those of the full matrix.
    """
    n = m.size
    _check_fits(
        _MC_BYTES_PER_SIGN * draws * n,
        f"Monte Carlo sign matrix of {draws} draws x {n} pairs",
        "use fewer Monte Carlo draws",
    )
    signs = np.empty((draws, n))
    cut = _sign_cut(theta)
    if cut > np.iinfo(np.uint32).max:
        signs.fill(1.0)
    else:
        cut = np.uint32(cut)
        raw = np.random.Philox(as_seed_sequence(seed))
        # an even row count keeps every block's 32-bit halves in whole
        # 64-bit words, so the stream does not depend on the block size
        rows = max(2, _MC_BLOCK_SIGNS // n // 2 * 2)
        for start in range(0, draws, rows):
            block = signs[start : start + rows]
            # little-endian: each word's low half comes first, as numpy uses it
            x = raw.random_raw((block.size + 1) // 2).view(np.uint32)
            np.less(x[: block.size].reshape(block.shape), cut, out=block)
            block *= 2.0
            block -= 1.0
    sums = signs @ np.column_stack([m, m * m])
    return sums[:, 0], sums[:, 1]


class _StatBuffers(NamedTuple):
    """Per-draw arrays that ``_statistics`` writes, all of one length."""

    abar: np.ndarray
    tstat: np.ndarray
    scratch: np.ndarray
    mask: np.ndarray

    @classmethod
    def empty(cls, size: int) -> "_StatBuffers":
        return cls(np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=bool))


def _statistics(
    s1: np.ndarray,
    s2: np.ndarray,
    m: np.ndarray,
    sens: SensitivityParam,
    studentized: bool,
    out: _StatBuffers,
) -> tuple[np.ndarray, Union[np.ndarray, None]]:
    """Per-draw mean statistic and studentized statistic from signed sums.

    Both are written into ``out`` and returned as ``out.abar`` and
    ``out.tstat``, which stay valid until ``out`` is written again; the
    studentized statistic is None unless ``studentized`` is set.  It
    uses ``sum(A^2) = (1 + c^2) sum(m^2) - 2c sum(v m^2)`` with
    ``c = 2*theta - 1``, so each draw needs only the two signed sums.
    Degenerate draws (zero within-draw variance) map to 0 when the mean is
    0 and to +/-inf matching the sign of the mean otherwise.
    """
    n = m.size
    c = sens.sign_bias
    abar = np.subtract(s1, c * np.sum(m), out=out.abar)
    np.divide(abar, n, out=abar)
    if not studentized:
        return abar, None
    # the sum of squares and its tolerance pass through tstat, written last
    sumsq = np.multiply(2.0 * c, s2, out=out.tstat)
    np.subtract((1.0 + c * c) * np.sum(m * m), sumsq, out=sumsq)
    np.maximum(sumsq, 0.0, out=sumsq)
    ssd = np.multiply(n, abar, out=out.scratch)
    np.multiply(ssd, abar, out=ssd)
    np.subtract(sumsq, ssd, out=ssd)
    np.maximum(ssd, 0.0, out=ssd)
    tol = np.multiply(_DEGENERATE_RTOL, sumsq, out=sumsq)
    degenerate = np.less_equal(ssd, tol, out=out.mask)
    if n < 2:
        degenerate.fill(True)
    tstat = out.tstat
    da = abar[degenerate]
    tstat[degenerate] = np.where(da > 0, np.inf, np.where(da < 0, -np.inf, 0.0))
    if n >= 2:
        ok = np.logical_not(degenerate, out=degenerate)
        den = np.divide(ssd, n * (n - 1), out=ssd)
        np.sqrt(den, out=den)
        np.divide(abar, den, out=tstat, where=ok)
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
    abar, tstat = _statistics(
        np.array([s1]), np.array([s2]), m, sens, True, _StatBuffers.empty(1)
    )
    return float(abar[0]), float(tstat[0])


def _merge_atoms(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and locate runs of equal values; returns (order, run starts)."""
    order = np.argsort(vals)
    v = vals[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return order, starts


class SignDraws:
    """Signed sums of one sample over the engine's sign draws, at a
    hypothesized value that can move.

    The only code that makes draws: reference-distribution builds and the
    searches' reject-only decisions both read them from here.  Every
    per-draw array is allocated once, when the object is made, and each
    call writes into it, so an object kept for a whole search costs no
    allocation per evaluation.  Arrays returned by ``statistics`` are
    views into these buffers and stay valid until the next call.

    The exact enumeration does not depend on the bias bound, so it is made
    on first use after each move and kept for every bound asked at that
    value; the + counts depend only on the number of pairs and are made
    once, and the weights are kept while theta is unchanged.  Monte Carlo
    signs threshold raw random bits against theta, so they are redrawn for
    each bound from the engine's seed (common random numbers).
    """

    def __init__(self, sample: PairedSample, tau: float, engine: EnumSpec):
        n = sample.n_pairs
        self.y = sample.y
        self.mode = engine.resolve(n)
        self.engine = engine
        if self.mode == "exact":
            _check_exact_fits(n, _EXACT_BYTES_PER_DRAW)
            self.n_draws = 2**n
            self._s1 = np.empty(self.n_draws)
            self._s2 = np.empty(self.n_draws)
            self._k = None
            self._w = np.empty(self.n_draws)
        else:
            self.n_draws = engine.draws
            self._w = None
        self._out = _StatBuffers.empty(self.n_draws)
        self._theta = None
        self.move_to(tau)

    def move_to(self, tau: float) -> None:
        """Make later calls use the hypothesized value ``tau``."""
        self.tau = tau
        self.m = np.abs(self.y - tau)
        self._enumerated = False

    def statistics(
        self, sens: SensitivityParam, studentized: bool
    ) -> tuple[np.ndarray, Union[np.ndarray, None], Union[np.ndarray, None]]:
        """Per-draw mean and studentized statistics, and per-draw weights.

        The studentized statistics are None unless ``studentized`` is set.
        Exact draws weigh ``theta**k * (1 - theta)**(n - k)`` with ``k`` the
        number of + signs; Monte Carlo draws all weigh ``1 / n_draws`` and
        the weights are returned as None.
        """
        theta = sens.theta
        if self.mode == "exact":
            if not self._enumerated:
                k = None
                if self._k is None:
                    k = self._k = np.empty(self.n_draws, dtype=np.int64)
                _enumerate_exact(self.m, self._s1, self._s2, k)
                self._enumerated = True
            if theta != self._theta:
                n = self.m.size
                ks = np.arange(n + 1)
                table = theta**ks * (1.0 - theta) ** (n - ks)
                # "clip" writes straight into out; "raise" would buffer a copy
                np.take(table, self._k, out=self._w, mode="clip")
                self._theta = theta
            s1, s2 = self._s1, self._s2
        else:
            s1, s2 = _draw_monte_carlo(self.m, theta, self.engine.draws, self.engine.seed)
        abar, tstat = _statistics(s1, s2, self.m, sens, studentized, self._out)
        return abar, tstat, self._w

    def weight_at_most(self, vals: np.ndarray, t: float) -> float:
        """Total weight of the draws whose statistic is <= t.

        ``vals`` comes from the last ``statistics`` call.  Adds the same
        per-draw weights as the sorted distribution's CDF, in another
        order, so the two differ by at most ``n_draws`` roundings.
        """
        below = np.less_equal(vals, t, out=self._out.scratch)
        if self._w is None:
            return np.count_nonzero(below) / self.n_draws
        return float(self._w @ below)


def _build(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: EnumSpec,
    kinds: tuple[str, ...],
) -> tuple[ReferenceDistribution, ...]:
    if engine.resolve(sample.n_pairs) == "exact":
        _check_exact_fits(sample.n_pairs, _EXACT_BUILD_BYTES_PER_DRAW)
    draws = SignDraws(sample, tau, engine)
    abar, tstat, draw_weights = draws.statistics(sens, "studentized" in kinds)
    mode, n_draws = draws.mode, int(draws.n_draws)
    # frees the sums, counts and scratch before the sorts allocate
    del draws
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
            merged_w = counts / n_draws
        out.append(
            ReferenceDistribution(
                values=merged_vals,
                weights=merged_w,
                mode=mode,
                statistic_kind=kind,
                n_draws=n_draws,
                seed=engine.seed if mode == "monte_carlo" else None,
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
