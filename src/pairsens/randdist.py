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
from typing import Callable, Iterator, NamedTuple, Union

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

# A decision gathers the draws whose studentized statistic it must compute
# when they are at most this share of all draws, else computes it for every
# draw.  Three gathered arrays then fit in one per-draw buffer.  On one core
# of a 2-vCPU Xeon, at 17 and 20 pairs, gathering still took 0.84-0.93 of
# the full computation's time at shares of 0.29-0.33; below 15 pairs a
# decision takes under 0.2 ms either way.
_GATHER_SHARE = 1 / 3

# Draws gathered per block by ``_positions``: its only temporary, the
# block's indices, stays under 16 KiB whatever the number of draws.
_POSITIONS_BLOCK = 1 << 11

# The sign of a draw's mean settles its studentized comparison only while
# no studentized statistic can be NaN.  Within this range of sum(m**2) none
# can: nothing overflows to inf - inf, and a zero mean never meets a
# denominator that underflows to 0.
_SETTLED_SUMSQ = (2.0**-900, 2.0**900)

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

# Signs per Monte Carlo product block, at least (16 MiB of float64).  Every
# Monte Carlo product is made in these blocks of rows, whether the signs are
# kept (a search) or made a block at a time in one reused buffer (a ``test``
# build, a simulation replication, which so never hold the whole sign matrix);
# both make the same BLAS calls and give the same sums.  OpenBLAS sends a
# product with M*N*K <= 10**6 to a small-matrix kernel whose sums differ in
# the last bits; above that cutoff a block of rows gives the same rows of the
# whole matrix's one product bit for bit (OpenBLAS 0.3.31, one and two
# threads, 100 to 5000 pairs), so blocking left every result unchanged.  A
# block has M*2*n >= 2**22, over four times the cutoff.  Guarded by
# tests/test_randdist.py::TestBlockedProduct.
_MC_PRODUCT_SIGNS = 1 << 21


@dataclass(frozen=True)
class EnumSpec:
    """How to construct a reference distribution.

    Mode "auto" enumerates exactly when the sample has at most ``exact_cap``
    pairs (the default cap of 20 means about a million assignments, and on
    one core of a 2-vCPU Xeon about 0.2 s to build one reference
    distribution, 0.4 s to build both) and otherwise runs ``draws`` seeded
    Monte Carlo draws.  Mode "exact" refuses samples above the cap.  An
    exact build (``test``) holds about 120 bytes per assignment, and a
    reject-only decision (a search or a simulation replication) about 64;
    work that would need more than half the machine's physical memory
    raises ValueError before allocating anything.  The seed may be an
    int or a numpy SeedSequence; results are bit-reproducible given
    ``(seed, draws)`` and the BLAS thread count, regardless of how work is
    scheduled, because draws consume a counter-based Philox stream in fixed
    order: sign ``j`` of draw ``b`` is made from the ``(b * n + j)``-th
    32-bit half of the raw stream, low half of each 64-bit word first, so a
    parallel worker could regenerate any block of draws from the seed
    alone.  The signed sums are BLAS products, whose last bits can change
    with the thread count.  A Monte Carlo search holds its whole sign
    matrix, 8 bytes per draw x pair; a build (``test``) or a simulation
    replication makes its signs a block of rows at a time and holds at most
    about 33 MiB of them.  Both multiply in the same blocks, so they give
    the same sums, and both are refused when the whole matrix would exceed
    the memory budget.
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
    s1: Union[np.ndarray, None],
    s2: Union[np.ndarray, None] = None,
    k: Union[np.ndarray, None] = None,
) -> None:
    """Fill s1 and s2, each when given, with the signed subset sums of m and
    m**2 over all ``2**n`` sign vectors, and k, when given, with their counts
    of + signs.

    Doubling construction: bit ``i`` of the assignment index gives the sign
    of pair ``i``, so each of the ``2**n`` vectors costs O(1) amortized.
    Each step writes the + half from the current prefix, then turns the
    prefix itself into the - half, all within the caller's arrays.  The
    counts depend on ``n`` alone, so a caller that keeps k passes it once.
    """
    # m**2 only when its sums are asked for: it overflows long before m does
    filled = [] if s1 is None else [(s1, m)]
    if s2 is not None:
        filled.append((s2, m * m))
    for sums, _ in filled:
        sums[0] = 0.0
    if k is not None:
        k[0] = 0
    size = 1
    for i in range(m.size):
        for sums, v in filled:
            np.add(sums[:size], v[i], out=sums[size : 2 * size])
            np.subtract(sums[:size], v[i], out=sums[:size])
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


def _check_signs_fit(n: int, draws: int) -> None:
    """Refuse a Monte Carlo draw whose whole sign matrix exceeds the budget;
    a blocked draw is held to it too, so the refusal depends on the input
    alone."""
    _check_fits(
        _MC_BYTES_PER_SIGN * draws * n,
        f"Monte Carlo sign matrix of {draws} draws x {n} pairs",
        "use fewer Monte Carlo draws",
    )


def _sign_stream(theta: float, seed: SeedLike) -> tuple[Union[np.random.Philox, None], int]:
    """The raw bit generator and the cut of ``_sign_cut``; no generator when
    every sign is +1."""
    cut = _sign_cut(theta)
    if cut > np.iinfo(np.uint32).max:
        return None, cut
    return np.random.Philox(as_seed_sequence(seed)), np.uint32(cut)


def _generation_rows(n: int) -> int:
    # an even row count keeps every block's 32-bit halves in whole 64-bit
    # words, so the stream does not depend on the block size
    return max(2, _MC_BLOCK_SIGNS // n // 2 * 2)


def _product_rows(n: int) -> int:
    """Rows per Monte Carlo product block: the fewest whole generation
    blocks that hold ``_MC_PRODUCT_SIGNS`` signs."""
    gen = _generation_rows(n)
    return -(-_MC_PRODUCT_SIGNS // (n * gen)) * gen


def _fill_signs(signs: np.ndarray, raw: Union[np.random.Philox, None], cut: int) -> None:
    """Fill the rows of ``signs`` with the next signs of the stream, a
    generation block of rows at a time, by thresholding the raw Philox bits
    (see ``_sign_cut``)."""
    if raw is None:
        signs.fill(1.0)
        return
    rows = _generation_rows(signs.shape[1])
    for start in range(0, signs.shape[0], rows):
        block = signs[start : start + rows]
        # little-endian: each word's low half comes first, as numpy uses it
        x = raw.random_raw((block.size + 1) // 2).view(np.uint32)
        np.less(x[: block.size].reshape(block.shape), cut, out=block)
        block *= 2.0
        block -= 1.0


def _monte_carlo_signs(n: int, theta: float, draws: int, seed: SeedLike) -> np.ndarray:
    """The ``draws x n`` matrix of iid theta-biased signs."""
    _check_signs_fit(n, draws)
    signs = np.empty((draws, n))
    _fill_signs(signs, *_sign_stream(theta, seed))
    return signs


def _product_blocks(draws: int, n: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` rows of each Monte Carlo product block: blocks of
    ``_product_rows(n)`` rows, the last also taking the remainder, so no block
    is under the BLAS small-matrix cutoff unless it is the only one."""
    rows = _product_rows(n)
    last = max(0, draws // rows - 1) * rows
    for start in range(0, last, rows):
        yield start, start + rows
    yield last, draws


def _signed_sums(
    m: np.ndarray, draws: int, signs_of: Callable[[int, int], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Signed sums of m and m**2 over ``draws`` sign vectors, multiplied a
    product block at a time; ``signs_of(start, stop)`` gives those rows of
    the sign matrix, in order.  Callers that read only the sums of m get the
    m**2 column too, as a one-column product could round differently; its
    overflow passes silently, as only the studentized statistic reads it, and
    that warns of its own squares."""
    sums = np.empty((draws, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.column_stack([m, m * m])
        for start, stop in _product_blocks(draws, m.size):
            np.matmul(signs_of(start, stop), coef, out=sums[start:stop])
    return sums[:, 0], sums[:, 1]


def _draw_monte_carlo(
    m: np.ndarray, theta: float, draws: int, seed: SeedLike
) -> tuple[np.ndarray, np.ndarray]:
    """Signed sums of m and m**2 over ``draws`` iid theta-biased sign vectors.

    The same sums, bit for bit, as ``_signed_sums`` of the kept matrix of
    ``_monte_carlo_signs``, without holding it: each product block's rows are
    made in one reused buffer.
    """
    n = m.size
    _check_signs_fit(n, draws)
    # the last block, which takes the remainder, is the largest
    start, stop = list(_product_blocks(draws, n))[-1]
    buf = np.empty((stop - start, n))
    raw, cut = _sign_stream(theta, seed)

    def signs_of(start: int, stop: int) -> np.ndarray:
        block = buf[: stop - start]
        _fill_signs(block, raw, cut)
        return block

    return _signed_sums(m, draws, signs_of)


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
    """Per-draw mean statistic and, for every draw, the studentized statistic.

    Both are written into ``out`` and returned as ``out.abar`` and
    ``out.tstat``, which stay valid until ``out`` is written again; the
    studentized statistic is None unless ``studentized`` is set.  Reference
    builds need it for every draw; a decision computes it only for the draws
    the sign of the mean leaves open (``SignDraws.weight_at_most``).
    """
    c = sens.sign_bias
    abar = np.subtract(s1, c * np.sum(m), out=out.abar)
    np.divide(abar, m.size, out=abar)
    if not studentized:
        return abar, None
    return abar, _studentized(abar, s2, m, c, out.tstat, out.scratch, out.mask)


@np.errstate(divide="ignore", invalid="ignore")
def _studentized(
    abar: np.ndarray,
    s2: np.ndarray,
    m: np.ndarray,
    c: float,
    tstat: np.ndarray,
    ssd: np.ndarray,
    degenerate: np.ndarray,
) -> np.ndarray:
    """Studentized statistic of any selection of draws, from their means and
    signed sums of m**2; returns ``tstat``.

    ``ssd`` and ``degenerate`` are scratch of the selection's length, and
    ``tstat`` may be ``s2`` itself.  It uses
    ``sum(A^2) = (1 + c^2) sum(m^2) - 2c sum(v m^2)`` with ``c = 2*theta - 1``,
    so each draw needs only the two signed sums.  Degenerate draws (zero
    within-draw variance) map to 0 when the mean is 0 and to +/-inf matching
    the sign of the mean otherwise.  Every step is elementwise, so a draw's
    result does not depend on the other draws selected.  A standard error that
    underflows to 0 (data near 1e-162) divides without a warning.
    """
    n = m.size
    # the sum of squares and its tolerance pass through tstat, written last
    sumsq = np.multiply(2.0 * c, s2, out=tstat)
    np.subtract((1.0 + c * c) * np.sum(m * m), sumsq, out=sumsq)
    np.maximum(sumsq, 0.0, out=sumsq)
    ssd = np.multiply(n, abar, out=ssd)
    np.multiply(ssd, abar, out=ssd)
    np.subtract(sumsq, ssd, out=ssd)
    np.maximum(ssd, 0.0, out=ssd)
    tol = np.multiply(_DEGENERATE_RTOL, sumsq, out=sumsq)
    degenerate = np.less_equal(ssd, tol, out=degenerate)
    if n < 2:
        degenerate.fill(True)
    da = abar[degenerate]
    tstat[degenerate] = np.where(da > 0, np.inf, np.where(da < 0, -np.inf, 0.0))
    if n >= 2:
        ok = np.logical_not(degenerate, out=degenerate)
        den = np.divide(ssd, n * (n - 1), out=ssd)
        np.sqrt(den, out=den)
        np.divide(abar, den, out=tstat, where=ok)
    return tstat


def _positions(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Indices of ``mask``'s True entries, in order, written into ``out``.

    numpy's nonzero allocates its result, so it is asked one block at a
    time: a block's indices are the only temporary.
    """
    end = 0
    for lo in range(0, mask.size, _POSITIONS_BLOCK):
        (found,) = mask[lo : lo + _POSITIONS_BLOCK].nonzero()
        np.add(found, lo, out=out[end : end + found.size])
        end += found.size
    return out[:end]


def observed_statistics(
    sample: PairedSample, tau: float, sens: SensitivityParam, studentized: bool = True
) -> tuple[float, Union[float, None]]:
    """Observed mean and studentized statistics on the atoms' arithmetic path;
    the studentized statistic is None unless ``studentized`` is set.

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
        sq = mi * mi if studentized else 0.0
        if ri < 0.0:
            s1 -= mi
            s2 -= sq
        else:
            s1 += mi
            s2 += sq
    abar, tstat = _statistics(
        np.array([s1]), np.array([s2]), m, sens, studentized, _StatBuffers.empty(1)
    )
    return float(abar[0]), None if tstat is None else float(tstat[0])


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
    reject-only decisions of searches and simulation replications all read
    them from here.  Every per-draw buffer is allocated once, when the object
    is made, and each call writes into it, so an exact object kept for a
    whole search allocates nothing per evaluation that grows with the
    draws.  Arrays returned by ``statistics`` are views into these buffers
    and stay valid until the next call.

    The exact enumeration does not depend on the bias bound, so it is made
    on first use after each move and kept for every bound asked at that
    value; the sums of ``m**2`` are enumerated only once a studentized
    statistic is asked at that value.  The + counts depend only on the
    number of pairs and are made once, and the weights are kept while theta
    is unchanged.  Monte Carlo signs threshold raw random bits against
    theta; the sign matrix is kept while theta is unchanged, so a move
    redoes only its product with the new ``|y - tau|``, and a new theta
    redraws it from the engine's seed (common random numbers).  A
    ``single_use`` draw set, read at one tau and theta (a build, a
    simulation replication), keeps only the sums and makes its signs a
    product block at a time (``_draw_monte_carlo``); a move redraws them.
    Both kinds multiply in the same product blocks, so they give the same
    sums bit for bit.

    A decision (``weights_at_most``) computes the studentized statistic only
    for the draws whose mean's sign leaves the comparison open.
    """

    def __init__(
        self, sample: PairedSample, tau: float, engine: EnumSpec, single_use: bool = False
    ):
        n = sample.n_pairs
        self._single_use = single_use
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
            self._s1 = self._s2 = self._w = None
        self._signs = None
        self._out = _StatBuffers.empty(self.n_draws)
        self._theta = None
        self.move_to(tau)

    def move_to(self, tau: float) -> None:
        """Make later calls use the hypothesized value ``tau``."""
        self.tau = tau
        self.m = np.abs(self.y - tau)
        # the signed sums of m and of m**2 are redone before their next use
        self._s1_stale = self._s2_stale = True

    def drop_signs(self) -> None:
        """Free the Monte Carlo sign matrix, and the sums made from it after
        it, so the heap can return their memory; the next call redraws it."""
        if self._signs is not None:
            self._signs = self._s1 = self._s2 = None
            self._theta = None

    def _sums(self, sens: SensitivityParam, studentized: bool) -> tuple[np.ndarray, np.ndarray]:
        """The signed sums of m and, when ``studentized``, of m**2 at the
        current tau, and the weights at ``sens``; only stale ones are redone."""
        theta = sens.theta
        if self.mode == "monte_carlo":
            draws, seed = self.engine.draws, self.engine.seed
            if theta != self._theta:
                # the old matrix is freed before the new one is drawn
                self._signs = None
                if not self._single_use:
                    self._signs = _monte_carlo_signs(self.m.size, theta, draws, seed)
                self._theta = theta
                self._s1_stale = True
            if self._s1_stale:
                if self._single_use:
                    self._s1, self._s2 = _draw_monte_carlo(self.m, theta, draws, seed)
                else:
                    signs = self._signs
                    self._s1, self._s2 = _signed_sums(
                        self.m, draws, lambda start, stop: signs[start:stop]
                    )
                self._s1_stale = self._s2_stale = False
            return self._s1, self._s2
        s1 = self._s1 if self._s1_stale else None
        s2 = self._s2 if studentized and self._s2_stale else None
        if s1 is not None or s2 is not None:
            k = None
            if self._k is None:
                k = self._k = np.empty(self.n_draws, dtype=np.int64)
            _enumerate_exact(self.m, s1, s2, k)
            self._s1_stale = False
            self._s2_stale = self._s2_stale and s2 is None
        if theta != self._theta:
            n = self.m.size
            ks = np.arange(n + 1)
            table = theta**ks * (1.0 - theta) ** (n - ks)
            # "clip" writes straight into out; "raise" would buffer a copy
            np.take(table, self._k, out=self._w, mode="clip")
            self._theta = theta
        return self._s1, self._s2

    def statistics(
        self, sens: SensitivityParam, studentized: bool
    ) -> tuple[np.ndarray, Union[np.ndarray, None], Union[np.ndarray, None]]:
        """Per-draw mean and studentized statistics, and per-draw weights.

        The studentized statistics are None unless ``studentized`` is set.
        Exact draws weigh ``theta**k * (1 - theta)**(n - k)`` with ``k`` the
        number of + signs; Monte Carlo draws all weigh ``1 / n_draws`` and
        the weights are returned as None.
        """
        s1, s2 = self._sums(sens, studentized)
        abar, tstat = _statistics(s1, s2, self.m, sens, studentized, self._out)
        return abar, tstat, self._w

    def weights_at_most(
        self, sens: SensitivityParam, observed: dict[str, float]
    ) -> dict[str, float]:
        """For each kind, "mean" or "studentized", that ``observed`` names, the
        total weight of the draws whose statistic is <= its observed value.

        Adds the same per-draw weights as the sorted distribution's CDF, in
        another order, so the two differ by at most ``n_draws`` roundings.
        """
        s1, s2 = self._sums(sens, "studentized" in observed)
        _statistics(s1, s2, self.m, sens, False, self._out)
        self._sign_bias = sens.sign_bias
        return {kind: self.weight_at_most(kind, t) for kind, t in observed.items()}

    def weight_at_most(self, kind: str, t: float) -> float:
        """Total weight of the draws whose statistic of ``kind`` is <= t, at
        the bias bound of the last ``weights_at_most`` call."""
        if kind == "mean":
            below = np.less_equal(self._out.abar, t, out=self._out.scratch)
        else:
            below = self._studentized_at_most(t)
        if self._w is None:
            return np.count_nonzero(below) / self.n_draws
        return float(self._w @ below)

    def _studentized_at_most(self, t: float) -> np.ndarray:
        """1.0 where a draw's studentized statistic is <= t, else 0.0.

        A draw's studentized statistic has its mean's sign: a
        non-degenerate draw divides the mean by a positive denominator, and
        a degenerate one maps to 0 or +/-inf by that sign.  So for t >= 0
        (-0.0 too) every draw whose mean is <= 0 is in, and otherwise every
        draw whose mean is >= 0 is out.  The rest, the complement, so that a
        NaN mean is never settled, go through ``_studentized``, gathered
        into prefixes of the statistic buffer and written back in place.
        When they are more than ``_GATHER_SHARE`` of the draws, or
        ``sum(m**2)`` lies outside ``_SETTLED_SUMSQ``, every draw goes
        through it instead.
        """
        out, abar = self._out, self._out.abar
        settled_in = t >= 0
        open_ = (np.less_equal if settled_in else np.greater_equal)(abar, 0.0, out=out.mask)
        np.logical_not(open_, out=open_)
        size = np.count_nonzero(open_)
        sumsq = float(np.sum(self.m * self.m))
        c = self._sign_bias
        if size > _GATHER_SHARE * self.n_draws or not (
            _SETTLED_SUMSQ[0] < sumsq < _SETTLED_SUMSQ[1]
        ):
            tstat = _studentized(abar, self._s2, self.m, c, out.tstat, out.scratch, out.mask)
            return np.less_equal(tstat, t, out=out.scratch)
        # the positions, the means and the sums of m**2 share the tstat buffer
        at = _positions(open_, out.tstat[:size].view(np.int64))
        a = np.take(abar, at, out=out.tstat[size : 2 * size], mode="clip")
        s2 = np.take(self._s2, at, out=out.tstat[2 * size : 3 * size], mode="clip")
        tstat = _studentized(a, s2, self.m, c, s2, out.scratch[:size], out.mask[:size])
        below = out.scratch
        below.fill(1.0 if settled_in else 0.0)
        np.put(below, at, np.less_equal(tstat, t, out=tstat), mode="clip")
        return below


def _build(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: EnumSpec,
    kinds: tuple[str, ...],
) -> tuple[ReferenceDistribution, ...]:
    if engine.resolve(sample.n_pairs) == "exact":
        _check_exact_fits(sample.n_pairs, _EXACT_BUILD_BYTES_PER_DRAW)
    draws = SignDraws(sample, tau, engine, single_use=True)
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
