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

from .core import RESCALE, PairedSample, SensitivityParam, residuals
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

# Bytes per sign vector budgeted for an exact search or replication: the
# per-draw buffers it held before it counted draws from two halves of the
# pairs.  It now holds tables of 2**(n/2) entries and one block of open draws
# (``_Halves``), well under this figure whenever the figure is large, even
# with every draw open; the figure is kept so that the same inputs are
# refused (exit 2).
_EXACT_BYTES_PER_DRAW = 64

# Peak bytes a build holds per sign vector or draw, exact or Monte Carlo:
# the statistics, the sort and merge of two kinds, and the first
# distribution while the second is made.  tracemalloc measured 112 for an
# exact build at 18 pairs (its weights included) and 108 for a Monte Carlo
# build at 25 pairs x 10**6 draws, whose values are nearly all distinct.
_BUILD_BYTES_PER_DRAW = 120

# A draw's mean settles its studentized comparison only while no
# studentized statistic can be NaN.  Within this range of sum(m**2) none
# can: nothing overflows to inf - inf, and a zero mean never meets a
# denominator that underflows to 0.
_SETTLED_SUMSQ = (2.0**-900, 2.0**900)

# The unit roundoff and least normal double: np.finfo costs a lookup a call.
_UNIT_ROUNDOFF, _TINY = 2.0**-53, 2.0**-1022

# Share of physical memory that one allocation may plan to use.  Work above
# it is refused, not attempted: near all of memory the machine swaps or the
# process is killed.  A constant, so the refusal (exit 2) depends only on the
# input and the machine.
_MEMORY_BUDGET_FRACTION = 0.5

# Bytes a Monte Carlo search is budgeted per draw x pair: its float64 sign matrix.
_MC_BYTES_PER_SIGN = 8

# Bytes a single-use Monte Carlo replication is budgeted per draw beside its
# largest product block and one generation block (``_draw_set_bytes``): the
# signed sums, both statistics, the scratch array and the mask, 41 bytes,
# when it kept them for every draw (tracemalloc: 40.7 at 10 and 25 pairs x
# 10**6 draws).  Curtailed (``SignDraws._curtailed``), it keeps them for the
# rows of one product block only: at 25 pairs x 10**6 draws it peaks at
# 31.7 MiB against a figure of 72.4.  The figure is kept so that the same
# inputs are refused (exit 2).  A build holds ``_BUILD_BYTES_PER_DRAW``.
_MC_BYTES_PER_DRAW = 48

# Signs made per Monte Carlo generation block.  A block's raw bits and
# float64 signs (12 bytes a sign, 768 KiB) fit one core's L2 cache, so the
# passes that threshold and rescale them read from cache, not memory.
_MC_BLOCK_SIGNS = 1 << 16

# Signs and rows per Monte Carlo product block, at least (``_product_rows``).
# Every Monte Carlo product is made in these blocks of rows, whether the signs
# are kept (a search) or made a block at a time in one reused buffer (a
# ``test`` build, a simulation replication, which so never hold the whole sign
# matrix); both make the same BLAS calls and give the same sums.  A
# decision's products of single generation blocks with m and m**2 only
# bound its sums (``_sum_cut``, ``_own_cuts``).  OpenBLAS sends a product with
# M*N*K <= 10**6 to a small-matrix kernel whose sums differ in the last bits;
# 2**19 signs is the least power of two with M*2*n above that cutoff for
# every n.  Above it a block of rows gives the same rows of the whole matrix's
# one product bit for bit, but at two BLAS threads only from 32 rows: blocks
# of 16 rows or fewer split differently (16 rows changed the sums at 33,000
# pairs).  The floor binds from 17,477 pairs, and is capped at the rows of
# 2**21 signs, the earlier block, which binds from 69,906.  Verified with
# OpenBLAS 0.3.31 at one and two threads, 100 to 70,000 pairs; guarded by
# tests/test_randdist.py::TestBlockedProduct and TestProductThreads.
_MC_PRODUCT_SIGNS, _MC_PRODUCT_ROWS = 1 << 19, 32

# Open draws an exact decision finishes per block: those its cuts leave
# open, whose signed sums it takes from the doubling chain.  A block's
# buffers, 73 bytes a draw plus 16 a draw x pair of the high half (at most
# 1.3 MiB), are made once per ``SignDraws``, so no decision allocates
# anything that grows with its open draws.
_OPEN_BLOCK = 1 << 12

# Entries of ``cum`` an exact decider gathers at once (``_Halves._count``):
# a batch of points that share a tau is counted in chunks of at most
# ``_COUNT_BLOCK // ((n - h + 1) * 2**h)`` points, at least one, so its
# buffers, about 11 bytes a gathered entry, stay near 3 MiB, or one point's.
# At 17 pairs that is 102 points, a whole 50-point grid.
_COUNT_BLOCK = 1 << 18


@dataclass(frozen=True)
class EnumSpec:
    """How to construct a reference distribution.

    Mode "auto" enumerates exactly when the sample has at most ``exact_cap``
    pairs (the default cap of 20 means about a million assignments, and on
    one core of a 2-vCPU Xeon about 0.2 s to build one reference
    distribution, 0.4 s to build both) and otherwise runs ``draws`` seeded
    Monte Carlo draws.  Mode "exact" refuses samples above the cap.  An
    exact build (``test``) holds about 120 bytes per assignment.  A
    reject-only decision (a search or a simulation replication) holds the
    sums of two halves of the pairs, ``2**(n/2)`` each, and a fixed block of
    the draws near its cuts (see ``SignDraws``), but is budgeted at 64 bytes
    per assignment; work whose figure exceeds half the machine's physical
    memory raises ValueError before allocating anything.  The seed may be an
    int or a numpy SeedSequence; results are bit-reproducible given
    ``(seed, draws)`` and the BLAS thread count, regardless of how work is
    scheduled, because draws consume a counter-based Philox stream in fixed
    order: sign ``j`` of draw ``b`` is made from the ``(b * n + j)``-th
    32-bit half of the raw stream, low half of each 64-bit word first, so a
    parallel worker could regenerate any block of draws from the seed
    alone.  The signed sums are BLAS products, whose last bits can change
    with the thread count.  A build (``test``) makes its signs a block of
    rows at a time and holds under two blocks of them (9 MiB below 17,477
    pairs, 32 MiB below 65,536), plus its per-draw buffers.  A Monte Carlo
    decision counts its draws the same blocks at a time and stops once they
    settle it, as every draw would (``SignDraws``), making its signs a
    generation block at a time, a studentized draw settled by a bound on its
    own statistic.  A search keeps the rows it has made, budgeted as its
    whole sign matrix, 8 bytes per draw x pair; a simulation replication
    holds one block of rows and is budgeted at 48 bytes per draw besides.
    All multiply in the same blocks, so they decide on the same sums, and
    each is refused when its figure would exceed the memory budget.  A
    ``test`` build is never curtailed: its p-value and critical value read
    every draw.
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


def _rows(m: np.ndarray, squares: bool) -> np.ndarray:
    """``m`` as one row, or with ``m**2`` as a second when ``squares`` is set:
    the values whose signed sums a decision reads.  m**2 only when its sums
    are read: it overflows long before m does."""
    return np.array((m, m * m)) if squares else m[None]


def _enumerate_exact(
    m: np.ndarray,
    s1: np.ndarray,
    s2: Union[np.ndarray, None] = None,
    k: Union[np.ndarray, None] = None,
) -> None:
    """Fill s1, and s2 when given, with the signed subset sums of m and
    m**2 over all ``2**n`` sign vectors, and k, when given, with their counts
    of + signs.

    Doubling construction: bit ``i`` of the assignment index gives the sign
    of pair ``i``, so each of the ``2**n`` vectors costs O(1) amortized.
    Each step writes the + half from the current prefix, then turns the
    prefix itself into the - half, all within the caller's arrays.  Only a
    build enumerates all the pairs; a decision chains each half of them
    from its steps (``_Halves``), adding in the same order.
    """
    # m**2 only when its sums are asked for: it overflows long before m does
    filled = [(s1, m)]
    if s2 is not None:
        filled.append((s2, m * m))
    for sums, _ in filled:
        sums[0] = 0.0
    if k is not None:
        k[0] = 0
    size = 1
    # a sum that overflows is inf; a NaN mean made of it is refused by _build
    with np.errstate(over="ignore", invalid="ignore"):
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


def _draw_set_bytes(n: int, draws: int, per_draw: int) -> int:
    """Bytes a single-use Monte Carlo draw set is budgeted: its largest
    product block, one generation block's raw bits and signs, and
    ``per_draw`` bytes a draw.  A build holds about that; a replication
    holds per-draw buffers for one product block's rows only."""
    return (_MC_BYTES_PER_SIGN * (draws - _last_block_start(draws, n)) * n
            + 12 * _MC_BLOCK_SIGNS + per_draw * draws)


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
    blocks that hold ``_MC_PRODUCT_SIGNS`` signs, so ``rows * 2 * n`` is
    above OpenBLAS's small-matrix cutoff of 10**6, and ``_MC_PRODUCT_ROWS``
    rows, the floor two BLAS threads need, or the rows of four times the
    signs where those are fewer.  Verified bit for bit against 2**21-sign
    blocks at one and two threads, 100 to 70,000 pairs."""
    rows = max(-(-_MC_PRODUCT_SIGNS // n),
               min(_MC_PRODUCT_ROWS, -(-4 * _MC_PRODUCT_SIGNS // n)))
    gen = _generation_rows(n)
    return -(-rows // gen) * gen


class _SignSource:
    """The rows of a ``draws x n`` matrix of iid theta-biased signs, made in
    order from one raw Philox stream (``_sign_stream``), a generation block
    of rows at a time, by thresholding its raw bits (see ``_sign_cut``).  It
    counts the rows it has made, and makes a row only when a reader asks.

    A search's source keeps (``keep``) the rows it makes in its matrix, so a
    later decision at the same theta reads them again and makes only those
    after them; a build's or a replication's makes each product block's rows
    in one reused buffer, in order.  Whatever the buffer, the same rows get
    the same signs.
    """

    def __init__(self, n: int, theta: float, seed: SeedLike, draws: int, keep: bool = False):
        self.raw, self.cut = _sign_stream(theta, seed)
        self.gen = _generation_rows(n)
        self.theta, self.draws, self.keep, self.made = theta, draws, keep, 0
        # the whole matrix, or a buffer for the largest product block, the last
        self.signs = np.empty((draws if keep else draws - _last_block_start(draws, n), n))

    def _held(self, start: int, stop: int) -> np.ndarray:
        return self.signs[start:stop] if self.keep else self.signs[: stop - start]

    def make(self, start: int, stop: int) -> Iterator[np.ndarray]:
        """Make those of the rows ``start:stop`` not yet made, which follow
        the rows made, yielding each generation block of them once made."""
        block = self._held(start, stop)
        for first in range(self.made - start, stop - start, self.gen):
            rows = block[first : first + self.gen]
            if self.raw is None:
                rows.fill(1.0)
            else:
                # little-endian: each word's low half comes first, as numpy uses it
                x = self.raw.random_raw((rows.size + 1) // 2).view(np.uint32)
                np.less(x[: rows.size].reshape(rows.shape), self.cut, out=rows)
                rows *= 2.0
                rows -= 1.0
            self.made = start + first + len(rows)
            yield rows

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The rows ``start:stop``, made where they are not yet."""
        for _ in self.make(start, stop):
            pass
        return self._held(start, stop)

    def fill(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signed sums of m and m**2 over every draw (``_signed_sums``); a
        source that does not keep its rows holds one product block of them."""
        return _signed_sums(m, self.draws, self.rows)


def _product_blocks(draws: int, n: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` rows of each Monte Carlo product block: blocks of
    ``_product_rows(n)`` rows, the last also taking the remainder, so no block
    is under the BLAS small-matrix cutoff unless it is the only one."""
    rows = _product_rows(n)
    last = _last_block_start(draws, n)
    for start in range(0, last, rows):
        yield start, start + rows
    yield last, draws


def _last_block_start(draws: int, n: int) -> int:
    """First row of the last Monte Carlo product block, the largest."""
    rows = _product_rows(n)
    return max(0, draws // rows - 1) * rows


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
    sens: Union[SensitivityParam, np.ndarray],
    studentized: bool,
    out: _StatBuffers,
) -> tuple[np.ndarray, Union[np.ndarray, None]]:
    """Per-draw mean statistic and, for every draw, the studentized statistic.

    Both are written into ``out`` and returned as ``out.abar`` and
    ``out.tstat``, which stay valid until ``out`` is written again; the
    studentized statistic is None unless ``studentized`` is set.  Reference
    builds need it for every draw; an exact decision only for the draws that
    its cuts leave open (``_Halves``).  ``sens`` may also be an array of sign
    biases, one per entry of ``out`` (``_observed``), each entry then made
    by the same operations as at its own bias bound.
    """
    c = sens.sign_bias if isinstance(sens, SensitivityParam) else sens
    # a mean beyond double range is +/-inf: its own atom, as perm-t reads it
    # (NaN where an inf sum meets an inf shift)
    with np.errstate(over="ignore", invalid="ignore"):
        abar = np.subtract(s1, c * m.sum(), out=out.abar)
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
    np.subtract((1.0 + c * c) * (m * m).sum(), sumsq, out=sumsq)
    np.maximum(sumsq, 0.0, out=sumsq)
    ssd = np.multiply(n, abar, out=ssd)
    np.multiply(ssd, abar, out=ssd)
    np.subtract(sumsq, ssd, out=ssd)
    np.maximum(ssd, 0.0, out=ssd)
    tol = np.multiply(_DEGENERATE_RTOL, sumsq, out=sumsq)
    degenerate = np.less_equal(ssd, tol, out=degenerate)
    if n < 2:
        degenerate.fill(True)
    if degenerate.any():
        da = abar[degenerate]
        tstat[degenerate] = np.where(da > 0, np.inf, np.where(da < 0, -np.inf, 0.0))
    if n >= 2:
        ok = np.logical_not(degenerate, out=degenerate)
        den = np.divide(ssd, n * (n - 1), out=ssd)
        np.sqrt(den, out=den)
        np.divide(abar, den, out=tstat, where=ok)
    return tstat


def _cuts(t: float, n: int, sumsq: float, c: float) -> tuple[float, float]:
    """Cut points ``(lo, hi)`` on a draw's mean ``a`` for ``tstat <= t``: a
    draw with ``a <= lo`` is in, ``a >= hi`` out, the rest open; NaN is no cut.

    No cut outside ``_SETTLED_SUMSQ``; else the sign rule, ``(0, NaN)`` for
    ``t >= 0`` and ``(NaN, -0)`` below, or the band: ``|tstat| <= |t|`` iff
    ``a**2 (n(n-1) + n t**2) <= t**2 S``, and ``S`` lies in ``[(1-|c|)**2,
    (1+|c|)**2] * sum(m**2)`` give or take ``g(2n+3) (1+|c|)**2 sum(m**2)`` as
    the chain rounds it, ``g(k) = k u/(1 - k u)`` bounding k roundings (n in
    each of s2 and sum(m**2), four more); ``e`` adds 5 for forming the range.
    On ``a**2`` the cancellation in ``S - n a**2`` costs no margin: the rest
    of the chain, with t a float away, settles a draw ``g(9)`` inside the cut
    on the least S or ``g(11)`` outside it on the largest; a cut adds 11
    roundings: ``g(24)``.  The band needs ``n >= 2`` and a normal ``t**2 <
    (n-1) / (2 _DEGENERATE_RTOL)``, so no draw it puts in is degenerate; a
    cut whose square is not normal is the sign rule's.  ``t < 0`` mirrors.
    """
    if not _SETTLED_SUMSQ[0] < sumsq < _SETTLED_SUMSQ[1]:
        return math.nan, math.nan
    near, far, t2 = 0.0, math.nan, t * t
    u, tiny = _UNIT_ROUNDOFF, _TINY
    if n >= 2 and tiny <= t2 < (n - 1) * (0.5 / _DEGENERATE_RTOL - 1.0):
        e, g = (k * u / (1.0 - k * u) for k in (2 * n + 8, 24))
        per = sumsq / (n * (n - 1) + n * t2)
        q_near = ((1.0 - abs(c)) ** 2 - e * (1.0 + abs(c)) ** 2) * per * (1.0 - g)
        q_far = (1.0 + abs(c)) ** 2 * (1.0 + e) * per * (1.0 + g)
        near = abs(t) * math.sqrt(q_near) if q_near >= tiny else 0.0
        far = abs(t) * math.sqrt(q_far) if q_far >= tiny else math.nan
    return (near, far) if t >= 0 else (-far, -near)


def _own_cuts(t: float, n: int, sumsq: float, c: float, total: float) -> Union[Callable, None]:
    """A function of a generation block's signed sums of m and m**2 giving
    masks of the draws whose studentized statistic a build surely puts at
    or below t, and surely above it; None where the bound does not apply.

    The inequality of ``_cuts`` with the draw's own ``S = (1+c**2) sum(m**2)
    - 2c s2`` for its range: for ``t > 0``, ``tstat <= t`` iff ``a <= 0`` or
    ``a**2 K <= t**2 S``, ``K = n(n-1) + n t**2``; tstat is odd in a, so
    ``t < 0`` mirrors.  A build's sums lie within ``2 g(n) sum(m)`` and ``2
    g(n) sum(m**2)`` of the block's (``_sum_cut``); with the roundings that
    form a and S, ``g(2n+16) (2 sum(m)/n, 4 sum(m**2))`` bounds their gaps.
    The build's chain from a and S to tstat rounds 8 times, this comparison
    12: ``g(32)`` on ``t**2 / K``.  It needs the bounds of ``_cuts`` on n, t
    and sum(m**2), a finite ``4 sum(m)``, and the least S and its product
    with ``t**2`` above ``_SETTLED_SUMSQ[0]``: then no draw it puts in is
    degenerate and nothing it compares is subnormal.
    """
    e, g = (k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF) for k in (2 * n + 16, 32))
    t2, least = t * t, ((1.0 - abs(c)) ** 2 - 8.0 * e) * sumsq
    if not (n >= 2 and _SETTLED_SUMSQ[0] < sumsq < _SETTLED_SUMSQ[1] and 4.0 * total < math.inf
            and _TINY <= t2 < (n - 1) * (0.5 / _DEGENERATE_RTOL - 1.0)
            and least * min(t2, 1.0) > _SETTLED_SUMSQ[0]):
        return None
    sign, shift, q = math.copysign(1.0, t), c * total, (1.0 + c * c) * sumsq
    da, ds, per = e * 2.0 * total / n, e * 4.0 * sumsq, t2 / (n * (n - 1) + n * t2)

    def sides(s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, s = sign * ((s1 - shift) / n), q - 2.0 * c * s2
        # a and tstat mirrored to t's sign: surely below |t|, surely above
        below = (a + da <= 0.0) | ((np.abs(a) + da) ** 2 <= per * (1.0 - g) * (s - ds))
        above = (a - da > 0.0) & ((a - da) ** 2 > per * (1.0 + g) * (s + ds))
        return (below, above) if t > 0 else (above, below)

    return sides


def _observed_sums(negative: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The observed assignment's signed sum of each of ``rows`` (``_rows``),
    - where ``negative`` (``y - tau < 0``), else +, added left to right as the
    doubling enumeration adds them: the first value, then each next one
    added or subtracted (``x - v`` is ``x + (-v)`` in IEEE arithmetic, and
    ``0.0 + v`` is v, no value being -0.0)."""
    return np.add.accumulate(np.where(negative, -rows, rows), axis=1)[:, -1]


def _observed(
    m: np.ndarray, sums: np.ndarray, cs: np.ndarray, studentized: bool
) -> tuple[np.ndarray, Union[np.ndarray, None], Union[list[bool], None]]:
    """The observed statistics at each sign bias of ``cs``, from the observed
    signed sums (``_observed_sums``) of ``m = |y - tau|`` and, when
    ``studentized``, of m**2, and then whether the bound on every draw's sum
    of squares is finite at each; ``observed_statistics`` refuses a
    studentized statistic where it is not, and the others are its results,
    entry by entry.  Nothing warns: an entry that would is one refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        abar, tstat = _statistics(sums[:1], sums[-1:], m, cs, studentized,
                                  _StatBuffers.empty(cs.size))
        if not studentized:
            return abar, None, None
        sumsq = float((m * m).sum())
    return abar, tstat, [math.isfinite((1.0 + abs(c)) ** 2 * sumsq) for c in cs.tolist()]


def observed_statistics(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    studentized: bool = True,
    sums: Union[np.ndarray, None] = None,
) -> tuple[float, Union[float, None]]:
    """Observed mean and studentized statistics on the atoms' arithmetic path;
    the studentized statistic is None unless ``studentized`` is set.

    The observed assignment (signs of ``y - tau``, ties +1) is one of the
    enumerated sign vectors, and its statistics must tie its own atom
    bit-for-bit or worst-case p-values lose that atom's weight to roundoff.
    The signed sums (``_observed_sums``) are therefore accumulated left to
    right exactly as the doubling enumeration does, then pushed through the
    same transform; ``sums``, when given, are those of ``SignDraws``, kept
    per tau.  Mathematically the results equal ``mean(d)`` and
    ``mean(d)/se(d)``.  Where ``(1 + |c|)**2 sum(m**2)``, the bound on every
    draw's sum of squares, overflows, draws' studentized statistics could be
    NaN or wrong: ValueError.
    """
    resid = residuals(sample.y, tau)
    m = np.abs(resid)
    # a signed sum that overflows is inf, and inf - inf NaN, without a warning
    if sums is None:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _observed_sums(resid < 0.0, _rows(m, studentized))
    abar, tstat, fits = _observed(m, sums, np.array([sens.sign_bias]), studentized)
    if studentized and not fits[0]:
        raise ValueError(f"the squares of |y - tau| overflow double precision; {RESCALE}")
    return float(abar[0]), None if tstat is None else float(tstat[0])


def _merge_atoms(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and locate runs of equal values; returns (order, run starts)."""
    order = np.argsort(vals)
    v = vals[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return order, starts


def _weight_table(theta: float, n: int) -> np.ndarray:
    """The weight ``theta**k * (1 - theta)**(n - k)`` of one sign vector with
    ``k`` + signs, for ``k = 0 .. n``."""
    ks = np.arange(n + 1)
    return theta**ks * (1.0 - theta) ** (n - ks)


def _bit_table(width: int) -> np.ndarray:
    """Bit ``i`` of ``j`` at ``[i, j]``, for the ``2**width`` indices j."""
    return ((np.arange(2**width) >> np.arange(width)[:, None]) & 1).astype(bool)


def _sum_cut(a: float, side: float, n: int, total: float, shift: float) -> float:
    """A cut on a draw's split sum ``pa + sb`` (``_Halves``), or on its
    generation block's sum (``SignDraws._curtailed``), from the cut ``a`` on
    its mean: ``side`` -1 gives a lower cut, below which the chain or the
    product gives every draw a mean ``<= a``, +1 an upper one, above which it
    gives ``> a``.  NaN is no cut.

    ``total`` is ``sum(m)`` and ``shift`` the ``c * sum(m)`` of
    ``_statistics``, whose mean is ``(s1 - shift) / n``.  The sum ``s1``
    that a decision reads and the split or block sum each add n terms of
    size m_i, in some order, so they differ by at most ``2 g(n) sum(m)``,
    ``g(k) = k u/(1 - k u)``; comparing ``sb`` with ``cut - pa`` rounds once
    (a block sum is compared with the cut itself), and forming the mean and
    ``n a + shift`` twice each, on values under ``2 sum(m) + |cut|``.  ``g(2n + 16) (4 sum(m) + 2
    |cut|)`` bounds it all with room enough that an upper cut keeps even a
    mean that rounds to ``a`` out.  An infinite ``a`` is its own cut; where
    ``4 sum(m)`` overflows, a sum could too, and no cut is made.
    """
    if math.isnan(a) or not 4.0 * total < math.inf:
        return math.nan
    if math.isinf(a):
        return a
    ku = (2 * n + 16) * _UNIT_ROUNDOFF
    cut = n * a + shift
    return cut + side * ku / (1.0 - ku) * (4.0 * total + 2.0 * abs(cut))


def _sum_cuts(kind: str, t: float, n: int, sumsq: float, c: float, total: float
              ) -> tuple[float, float]:
    """The lower and upper ``_sum_cut`` for ``stat <= t`` of ``kind``, from
    the cuts on a draw's mean: t itself for the mean, ``_cuts`` for the
    studentized statistic.  ``sumsq`` is ``sum(m**2)``, ``total`` ``sum(m)``."""
    lo = hi = t
    if kind == "studentized":
        lo, hi = _cuts(t, n, sumsq, c)
    return _sum_cut(lo, -1.0, n, total, c * total), _sum_cut(hi, 1.0, n, total, c * total)


class _Halves:
    """An exact decision's draws as two halves of the pairs, counted at or
    below a cut without being stored one by one.

    The pairs split at ``h = n // 2``: sign vector ``a + 2**h * b`` joins the
    low half's vector ``a`` and the high half's ``b``.  ``pa[0, a]`` is the
    doubling chain's own state after ``h`` pairs, chained in pair order from
    the low half's step table, and ``sb`` holds the high half's signed sums,
    sorted, so ``pa[0, a] + sb[p]`` is a draw's signed sum of m but for
    rounding; ``cum[p, j]`` counts the sorted positions below ``p`` whose
    ``b`` has ``j`` + signs.  This is the subset-sum meet in the middle of
    Horowitz and Sahni (1974).  For a cut on the mean, one binary search per
    ``a`` finds the positions surely below the lower cut of ``_sum_cut`` and
    those surely above the upper one, and ``cum`` turns the first into
    counts per total + count, in ``O(2**(n/2) log)``.  The draws between are
    open: their sums are finished on the chain from ``pa[:, a]`` over the
    high half's pairs, a block at a time, so each is decided by
    ``_statistics`` on the very floats the full enumeration gives it.  With
    ``rows`` 2 (a studentized decider) the tables carry the sums of m**2 as
    a second row, made with those of m, and the chain finishes both at once.
    All of it depends on tau alone, and is redone only when tau moves.

    The counts below the cuts of the points a decider will ask for at one
    tau (``expect``) are made together, a chunk of points at a time, by one
    gather from ``cum`` and two products (``_count``); each point then only
    bounds or finishes its own draws.
    """

    def __init__(self, n: int, rows: int):
        h = n // 2
        self.n, self.h = n, h
        self.ka = _bit_table(h).sum(axis=0)
        self.kb = _bit_table(n - h).sum(axis=0)
        # the place value of each pair's bit in a half's vector (h <= n - h)
        self.place = 1 << np.arange(n - h)
        # [i, j, b]: where move_to takes row j's step i of a half's vector b
        # from [-v, v]: -v[j, i], or +v[j, i] where bit i of b is set
        self.low_sel, self.sel = (np.arange(k)[:, None, None] + k * _bit_table(k)[:, None]
                                  + 2 * k * np.arange(rows)[:, None] for k in (h, n - h))
        self.low_step, self.step = np.empty(self.low_sel.shape), np.empty(self.sel.shape)
        self.pa = np.empty((rows, 2**h))
        self.cum = np.zeros((2 ** (n - h) + 1, n - h + 1))
        self.one_hot, self.hot = np.eye(n - h + 1), np.empty((2 ** (n - h), n - h + 1))
        # [i, a]: 1 where a has i + signs; [(i, j), k]: 1 where i + j is k
        self.ka_hot = (np.arange(h + 1)[:, None] == self.ka).astype(float)
        self.to_total = np.zeros(((h + 1) * (n - h + 1), n + 1))
        i, j = np.divmod(np.arange(len(self.to_total)), n - h + 1)
        self.to_total[np.arange(len(self.to_total)), i + j] = 1.0
        self.chunk = max(1, _COUNT_BLOCK // (2**h * (n - h + 1)))
        # _counts_below's buffer, made for the most points counted at once
        self.gathered = np.empty(0)
        size = min(2**n, _OPEN_BLOCK)
        self.ramp = np.arange(size)
        self.a, self.pos, self.b, self.k_block = (np.empty(size, np.intp) for _ in range(4))
        self.steps = np.empty((n - h) * rows * size)
        self.sums = np.empty(rows * size)
        self.out = _StatBuffers.empty(size)

    def move_to(self, rows: np.ndarray, plus: np.ndarray) -> None:
        """Redo the halves' sums, their order and ``cum`` for new ``rows``,
        ``m = |y - tau|`` and, with a second row, m**2 (``_rows``), and find
        the observed assignment's draw, + where ``plus``."""
        h = self.h
        self.m = m = rows[0]
        # adding a step is the chain's step for that pair; taken, not
        # multiplied, as a broadcast product buffers its operands
        for v, sel, out in ((rows[:, :h], self.low_sel, self.low_step),
                            (rows[:, h:], self.sel, self.step)):
            np.concatenate((-v, v), axis=1).take(sel, out=out, mode="clip")
        # the low half's chain from 0, in pair order as the enumeration adds
        self.pa.fill(0.0)
        for step in self.low_step:
            np.add(self.pa, step, out=self.pa)
        self.total = float(m.sum())
        self.sumsq = float(rows[-1].sum())
        # any order of summing the steps rounds within the bound of _sum_cut
        sb = self.step[:, 0].sum(axis=0)
        self.order = sb.argsort()
        self.sb = sb[self.order]
        # the observed draw: its low half's vector, and the sorted position
        # of its high half's
        b = plus[h:] @ self.place
        self.observed_at = int(plus[:h] @ self.place[:h]), int((self.order == b).argmax())
        # one-hot rows of the sorted + counts, taken from an identity (a
        # comparison would cast bool to float through a buffer), then summed
        self.one_hot.take(self.kb[self.order], axis=0, out=self.hot, mode="clip")
        self.hot.cumsum(axis=0, out=self.cum[1:])
        # per kind: the points expected, and those counted, at this tau
        self.expected, self.counted = {}, {}

    def expect(self, kind: str, keys: list[tuple[float, float, Union[float, None]]]) -> None:
        """Note the ``(t, c, own)`` at which ``counts_at_most`` will next be
        asked for ``kind``, in order (``c`` is the sign bias), so that they
        are counted together."""
        self.expected[kind], self.counted[kind] = keys, {}

    def _counted(self, kind: str, key: tuple[float, float, Union[float, None]]) -> tuple:
        """``_count``'s row for ``key``: counted already, or counted now with
        the expected keys that follow it, a chunk of them, or alone."""
        counted = self.counted.get(kind, {})
        if key not in counted:
            keys = self.expected.get(kind, [])
            chunk = keys[keys.index(key) :][: self.chunk] if key in keys else [key]
            counted = self.counted[kind] = dict(zip(chunk, self._count(kind, chunk)))
        return counted[key]

    def _count(self, kind: str, keys: list[tuple[float, float, Union[float, None]]]
               ) -> list[tuple[np.ndarray, ...]]:
        """What ``counts_at_most`` starts from at each ``(t, c, own)`` of
        ``keys``: per a, the sorted positions below ``first[a]`` are in and
        those from ``last[a]`` out; the cumulative lengths of the open runs
        between; and the counts per total + count of the draws below first,
        made for every key at once.  A binary search costs the same per
        value searched whether made alone or with others, so each key makes
        its own."""
        low, n, (a, q) = self.pa[0], self.n, self.observed_at
        rows = []
        for t, c, own in keys:
            lo, hi = _sum_cuts(kind, t, n, self.sumsq, c, self.total)
            # per a, the sorted positions below first[a] are in, from
            # last[a] out; a NaN cut is no cut
            if math.isnan(lo):
                first = np.zeros(low.size, np.intp)
            else:
                first = self.sb.searchsorted(lo - low)
            if math.isnan(hi):
                last = np.full(low.size, self.sb.size)
            else:
                last = self.sb.searchsorted(hi - low, side="right")
            # the observed draw's own statistic settles it when it is at most
            # t and first in its open run: at t = own, often the only open draw
            if own is not None and own <= t and first[a] == q < last[a]:
                first[a] += 1
            rows.append((first, last, (last - first).cumsum()))
        counts = self._counts_below(np.array([row[0] for row in rows]))
        return [(*row, below) for row, below in zip(rows, counts)]

    def counts_at_most(
        self, kind: str, t: float, sens: SensitivityParam, own: Union[float, None] = None,
        band: Union[tuple[np.ndarray, float, float], None] = None,
    ) -> np.ndarray:
        """Per total + count k, how many draws have a statistic of ``kind``
        at most t: exact integers, in float64.  ``own``, the observed
        assignment's statistic (``observed_statistics``, bit for bit its
        draw's), settles that draw when it is at most t and first in its open
        run.  The cuts are searched and counted by ``_count``, with the
        points expected after this one.

        With ``band``, ``(table, low, high)``, a bound may be returned
        instead, and the open draws are finished only when none is: the
        counts of the draws the cuts put in when their weight ``table @
        counts`` is at least high, else those of the draws the cuts do not
        put out when theirs is at most low.  Both come from ``cum``, below
        ``first`` and below ``last``."""
        first, last, ends, counts = self._counted(kind, (t, sens.sign_bias, own))
        counts = counts.copy()
        # open draws through each a's run; with none, the counts are exact
        if band is not None and ends[-1]:
            table, low, high = band
            if table @ counts >= high:
                return counts
            upto = self._counts_below(last[None])[0]
            if table @ upto <= low:
                return upto
        for k, below in self._open(first, last, ends, kind, t, sens):
            counts += np.bincount(k, weights=below, minlength=self.n + 1)
        return counts

    def _counts_below(self, stops: np.ndarray) -> np.ndarray:
        """Per total + count, the draws at sorted positions below
        ``stops[g, a]`` for each a, in row g for each row of ``stops``: the
        rows of ``cum`` at the stops, summed per + count of a, then per
        total, by products with the 0/1 tables ``ka_hot`` and ``to_total``.
        They add integers under 2**53, exact in any order."""
        size = stops.size * self.cum.shape[1]
        if self.gathered.size < size:
            self.gathered = np.empty(size)
        gathered = self.gathered[:size].reshape(*stops.shape, -1)
        self.cum.take(stops, axis=0, out=gathered, mode="clip")
        return (self.ka_hot @ gathered).reshape(len(stops), -1) @ self.to_total

    def _open(
        self, first: np.ndarray, last: np.ndarray, ends: np.ndarray, kind: str, t: float,
        sens: SensitivityParam,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per block of the open draws, each a's sorted positions from
        ``first[a]`` up to ``last[a]`` (``ends``, the cumulative counts of
        those runs): their + counts and 1.0 where their statistic is at most
        t, views of the block buffers valid until the next block."""
        h, m = self.h, self.m
        # every row is finished, whichever the statistic reads: a take of
        # some rows would copy them
        studentized, rows = kind == "studentized", len(self.pa)
        # flat position p of a's run is sorted position p + offset[a]
        offset = last - ends
        for start in range(0, int(ends[-1]), self.ramp.size):
            size = min(self.ramp.size, int(ends[-1]) - start)
            a, pos, b, k = (x[:size] for x in (self.a, self.pos, self.b, self.k_block))
            # a run starts a block position after each end inside the block
            lo, hi = ends.searchsorted((start, start + size - 1), side="right")
            a.fill(0)
            a[0] = lo
            if hi > lo:
                np.add.at(a, ends[lo:hi] - start, 1)
            a.cumsum(out=a)
            offset.take(a, out=pos, mode="clip")
            pos += self.ramp[:size]
            pos += start
            self.order.take(pos, out=b, mode="clip")
            self.ka.take(a, out=k, mode="clip")
            k += self.kb.take(b, out=pos, mode="clip")
            # the doubling chain's sums of the draws (a, b): from pa[:, a], add
            # the high half's steps of b in turn, all rows at once; it
            # subtracts where a bit is clear, and x - v is x + (-v) in IEEE
            steps = self.steps[: (m.size - h) * rows * size].reshape(-1, rows, size)
            sums = self.sums[: rows * size].reshape(rows, size)
            self.pa.take(a, axis=1, out=sums, mode="clip")
            self.step.take(b, axis=2, out=steps, mode="clip")
            # at a tau far out the sums overflow, as the enumeration's would
            # on the same adds; the statistic reads them, without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for row in steps:
                    np.add(sums, row, out=sums)
            out = _StatBuffers(*(x[:size] for x in self.out))
            stat = _statistics(sums[0], sums[-1], m, sens, studentized, out)[studentized]
            yield k, np.less_equal(stat, t, out=out.scratch)


class SignDraws:
    """One sample's sign draws at a hypothesized value that can move, for the
    reject-only decisions of searches and simulation replications.

    A decision needs one number per statistic, the weight of the draws at or
    below the observed value (``weights_at_most``).  ``move_to`` does all
    that depends on tau alone: ``m = |y - tau|`` (with its squares when
    ``studentized``), the observed signed sums of both (``observed_sums``),
    whether every m is 0 (``all_tied``, perm-t's degeneracy) and the exact
    ``_Halves``.  Exact draws are counted, not stored.  The weights of the
    + counts are kept while theta is unchanged.

    Monte Carlo signs threshold raw random bits against theta
    (``_SignSource``), and every Monte Carlo decision is one curtailed pass
    over the product blocks of a build (``_curtailed``): it makes the signs
    a generation block at a time, may stop after any of them, and stops once
    the draws counted settle every decision.  A search keeps the rows it has
    made while theta is unchanged, so a move redoes only the products with
    the new ``|y - tau|`` and makes only the rows no decision has read yet,
    and a new theta starts again from the engine's seed (common random
    numbers).  A ``single_use`` draw set, read at one tau and theta (a
    simulation replication), never holds the whole matrix: it makes each
    product block's rows in one reused buffer.  Either holds per-draw buffers
    for the rows of one product block only, and decides on the sums a build
    sorts, bit for bit.
    """

    def __init__(self, sample: PairedSample, tau: float, engine: EnumSpec,
                 single_use: bool = False, studentized: bool = True):
        n = sample.n_pairs
        self.y, self._studentized = sample.y, studentized
        self.mode, self.engine = engine.resolve(n), engine
        self._source, self._tables = None, {}
        if self.mode == "exact":
            _check_fits(_EXACT_BYTES_PER_DRAW * 2**n, f"exact enumeration of {n} pairs",
                        "lower the exact cap to use Monte Carlo draws")
            self.n_draws = 2**n
            self._halves = _Halves(n, 1 + studentized)
        else:
            self.n_draws = draws = engine.draws
            self._keeps = not single_use
            if single_use:
                need, what = _draw_set_bytes(n, draws, _MC_BYTES_PER_DRAW), "draw set"
            else:
                need, what = _MC_BYTES_PER_SIGN * draws * n, "sign matrix"
            _check_fits(need, f"Monte Carlo {what} of {draws} draws x {n} pairs",
                        "use fewer Monte Carlo draws")
        self.move_to(tau)

    def move_to(self, tau: float) -> None:
        """Make later calls use the hypothesized value ``tau``."""
        self.tau = tau
        resid = residuals(self.y, tau)
        self.m, negative = np.abs(resid), resid < 0.0
        self.all_tied = not self.m.any()
        # squares that overflow are refused by observed_statistics, not here
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _rows(self.m, self._studentized)
            self.observed_sums = _observed_sums(negative, rows)
            if self.mode == "exact":
                self._halves.move_to(rows, ~negative)

    def prepare(self, points: list[tuple[SensitivityParam, dict[str, float]]]) -> None:
        """Make together, for the ``(sens, observed)`` of ``points``, in the
        order ``weights_at_most`` will be asked for them at this tau with
        ``own=observed``, what an exact decision makes before it bounds its
        own draws: the weight tables of their thetas, and the counts below
        the cuts.  A Monte Carlo decision counts its draws alone, and so does
        a single point: there is nothing to count ahead of it."""
        if self.mode != "exact" or len(points) < 2:
            return
        tables, thetas = self._tables, [sens.theta for sens, _ in points]
        new = [theta for theta in dict.fromkeys(thetas) if theta not in tables]
        if new:
            tables = tables | dict(zip(new, _weight_table(np.array(new)[:, None], self.m.size)))
        self._tables = {theta: tables[theta] for theta in thetas}
        for kind in ("mean", "studentized"):
            self._halves.expect(kind, [(observed[kind], sens.sign_bias, observed[kind])
                                       for sens, observed in points if kind in observed])

    def drop_signs(self) -> None:
        """Free a search's Monte Carlo sign matrix, so the heap can return
        its memory; the next decision makes its rows again."""
        self._source = None

    def _curtailed(
        self, sens: SensitivityParam, observed: dict[str, float],
        band: Union[tuple[float, float], None],
    ) -> dict[str, float]:
        """The Monte Carlo weights of ``weights_at_most``, by kind, from only
        as many draws as settle them.

        The draws are counted a product block at a time, each block's rows
        on the product with m and m**2 that a build makes, so once every
        block is counted a kind's weight is exact, on the floats of a build.
        A kind stops once its counts bound its weight outside the band, as
        the exact decision's counts do (``_Halves.counts_at_most``): the
        share of the draws surely at or below t is a lower bound, and that
        of those not surely above it an upper one, so the decision is the
        one every draw would give.

        Within a block, the rows not made yet are also bounded as they are
        made, after each generation block, and no row is made after the last
        kind stops; rows a search made for an earlier decision go straight
        to the block's product.  Each generation block's own products with
        m and, while a studentized kind is open, m**2 give sums within ``2
        g(n)`` times ``sum(m)`` and ``sum(m**2)`` of those a build makes: both
        add n terms in some order.  So ``_sum_cut`` of t counts the mean's
        draws surely at or below t and surely above it, and ``_own_cuts`` the
        studentized statistic's, each draw by a bound on its own statistic;
        where that bound does not apply, ``_sum_cut`` of the cuts of
        ``_cuts`` on its mean does.
        """
        m, n, draws = self.m, self.m.size, self.n_draws
        low, high = band or (-math.inf, math.inf)
        # the open kinds' counts of draws surely in and surely out
        weights, done, cuts = {}, dict.fromkeys(observed, (0, 0)), {}

        def settle(counts: dict[str, tuple[int, int]]) -> bool:
            # an open kind whose draws surely in, or not surely out, bound
            # its weight outside the band is settled at that bound
            for kind in list(done):
                inside, outside = counts[kind]
                sure, unsure = inside / draws, (draws - outside) / draws
                if sure >= high or unsure <= low:
                    weights[kind] = sure if sure >= high else unsure
                    del done[kind]
            return not done

        with np.errstate(over="ignore", invalid="ignore"):
            c, total, m2 = sens.sign_bias, float(m.sum()), m * m
            coef, sumsq = np.column_stack([m, m2]), float(np.sum(m2))
            for kind, t in observed.items():
                sides = kind == "studentized" and _own_cuts(t, n, sumsq, c, total)
                if not sides:
                    lo, hi = _sum_cuts(kind, t, n, sumsq, c, total)
                    sides = lambda s1, s2, lo=lo, hi=hi: (s1 < lo, s1 > hi)  # noqa: E731
                cuts[kind] = sides
            # a search's source while theta is unchanged, else a new one, made
            # once the old matrix is freed
            source = self._source
            if source is None or source.theta != sens.theta:
                self._source = source = None
                source = _SignSource(n, sens.theta, self.engine.seed, draws, self._keeps)
                self._source = source if self._keeps else None
            size = draws - _last_block_start(draws, n)
            sums, out = np.empty((size, 2)), _StatBuffers.empty(size)
            for start, stop in _product_blocks(draws, n):
                made = dict(done)
                # the counts with this block's rows made so far
                for drawn in source.make(start, stop):
                    s1 = np.matmul(drawn, m)
                    s2 = np.matmul(drawn, m2) if "studentized" in done else None
                    for kind in done:
                        more_in, more_out = cuts[kind](s1, s2)
                        inside, outside = made[kind]
                        made[kind] = (inside + np.count_nonzero(more_in),
                                      outside + np.count_nonzero(more_out))
                    if settle(made):
                        return weights
                # the block's rows are counted on a build's sums
                rows = stop - start
                block_sums = np.matmul(source.rows(start, stop), coef, out=sums[:rows])
                block_out = _StatBuffers(*(x[:rows] for x in out))
                stats = _statistics(block_sums[:, 0], block_sums[:, 1], m, sens,
                                    "studentized" in done, block_out)
                for kind in done:
                    stat = stats[kind == "studentized"]
                    below = np.count_nonzero(np.less_equal(stat, observed[kind], out=block_out.mask))
                    done[kind] = (done[kind][0] + below, done[kind][1] + rows - below)
                if settle(done):
                    return weights
        # every draw is counted, each on its own floats: the weights are exact
        weights.update((kind, inside / draws) for kind, (inside, _) in done.items())
        return weights

    def weights_at_most(
        self, sens: SensitivityParam, observed: dict[str, float], own: Union[dict, None] = None,
        band: Union[tuple[float, float], None] = None,
    ) -> dict[str, float]:
        """For each kind, "mean" or "studentized", that ``observed`` names, the
        total weight of the draws whose statistic is <= its observed value.
        ``own`` holds the observed assignment's statistics at this tau, by
        kind, when known (``_Halves.counts_at_most``).

        An exact weight is ``table @ counts``: the number of such draws per
        count k of + signs, an exact integer, times ``theta**k * (1 -
        theta)**(n - k)``, the weight of each.  In exact arithmetic that is
        the sum of the same per-draw weights that the sorted distribution's
        CDF adds; it rounds in n + 1 products and n additions where the CDF
        rounds once per draw, so the two differ by less than ``n_draws`` eps,
        the premise of ``testing._GUARD_EPS_PER_DRAW``.  A Monte Carlo
        weight is the share of such draws.

        With ``band``, ``(low, high)``, a kind's weight may be a bound on
        it: made without finishing the exact draws its cuts leave open, or
        from the Monte Carlo draws counted so far, without making the draws
        after those that settle it (``_curtailed``).  It is the weight of the
        draws surely at most t when that is at least high, or of those not
        surely above t when that is at most low.  Without it every weight is
        the one above.
        """
        if self.mode == "monte_carlo":
            return self._curtailed(sens, observed, band)
        table, own = self._tables.get(sens.theta), own or {}
        if table is None:
            table = _weight_table(sens.theta, self.m.size)
            self._tables = {sens.theta: table}
        band = band and (table, *band)
        return {kind: float(table @ self._halves.counts_at_most(kind, t, sens, own.get(kind), band))
                for kind, t in observed.items()}


def _build(
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
    engine: EnumSpec,
    kinds: tuple[str, ...],
) -> tuple[ReferenceDistribution, ...]:
    n, m = sample.n_pairs, np.abs(residuals(sample.y, tau))
    studentized = "studentized" in kinds
    mode = engine.resolve(n)
    if mode == "exact":
        _check_fits(_BUILD_BYTES_PER_DRAW * 2**n, f"exact enumeration of {n} pairs",
                    "lower the exact cap to use Monte Carlo draws")
        n_draws = 2**n
        s1, k = np.empty(n_draws), np.empty(n_draws, dtype=np.int64)
        s2 = np.empty(n_draws) if studentized else None
        _enumerate_exact(m, s1, s2, k)
        draw_weights = _weight_table(sens.theta, n)[k]
        del k
    else:
        n_draws = int(engine.draws)
        # it holds its product block while it draws and up to
        # _BUILD_BYTES_PER_DRAW while it sorts; their sum bounds both
        _check_fits(_draw_set_bytes(n, n_draws, _BUILD_BYTES_PER_DRAW),
                    f"Monte Carlo draw set of {n_draws} draws x {n} pairs",
                    "use fewer Monte Carlo draws")
        s1, s2 = _SignSource(n, sens.theta, engine.seed, n_draws).fill(m)
        draw_weights = None
    abar, tstat = _statistics(s1, s2, m, sens, studentized, _StatBuffers.empty(n_draws))
    # frees the sums and scratch before the sorts allocate
    del s1, s2
    by_kind = {"mean": abar, "studentized": tstat}

    out = []
    for kind in kinds:
        vals = by_kind[kind]
        order, starts = _merge_atoms(vals)
        merged_vals = vals[order][starts]
        # the sort puts NaN last: an inf signed sum less an inf shift
        if np.isnan(merged_vals[-1]):
            raise ValueError(f"the signed sums of |y - tau| overflow double precision; {RESCALE}")
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
