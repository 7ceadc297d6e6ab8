"""Changepoint search, sensitivity intervals, and design sensitivity.

The changepoint is the smallest bias bound at which a test stops rejecting;
sensitivity intervals invert the one-sided tests over the hypothesized
value.  Both searches read a reject indicator evaluated with common random
numbers (one engine seed reused at every point), a deterministic function of
the search variable, through three shared helpers: ``_walk`` (doubling steps
outward), ``_scan`` (a monotonicity grid) and ``_bisect``.  The indicator
takes a list of points and returns their decisions: ``_scan`` passes its
whole grid at once, which a changepoint decides together, as the grid shares
its tau; the others pass one point at a time.  The changepoint
bisects, scans, then bisects again; each interval side walks, scans, then
bisects.  Non-monotone indicators are reported, never silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import PairedSample, SensitivityParam, TestSpec, residuals
from .randdist import EnumSpec
# run_test stays a name of this module because bench/tracer.py wraps
# inference.run_test; the searches decide through rejector
from .testing import rejector, run_test  # noqa: F401

__all__ = [
    "ChangepointResult",
    "DesignSensitivityResult",
    "SensitivityInterval",
    "changepoint_gamma",
    "design_sensitivity",
    "sensitivity_interval",
]


@dataclass(frozen=True)
class ChangepointResult:
    """Smallest bias bound at which the chosen test stops rejecting.

    ``bracket`` is ``(gamma_low, gamma_high)`` with a rejection at the low
    end and none at the high end; when the search converged normally its
    width is at most ``tolerance``.  ``rejects_at_gamma_one`` False means the
    test already fails to reject in the randomized-experiment case and the
    changepoint is reported as 1.  ``exceeded_gamma_max`` True means
    rejection persisted through ``gamma_max`` and the changepoint is +inf
    (read: greater than ``gamma_max``).
    """

    gamma_changepoint: float
    bracket: tuple[float, float]
    tolerance: float
    method: str
    tau: float
    alpha: float
    alternative: str
    rejects_at_gamma_one: bool
    exceeded_gamma_max: bool
    monotone: bool
    inversions: tuple[tuple[float, float], ...]
    n_evaluations: int

    def __post_init__(self):
        lo, hi = self.bracket
        if self.rejects_at_gamma_one and not self.exceeded_gamma_max:
            if hi - lo > self.tolerance * (1 + 1e-9):
                raise ValueError("converged bracket wider than tolerance")


@dataclass(frozen=True)
class SensitivityInterval:
    """Interval of hypothesized values not rejected at a given bias bound.

    Endpoints are reported at the non-rejecting edge of a bracket of width
    at most ``tol``; they may be infinite when the corresponding one-sided
    test never rejects.
    """

    gamma: float
    lower: float
    upper: float
    confidence: float
    method: str
    tol: float
    lower_bracket: tuple[float, float]
    upper_bracket: tuple[float, float]
    non_monotone: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("interval lower endpoint exceeds upper endpoint")


@dataclass(frozen=True)
class DesignSensitivityResult:
    """Bias bound at which large-sample power transitions from 1 to 0.

    ``gamma_tilde`` is ``(E|Y - tau| + |mean - tau|) / (E|Y - tau| - |mean - tau|)``,
    equivalently the bound whose worst-case expectation of the bias-corrected
    mean crosses zero.  Reported as +inf when the absolute moment does not
    exceed the mean shift.  ``source`` records whether the moments were
    supplied analytically or estimated from a sample by plug-in.
    """

    gamma_tilde: float
    tau: float
    mean: float
    abs_moment: float
    source: str
    note: Union[str, None] = None


def _check_tol(tol: float) -> None:
    """Refuse a search tolerance that is not a positive finite width: a
    bisection to 0 or below would run down to adjacent floats."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")


def _bisect(rejects, rej: float, acc: float, tol: float, geometric_above: float = math.inf):
    """Narrow a bracket that rejects at ``rej`` and not at ``acc``; return both ends.

    Midpoints are geometric once both ends are at least ``geometric_above``,
    else (or when that one is not strictly inside) arithmetic.  Stops at width
    ``tol`` or when no float lies strictly inside.
    """
    while abs(acc - rej) > tol:
        lo, hi = min(rej, acc), max(rej, acc)
        mid = math.sqrt(lo * hi) if lo >= geometric_above else 0.5 * (lo + hi)
        if not (lo < mid < hi):
            mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if rejects([mid])[0]:
            rej = mid
        else:
            acc = mid
    return rej, acc


def _scan(rejects, grid: list[float]) -> tuple[list[tuple[float, float]], int]:
    """Evaluate ``grid``, in one call, starting from its rejecting end.

    Once the indicator turns off it should stay off; each rejection after a
    non-rejection is an inversion ``(last non-rejecting point, point)``.
    Returns the inversions and the index of the last rejecting point.
    """
    inversions, last, accepted = [], -1, None
    for i, (t, rejected) in enumerate(zip(grid, rejects(grid))):
        if rejected:
            last = i
            if accepted is not None:
                inversions.append((accepted, t))
        else:
            accepted = t
    return inversions, last


def _walk(rejects, start: float, delta: float, want: bool, steps: int) -> tuple[float, bool]:
    """Step from ``start`` by ``delta``, doubling it, until ``rejects`` is ``want``.

    Returns ``(point, True)``, or ``(next point, False)`` after ``steps`` evaluations.
    """
    for _ in range(steps):
        if rejects([start])[0] == want:
            return start, True
        start += delta
        delta *= 2.0
    return start, False


def changepoint_gamma(
    sample: PairedSample,
    tau: float,
    alpha: float = 0.05,
    method: str = "studentized",
    engine: Union[EnumSpec, None] = None,
    gamma_max: float = 1000.0,
    tol: float = 1e-3,
    alternative: str = "greater",
    grid_points: int = 50,
) -> ChangepointResult:
    """Bisect the reject indicator over the bias bound, scan, bisect again.

    ``_bisect`` runs on [1, gamma_max], switching to geometric midpoints above
    10 since the bound lives on an odds-ratio scale.  ``_scan`` then walks a
    coarse geometric grid from 1 to check that the indicator is monotone; if
    a rejection reappears past the bracket, the changepoint is moved to the
    supremum of rejecting grid points and bisected again locally, and the
    inversions are reported in the result.  ``grid_points`` 0 or 1 skips the
    scan, and ``monotone`` is then reported True unchecked; a negative
    count raises ValueError.
    """
    if not (math.isfinite(gamma_max) and gamma_max > 1.0):
        raise ValueError("gamma_max must be finite and exceed 1")
    _check_tol(tol)
    if grid_points < 0:
        raise ValueError("grid_points must not be negative")
    engine = engine or EnumSpec()
    evals = 0
    spec = TestSpec(tau=tau, alpha=alpha, alternative=alternative, method=method)
    decide = rejector(sample, spec, engine)

    def rejects(gammas: list[float]) -> list[bool]:
        nonlocal evals
        evals += len(gammas)
        return decide.many([(SensitivityParam(g), tau) for g in gammas])

    at_one = rejects([1.0])[0]
    exceeded = at_one and rejects([gamma_max])[0]
    lo, hi, inversions = 1.0, 1.0, []
    if exceeded:
        lo, hi = gamma_max, math.inf
    elif at_one:
        lo, hi = _bisect(rejects, 1.0, gamma_max, tol, 10.0)
        if grid_points >= 2:
            scan_hi = min(gamma_max, max(2.0 * hi, hi + 1.0))
            grid = np.geomspace(1.0, scan_hi, grid_points).tolist()
            inversions, last = _scan(rejects, grid)
            if inversions and grid[last] > lo:
                above = grid[last + 1] if last + 1 < len(grid) else gamma_max
                lo, hi = _bisect(rejects, grid[last], above, tol, 10.0)

    return ChangepointResult(
        gamma_changepoint=0.5 * (lo + hi),
        bracket=(lo, hi),
        tolerance=tol,
        method=method,
        tau=tau,
        alpha=alpha,
        alternative=alternative,
        rejects_at_gamma_one=at_one,
        exceeded_gamma_max=exceeded,
        monotone=not inversions,
        inversions=tuple(inversions),
        n_evaluations=evals,
    )


def _invert_one_side(
    rejects,
    center: float,
    step: float,
    tol: float,
    reject_direction: float,
    max_expansions: int,
    precheck_points: int,
) -> tuple[float, tuple[float, float], bool]:
    """Locate the boundary between rejecting and non-rejecting tau.

    ``reject_direction`` is -1 when rejection happens for small tau (lower
    endpoint, greater alternative) and +1 when it happens for large tau.
    Returns (endpoint, bracket, non_monotone); the endpoint is the
    non-rejecting edge of the final bracket, or infinite when this side
    rejects nowhere within the expansion cap.
    """
    toward_rej = reject_direction * step
    t_acc, found = _walk(rejects, center, -toward_rej, False, max_expansions)
    if not found:
        raise RuntimeError("could not find a non-rejected hypothesis value")
    t_rej, found = _walk(rejects, t_acc + toward_rej, 2.0 * toward_rej, True, max_expansions)
    if not found:
        # no rejection anywhere on this side: endpoint is -inf for the lower
        # search (reject_direction -1) and +inf for the upper (+1)
        endpoint = reject_direction * math.inf
        return endpoint, (min(t_rej, t_acc), max(t_rej, t_acc)), False

    inversions = []
    if precheck_points >= 3:
        grid = np.linspace(t_rej, t_acc, precheck_points).tolist()
        inversions, last = _scan(rejects, grid)
        if inversions:
            # widen: restart the bisection from the rejecting grid point
            # closest to the non-rejecting side (grid runs t_rej -> t_acc)
            t_rej = grid[last]
    t_rej, t_acc = _bisect(rejects, t_rej, t_acc, tol)
    return t_acc, (min(t_rej, t_acc), max(t_rej, t_acc)), bool(inversions)


def sensitivity_interval(
    sample: PairedSample,
    gamma: float,
    confidence: float = 0.90,
    method: str = "studentized",
    engine: Union[EnumSpec, None] = None,
    tol: Union[float, None] = None,
    max_expansions: int = 60,
    precheck_points: int = 17,
) -> SensitivityInterval:
    """Invert the two one-sided tests at level ``(1 - confidence) / 2`` each.

    The lower endpoint is the infimum of values not rejected against the
    greater alternative; the upper endpoint is the supremum not rejected
    against the less alternative.  Each side walks outward from the sample
    mean to a non-rejected and then a rejected value, scans a coarse grid
    between them for non-monotone indicators (the bracket is then widened to
    the outermost rejecting point and the result marked), then bisects.
    Endpoints are +/-inf when the test rejects nowhere within the expansion cap.
    A given ``tol`` must be positive and finite, as for ``changepoint_gamma``.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    alpha = (1.0 - confidence) / 2.0
    engine = engine or EnumSpec()
    sens = SensitivityParam(gamma)
    y = sample.y
    span = float(y.max() - y.min())
    if tol is None:
        tol = 1e-6 * span + 1e-12
    else:
        _check_tol(tol)
    step = span if span > 0 else max(abs(float(y[0])), 1.0)
    center = float(y.mean())

    def make_rejector(alternative: str):
        # one decider, and so one set of draw buffers, per side's search
        spec = TestSpec(tau=center, alpha=alpha, alternative=alternative, method=method)
        decide = rejector(sample, spec, engine)
        return lambda taus: decide.many([(sens, t) for t in taus])

    lower, lower_bracket, nm_lo = _invert_one_side(
        make_rejector("greater"), center, step, tol, -1.0, max_expansions, precheck_points
    )
    upper, upper_bracket, nm_hi = _invert_one_side(
        make_rejector("less"), center, step, tol, +1.0, max_expansions, precheck_points
    )
    return SensitivityInterval(
        gamma=gamma,
        lower=lower,
        upper=upper,
        confidence=confidence,
        method=method,
        tol=tol,
        lower_bracket=lower_bracket,
        upper_bracket=upper_bracket,
        non_monotone=nm_lo or nm_hi,
    )


def design_sensitivity(
    tau: float,
    mean: Union[float, None] = None,
    abs_moment: Union[float, None] = None,
    sample: Union[PairedSample, None] = None,
) -> DesignSensitivityResult:
    """Bias bound where large-sample power steps from 1 to 0.

    Supply either the population moments (``mean`` of the differences and
    ``abs_moment`` = E|Y - tau|) or a sample from which both are estimated
    by plug-in.  The formula is a population quantity; plug-in output is
    labeled an estimate.
    """
    if sample is not None:
        if mean is not None or abs_moment is not None:
            raise ValueError("pass either a sample or explicit moments, not both")
        mean = float(sample.y.mean())
        abs_moment = float(np.mean(np.abs(residuals(sample.y, tau))))
        source = "estimated"
    else:
        if mean is None or abs_moment is None:
            raise ValueError("need both mean and abs_moment when no sample is given")
        mean = float(mean)
        abs_moment = float(abs_moment)
        source = "analytic"
    if not all(math.isfinite(v) for v in (tau, mean, abs_moment)):
        raise ValueError("tau, mean and abs_moment must be finite")
    if abs_moment <= 0.0:
        raise ValueError("design sensitivity undefined: E|Y - tau| must be positive")
    shift = abs(mean - tau)
    if abs_moment > shift:
        gamma_tilde, note = (abs_moment + shift) / (abs_moment - shift), None
    else:
        gamma_tilde = math.inf
        note = ("E|Y - tau| does not exceed |mean - tau|; the worst-case "
                "expectation never crosses zero, so power persists at every bound")
    return DesignSensitivityResult(
        gamma_tilde=gamma_tilde,
        tau=tau,
        mean=mean,
        abs_moment=abs_moment,
        source=source,
        note=note,
    )
