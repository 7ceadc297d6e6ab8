"""Shared checks for comparing Monte Carlo and exact reference distributions,
and the reference implementations that faster paths are tested against."""

import math
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri

from pairsens import inference, randdist, testing
from pairsens.core import (
    PairedSample,
    SensitivityParam,
    TestResult,
    TestSpec,
    d_values,
    sample_mean_and_se,
)
from pairsens.inference import ChangepointResult
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


def record_enumerations(monkeypatch):
    """Record each ``randdist._enumerate_exact`` call, an enumeration of all
    ``2**n`` sign vectors, as ``("all", fallback)``, and each move of an
    exact decision's ``_Halves`` as ``("halves", fallback)``; ``fallback`` is
    whether ``testing.run_test``, a guard fallback, made it.

    An exact decision chains only halves of the pairs from their steps; only
    the sorted distribution of a fallback enumerates them all.
    """
    calls, inside = [], []
    enumerate_exact, run_test = randdist._enumerate_exact, testing.run_test
    move_to = randdist._Halves.move_to

    def enumerating(*args):
        calls.append(("all", bool(inside)))
        return enumerate_exact(*args)

    def moving(halves, *args):
        calls.append(("halves", bool(inside)))
        return move_to(halves, *args)

    def falling_back(*args, **kwargs):
        inside.append(True)
        try:
            return run_test(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(randdist, "_enumerate_exact", enumerating)
    monkeypatch.setattr(randdist._Halves, "move_to", moving)
    monkeypatch.setattr(testing, "run_test", falling_back)
    return calls


def halves_only(calls):
    """Whether some halves were moved, and all the pairs were enumerated
    only inside a fallback."""
    return ("halves", False) in calls and all(
        kind == "halves" or fallback for kind, fallback in calls)


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


def observed_statistics_loop(sample, tau, sens, studentized=True):
    """Reference observed statistics whose signed sums are a Python loop over
    the pairs, adding or subtracting each ``|y - tau|`` (and its square) in
    pair order as the doubling enumeration does.

    ``randdist.observed_statistics`` accumulates them with numpy; both must
    give the same floats, and raise the same ValueError.
    """
    resid = sample.y - tau
    m = np.abs(resid)
    with np.errstate(over="ignore"):
        bound = (1.0 + abs(sens.sign_bias)) ** 2
        if studentized and not np.isfinite(bound * np.sum(m * m)):
            raise ValueError("the squares of |y - tau| overflow double precision")
    s1 = 0.0
    s2 = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for ri, mi in zip(resid, m):
            sq = mi * mi if studentized else 0.0
            if ri < 0.0:
                s1 -= mi
                s2 -= sq
            else:
                s1 += mi
                s2 += sq
    abar, tstat = randdist._statistics(np.array([s1]), np.array([s2]), m, sens, studentized,
                                       randdist._StatBuffers.empty(1))
    return float(abar[0]), None if tstat is None else float(tstat[0])


def studentized_full_chain(s1, s2, m, sens):
    """Reference studentized statistic of every draw, computed in place over
    all of them from the enumerated sums of m**2, as decisions did before a
    draw's mean settled its comparison.

    A decision settles a draw whose mean lies at or beyond the cut points of
    ``randdist._cuts``, a magnitude band on the mean, and reads the sums of
    m**2 only for the draws between them, and none at a bias bound of 1.
    Its mask must equal ``tstat <= t`` of this chain's result.
    """
    n = m.size
    c = sens.sign_bias
    abar = np.subtract(s1, c * np.sum(m))
    np.divide(abar, n, out=abar)
    tstat = np.empty_like(abar)
    ssd = np.empty_like(abar)
    sumsq = np.multiply(2.0 * c, s2, out=tstat)
    np.subtract((1.0 + c * c) * np.sum(m * m), sumsq, out=sumsq)
    np.maximum(sumsq, 0.0, out=sumsq)
    np.multiply(n, abar, out=ssd)
    np.multiply(ssd, abar, out=ssd)
    np.subtract(sumsq, ssd, out=ssd)
    np.maximum(ssd, 0.0, out=ssd)
    tol = np.multiply(_DEGENERATE_RTOL, sumsq, out=sumsq)
    degenerate = np.less_equal(ssd, tol)
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


def degenerate(method, sample, tau, sens):
    """A degenerate test does not reject: perm-t when every ``|y_i - tau|`` is
    zero, every other method when the standard error is 0."""
    if method == "perm_t":
        return _all_at_tau(sample, tau)
    return _se(sample, tau, sens) == 0.0


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


# Simulation replications' decisions as they were made before they shared
# the searches' masked sum: one sorted, merged build of the kinds that the
# non-degenerate drawing methods compare, and each quantile compared with
# its observed statistic.


def rejections_sorted(sample, spec, sens, engine, methods):
    """``run_test(sample, replace(spec, method=m), sens, engine).reject`` for
    each ``m`` in ``methods``, from one build of sorted distributions."""
    norm_sample, norm_spec = _normalized(sample, spec)
    tau, alpha = norm_spec.tau, norm_spec.alpha
    drawing = [m for m in methods if testing._KINDS[m]]
    drawn = {m for m in drawing if not degenerate(m, norm_sample, tau, sens)}
    kinds = tuple(k for k in ("mean", "studentized")
                  if any(k in testing._KINDS[m] for m in drawn))
    observed = dict(zip(("mean", "studentized"), observed_statistics(norm_sample, tau, sens)))
    if len(kinds) == 2:
        dists = dict(zip(kinds, build_pair(norm_sample, tau, sens, engine)))
    elif kinds:
        build = build_f_hat if kinds == ("mean",) else build_g_hat
        dists = {kinds[0]: build(norm_sample, tau, sens, engine)}
    passed = {k: observed[k] >= dists[k].quantile(1.0 - alpha) for k in kinds}
    return [
        m in drawn and all(passed[kind] for kind in testing._KINDS[m])
        if testing._KINDS[m]
        else testing._neyman(testing._mean_se(norm_sample, tau, sens), alpha)[2]
        for m in methods
    ]


# The two searches as they were written out before they shared ``_bisect``,
# ``_scan`` and ``_walk``.  Each search must evaluate the same points in the
# same order and return an equal result.  ``rejector`` is looked up in
# ``pairsens.inference`` at call time, so a test can replace it there.


def changepoint_gamma_oracle(
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
    """The changepoint search with its own bisection and grid scan.

    Bisection runs on [1, gamma_max], switching to geometric midpoints above
    10 since the bound lives on an odds-ratio scale.  A post-hoc scan over a
    coarse geometric grid checks that the indicator is monotone; if a
    rejection reappears past the bracket, the changepoint is moved to the
    supremum of rejecting grid points and refined locally, and the
    inversions are reported in the result.
    """
    if gamma_max <= 1.0:
        raise ValueError("gamma_max must exceed 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    engine = engine or EnumSpec()
    evals = 0
    spec = TestSpec(tau=tau, alpha=alpha, alternative=alternative, method=method)
    decide = inference.rejector(sample, spec, engine)

    def rejects(g: float) -> bool:
        nonlocal evals
        evals += 1
        return decide(SensitivityParam(g))

    common = dict(
        tolerance=tol,
        method=method,
        tau=tau,
        alpha=alpha,
        alternative=alternative,
    )
    if not rejects(1.0):
        return ChangepointResult(
            gamma_changepoint=1.0,
            bracket=(1.0, 1.0),
            rejects_at_gamma_one=False,
            exceeded_gamma_max=False,
            monotone=True,
            inversions=(),
            n_evaluations=evals,
            **common,
        )
    if rejects(gamma_max):
        return ChangepointResult(
            gamma_changepoint=math.inf,
            bracket=(gamma_max, math.inf),
            rejects_at_gamma_one=True,
            exceeded_gamma_max=True,
            monotone=True,
            inversions=(),
            n_evaluations=evals,
            **common,
        )

    def bisect(lo: float, hi: float) -> tuple[float, float]:
        while hi - lo > tol:
            mid = math.sqrt(lo * hi) if lo >= 10.0 else 0.5 * (lo + hi)
            if not (lo < mid < hi):
                mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            if rejects(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    lo, hi = bisect(1.0, gamma_max)

    inversions: list[tuple[float, float]] = []
    if grid_points >= 2:
        scan_hi = min(gamma_max, max(2.0 * hi, hi + 1.0))
        grid = np.geomspace(1.0, scan_hi, grid_points)
        flags = [rejects(float(g)) for g in grid]
        last_false: Union[float, None] = None
        for g, f in zip(grid, flags):
            if not f:
                last_false = float(g)
            elif last_false is not None:
                inversions.append((last_false, float(g)))
        if inversions:
            rejecting = [float(g) for g, f in zip(grid, flags) if f]
            top = max(rejecting)
            if top > lo:
                above = [float(g) for g, f in zip(grid, flags) if not f and g > top]
                lo, hi = bisect(top, min(above) if above else gamma_max)

    return ChangepointResult(
        gamma_changepoint=0.5 * (lo + hi),
        bracket=(lo, hi),
        rejects_at_gamma_one=True,
        exceeded_gamma_max=False,
        monotone=not inversions,
        inversions=tuple(inversions),
        n_evaluations=evals,
        **common,
    )


def invert_one_side_oracle(
    rejects,
    center: float,
    step: float,
    tol: float,
    reject_direction: float,
    max_expansions: int,
    precheck_points: int,
) -> tuple[float, tuple[float, float], bool, bool]:
    """Locate the boundary between rejecting and non-rejecting tau.

    ``reject_direction`` is -1 when rejection happens for small tau (lower
    endpoint, greater alternative) and +1 when it happens for large tau.
    Returns (endpoint, bracket, infinite, non_monotone); the endpoint is the
    non-rejecting edge of the final bracket.
    """
    t_acc = center
    width = step
    for _ in range(max_expansions):
        if not rejects(t_acc):
            break
        t_acc -= reject_direction * width
        width *= 2.0
    else:
        raise RuntimeError("could not find a non-rejected hypothesis value")

    t_rej = t_acc + reject_direction * step
    width = step
    found = False
    for _ in range(max_expansions):
        if rejects(t_rej):
            found = True
            break
        width *= 2.0
        t_rej += reject_direction * width
    if not found:
        # no rejection anywhere on this side: endpoint is -inf for the lower
        # search (reject_direction -1) and +inf for the upper (+1)
        endpoint = reject_direction * math.inf
        return endpoint, (min(t_rej, t_acc), max(t_rej, t_acc)), True, False

    non_monotone = False
    if precheck_points >= 3:
        grid = np.linspace(t_rej, t_acc, precheck_points)
        flags = [rejects(float(t)) for t in grid]
        # walking from the rejecting end: once the indicator turns off it
        # should stay off
        turned_off = False
        for f in flags:
            if not f:
                turned_off = True
            elif turned_off:
                non_monotone = True
        if non_monotone:
            # widen: restart the bisection from the rejecting grid point
            # closest to the non-rejecting side (grid runs t_rej -> t_acc)
            rej_pts = [float(t) for t, f in zip(grid, flags) if f]
            if rej_pts:
                t_rej = rej_pts[-1]

    # bisection keeping reject at t_rej, no-reject at t_acc
    while abs(t_acc - t_rej) > tol:
        mid = 0.5 * (t_acc + t_rej)
        if not (min(t_rej, t_acc) < mid < max(t_rej, t_acc)):
            break
        if rejects(mid):
            t_rej = mid
        else:
            t_acc = mid
    return t_acc, (min(t_rej, t_acc), max(t_rej, t_acc)), False, non_monotone
