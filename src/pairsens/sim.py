"""Ground-truth generators, size/power estimation, and exact-moment oracles.

Simulation-side code knows the full allocation (pair effects, level
differences and true assignment probabilities) that inference never sees.
Scenario constants are hard-coded for the two study designs exercised
throughout: the heterogeneous allocation where the classical analysis
over-rejects, and the favorable iid-normal setting used for power curves.

Oracle moments come from the exact two-point distribution of each pair's
assignment, never from simulation; lemma checks verify the bounding
inequalities pointwise on random grids.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import METHODS, PairedSample, SensitivityParam, TestSpec
# build_pair and observed_statistics stay names here for bench/tracer.py;
# replications decide through rejections' weights, with no sorted build
from .randdist import EnumSpec, build_pair, observed_statistics  # noqa: F401
from .rng import SeedLike, as_generator, as_seed_sequence
from .testing import rejections

__all__ = [
    "Allocation",
    "LemmaCheckReport",
    "LemmaGrid",
    "NormalSampler",
    "OracleMoments",
    "ScenarioResult",
    "estimate_size_power",
    "estimate_size_power_multi",
    "generate_paired_sample",
    "get_scenario",
    "load_allocation",
    "make_lemma_grid",
    "oracle_lemma_checks",
    "oracle_moments",
    "scenario_counterexample",
    "scenario_favorable_normal",
]

SCENARIO_NAMES = ("counterexample", "favorable_normal")


@dataclass(frozen=True)
class Allocation:
    """Simulation ground truth: pair effects, level differences, assignment probs."""

    delta: np.ndarray
    eta: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("delta", "eta", "pi"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            arrays[name] = arr
        if not (arrays["delta"].size == arrays["eta"].size == arrays["pi"].size):
            raise ValueError("delta, eta and pi must have equal length")
        if arrays["delta"].size < 1:
            raise ValueError("allocation needs at least one pair")
        if np.any(arrays["pi"] < 0.0) or np.any(arrays["pi"] > 1.0):
            raise ValueError("assignment probabilities must lie in [0, 1]")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n_pairs(self) -> int:
        return int(self.delta.size)

    @property
    def sate(self) -> float:
        """Sample average treatment effect implied by the allocation."""
        return float(self.delta.mean())

    def min_gamma(self) -> float:
        """Smallest bias bound containing every assignment probability.

        Infinite when any assignment is deterministic.
        """
        if np.any(self.pi == 0.0) or np.any(self.pi == 1.0):
            return math.inf
        odds = self.pi / (1.0 - self.pi)
        return float(max(odds.max(), (1.0 / odds).max()))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One realization of the paired differences."""
        v = np.where(rng.random(self.n_pairs) < self.pi, 1.0, -1.0)
        return self.delta + v * self.eta


@dataclass(frozen=True)
class NormalSampler:
    """Iid normal paired differences (the favorable, no-hidden-bias setting)."""

    n_pairs: int
    mean: float = 0.5
    var: float = 0.5

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("need at least one pair")
        if self.var < 0.0:
            raise ValueError("variance must be nonnegative")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + math.sqrt(self.var) * rng.standard_normal(self.n_pairs)


Scenario = Union[Allocation, NormalSampler]


def scenario_counterexample(n_pairs: int) -> Allocation:
    """Heterogeneous allocation with average effect 2.5 and bias exactly 4.

    First half of the pairs: effect 5, level difference 5; second half:
    effect 0, level difference 20; every assignment probability 4/5.
    """
    if n_pairs < 2 or n_pairs % 2:
        raise ValueError("counterexample scenario needs an even number of pairs >= 2")
    half = n_pairs // 2
    return Allocation(
        delta=np.concatenate([np.full(half, 5.0), np.zeros(half)]),
        eta=np.concatenate([np.full(half, 5.0), np.full(half, 20.0)]),
        pi=np.full(n_pairs, 0.8),
    )


def scenario_favorable_normal(
    n_pairs: int, mean: float = 0.5, var: float = 0.5
) -> NormalSampler:
    """Iid Normal(mean, var) differences; design sensitivity 6 at the defaults."""
    return NormalSampler(n_pairs=n_pairs, mean=mean, var=var)


def get_scenario(name: str, n_pairs: int) -> Scenario:
    if name == "counterexample":
        return scenario_counterexample(n_pairs)
    if name == "favorable_normal":
        return scenario_favorable_normal(n_pairs)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


def load_allocation(path) -> Allocation:
    """Read an allocation from CSV with header ``delta,eta,pi``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty allocation file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["delta", "eta", "pi"]:
        raise ValueError(f"{path}: expected header 'delta,eta,pi', got {rows[0]!r}")
    try:
        data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric allocation entry ({exc})") from None
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: every row must have three columns")
    return Allocation(delta=data[:, 0], eta=data[:, 1], pi=data[:, 2])


def generate_paired_sample(scenario: Scenario, seed: SeedLike) -> PairedSample:
    """Draw one paired sample from a scenario under a fresh seeded generator."""
    return PairedSample(scenario.draw(as_generator(seed)))


@dataclass(frozen=True)
class ScenarioResult:
    """Estimated rejection frequency of one test in one scenario."""

    method: str
    gamma_tested: float
    rejection_rate: float
    replications: int
    mc_se: float
    tau: float
    alpha: float
    n_pairs: int
    seed: SeedLike = None


def _resolve_scenario(scenario, n_pairs: Union[int, None]) -> Scenario:
    if isinstance(scenario, str):
        if n_pairs is None:
            raise ValueError("n_pairs is required when the scenario is named")
        return get_scenario(scenario, n_pairs)
    if n_pairs is not None and scenario.n_pairs != n_pairs:
        raise ValueError("n_pairs disagrees with the scenario's own pair count")
    return scenario


def estimate_size_power_multi(
    scenario,
    methods,
    tau: float,
    alpha: float,
    gamma: float,
    n_pairs: Union[int, None] = None,
    replications: int = 10_000,
    seed: SeedLike = 0,
    engine: Union[EnumSpec, None] = None,
) -> list[ScenarioResult]:
    """Rejection frequencies of several tests sharing data and assignment draws.

    Replication ``r`` derives two child streams from the seed: one for the
    data draw, one for the reference-distribution engine, so results are
    reproducible bit-for-bit for a given ``(seed, replications)`` and do not
    depend on which methods are requested together.  The methods within a
    replication decide from a single set of assignment draws, by the same
    weight of the draws at or below each observed statistic as the searches
    (``testing.rejections``); no sorted reference distribution is built
    unless a weight lies within roundoff of its threshold.
    """
    scen = _resolve_scenario(scenario, n_pairs)
    n = scen.n_pairs
    methods = list(methods)
    for mth in methods:
        if mth not in METHODS:
            raise ValueError(f"unknown method {mth!r}")
    if replications < 1:
        raise ValueError("replications must be positive")
    if not (0.0 <= alpha <= 0.5):
        raise ValueError("alpha must be in [0, 0.5]")
    engine = engine or EnumSpec()
    sens = SensitivityParam(gamma)

    counts = [0] * len(methods)
    # alpha = 0 tests never reject; skip the replications rather than asking
    # the procedures for an impossible level
    if alpha > 0.0:
        if n < 2 and any(mth != "perm_t" for mth in methods):
            raise ValueError("studentized procedures need at least two pairs")
        spec = TestSpec(tau=tau, alpha=alpha)
        for child in as_seed_sequence(seed).spawn(replications):
            ss_data, ss_engine = child.spawn(2)
            smp = PairedSample(scen.draw(as_generator(ss_data)))
            hits = rejections(smp, spec, sens, engine.reseeded(ss_engine), methods)
            counts = [count + hit for count, hit in zip(counts, hits)]
    rates = [count / replications for count in counts]
    return [
        ScenarioResult(
            method=mth,
            gamma_tested=gamma,
            rejection_rate=rate,
            replications=replications,
            mc_se=math.sqrt(rate * (1.0 - rate) / replications),
            tau=tau,
            alpha=alpha,
            n_pairs=n,
            seed=seed,
        )
        for mth, rate in zip(methods, rates)
    ]


def estimate_size_power(
    scenario,
    method: str,
    tau: float,
    alpha: float,
    gamma: float,
    n_pairs: Union[int, None] = None,
    replications: int = 10_000,
    seed: SeedLike = 0,
    engine: Union[EnumSpec, None] = None,
) -> ScenarioResult:
    """Rejection frequency of one test across seeded replications."""
    return estimate_size_power_multi(
        scenario,
        [method],
        tau,
        alpha,
        gamma,
        n_pairs=n_pairs,
        replications=replications,
        seed=seed,
        engine=engine,
    )[0]


@dataclass(frozen=True)
class OracleMoments:
    """Exact moments of the mean statistics under a known allocation."""

    mean_dbar: float
    var_dbar: float
    mean_abar: float
    var_abar: float
    e_s2_d: float
    n_pairs: int
    tau: float
    gamma: float


def oracle_moments(alloc: Allocation, tau: float, gamma: float) -> OracleMoments:
    """Moments of the bias-corrected mean and of the assignment statistic mean.

    Everything is exact algebra on the per-pair two-point distributions:
    each pair's difference takes ``delta + eta`` with probability ``pi`` and
    ``delta - eta`` otherwise, while the assignment statistic additionally
    draws its sign +1 with probability theta independently.  ``e_s2_d`` is
    the expectation of the squared standard-error estimator, which exceeds
    the true variance of the mean by the spread of the per-pair means.
    """
    if alloc.n_pairs < 2:
        raise ValueError("oracle moments need at least two pairs")
    sens = SensitivityParam(gamma)
    theta = sens.theta
    c = sens.sign_bias
    n = alloc.n_pairs
    pi = alloc.pi

    def dval(y):
        r = y - tau
        return r - c * np.abs(r)

    y_plus = alloc.delta + alloc.eta
    y_minus = alloc.delta - alloc.eta
    d_plus = dval(y_plus)
    d_minus = dval(y_minus)
    e_d = pi * d_plus + (1.0 - pi) * d_minus
    var_d = pi * (1.0 - pi) * (d_plus - d_minus) ** 2
    mean_dbar = float(e_d.mean())
    var_dbar = float(var_d.sum() / n**2)

    # A = |y - tau| * (sign - c), sign +1 with probability theta, and the
    # magnitude itself is random through the pair's assignment
    def a_conditional(mag):
        up = mag * (1.0 - c)
        down = -mag * (1.0 + c)
        first = theta * up + (1.0 - theta) * down
        second = theta * up**2 + (1.0 - theta) * down**2
        return first, second

    m_plus = np.abs(y_plus - tau)
    m_minus = np.abs(y_minus - tau)
    ea_p, ea2_p = a_conditional(m_plus)
    ea_m, ea2_m = a_conditional(m_minus)
    e_a = pi * ea_p + (1.0 - pi) * ea_m
    e_a2 = pi * ea2_p + (1.0 - pi) * ea2_m
    var_a = e_a2 - e_a**2
    mean_abar = float(e_a.mean())
    var_abar = float(var_a.sum() / n**2)

    spread = float(np.sum((e_d - e_d.mean()) ** 2) / (n * (n - 1)))
    return OracleMoments(
        mean_dbar=mean_dbar,
        var_dbar=var_dbar,
        mean_abar=mean_abar,
        var_abar=var_abar,
        e_s2_d=var_dbar + spread,
        n_pairs=n,
        tau=tau,
        gamma=gamma,
    )


@dataclass(frozen=True)
class LemmaGrid:
    """Random configurations for the inequality suite.

    Rows within a group share the hypothesis value, bias bound and increment
    (the average-form inequalities need a common bound across pairs); each
    pair has its own effect, level difference and assignment probability,
    the latter drawn inside the bound's allowed band.
    """

    delta: np.ndarray
    eta: np.ndarray
    pi: np.ndarray
    tau: np.ndarray
    gamma: np.ndarray
    epsilon: np.ndarray

    @property
    def n_groups(self) -> int:
        return int(self.delta.shape[0])

    @property
    def n_tuples(self) -> int:
        return int(self.delta.size)


def make_lemma_grid(
    n_groups: int = 2000,
    group_size: int = 5,
    seed: SeedLike = 0,
    value_range: tuple[float, float] = (-10.0, 10.0),
    gamma_range: tuple[float, float] = (1.0, 10.0),
    epsilon_range: tuple[float, float] = (0.01, 2.0),
) -> LemmaGrid:
    rng = as_generator(seed)
    lo, hi = value_range
    shape = (n_groups, group_size)
    delta = rng.uniform(lo, hi, shape)
    eta = rng.uniform(lo, hi, shape)
    tau = rng.uniform(lo, hi, n_groups)
    gamma = rng.uniform(*gamma_range, n_groups)
    theta = gamma / (1.0 + gamma)
    pi = rng.uniform((1.0 - theta)[:, None], theta[:, None], shape)
    epsilon = rng.uniform(*epsilon_range, n_groups)
    return LemmaGrid(delta=delta, eta=eta, pi=pi, tau=tau, gamma=gamma, epsilon=epsilon)


@dataclass(frozen=True)
class LemmaCheckReport:
    """Violation counts and worst excesses for each checked inequality."""

    n_tuples: int
    n_groups: int
    tolerance: float
    violations: dict
    max_excess: dict

    @property
    def passed(self) -> bool:
        return all(v == 0 for v in self.violations.values())

    def total_violations(self) -> int:
        return sum(self.violations.values())


def oracle_lemma_checks(grid: LemmaGrid, tolerance: float = 1e-10) -> LemmaCheckReport:
    """Verify the bounding inequalities pointwise from two-point distributions.

    Checks, per pair: the expectation bound on the dominating statistic, the
    three-case absolute-value inequality it rests on, the variance sandwich
    for both the dominating and the observed statistic, the fourth-moment
    bounds, and the expectation gap opened by testing at an inflated bound.
    Per group: the average-form expectation bound, the identity decomposing
    the expected squared standard error, and the variance-domination bound.
    Any excess beyond ``tolerance`` counts as a violation (it would indicate
    an implementation bug, not randomness).
    """
    th = (grid.gamma / (1.0 + grid.gamma))[:, None]
    c = 2.0 * th - 1.0
    k = grid.delta.shape[1]
    if k < 2:
        raise ValueError("lemma checks need at least two pairs per group")
    delta, eta, pi = grid.delta, grid.eta, grid.pi
    tau = grid.tau[:, None]
    abs_eta = np.abs(eta)
    shift = delta - tau

    def corrected(x, coef):
        return x - coef * np.abs(x)

    u_plus = corrected(shift + abs_eta, c)
    u_minus = corrected(shift - abs_eta, c)
    e_u = th * u_plus + (1.0 - th) * u_minus
    var_u = th * (1.0 - th) * (u_plus - u_minus) ** 2
    e_u4 = th * u_plus**4 + (1.0 - th) * u_minus**4

    d_plus = corrected(shift + eta, c)
    d_minus = corrected(shift - eta, c)
    e_d = pi * d_plus + (1.0 - pi) * d_minus
    var_d = pi * (1.0 - pi) * (d_plus - d_minus) ** 2
    e_d4 = pi * d_plus**4 + (1.0 - pi) * d_minus**4

    fourth_bound = 128.0 * th**4 * (shift**4 + eta**4)
    coef = 4.0 * th * (1.0 - th)

    # group-level quantities
    var_dbar = var_d.sum(axis=1) / k**2
    e_dbar = e_d.mean(axis=1)
    spread = np.sum((e_d - e_dbar[:, None]) ** 2, axis=1) / (k * (k - 1))
    e_s2_direct = (
        np.sum(var_d + e_d**2, axis=1) - k * (var_dbar + e_dbar**2)
    ) / (k * (k - 1))
    e_s2_lemma = var_dbar + spread
    var_ubar = var_u.sum(axis=1) / k**2

    # inflated-bound gap: the dominating statistic at gamma + epsilon versus
    # the bound computed with the original sign probabilities
    gamma_eps = grid.gamma + grid.epsilon
    th_eps = (gamma_eps / (1.0 + gamma_eps))[:, None]
    c_eps = 2.0 * th_eps - 1.0
    w_plus = corrected(shift + abs_eta, c_eps)
    w_minus = corrected(shift - abs_eta, c_eps)
    e_w = th * w_plus + (1.0 - th) * w_minus
    e_u_eps = th_eps * w_plus + (1.0 - th_eps) * w_minus
    gap = e_u_eps - e_w
    gap_bound = 4.0 * (1.0 - th_eps) * (th_eps - th) * abs_eta

    case_lhs = th * np.abs(shift + abs_eta) + (1.0 - th) * np.abs(shift - abs_eta)
    case_rhs = abs_eta + c * shift

    excesses = {
        "expectation_bound_pair": e_u - coef * shift,
        "expectation_bound_average": e_u.mean(axis=1) - coef[:, 0] * shift.mean(axis=1),
        "case_inequality": case_rhs - case_lhs,
        "s2d_identity": np.abs(e_s2_direct - e_s2_lemma),
        "variance_domination": var_ubar - e_s2_lemma,
        "u_variance_lower": 16.0 * th * (1.0 - th) ** 3 * eta**2 - var_u,
        "u_variance_upper": var_u - 16.0 * th**3 * (1.0 - th) * eta**2,
        "u_fourth_moment": e_u4 - fourth_bound,
        "d_variance_lower": 16.0 * th * (1.0 - th) ** 3 * eta**2 - var_d,
        "d_variance_upper": var_d - 4.0 * th**2 * eta**2,
        "d_fourth_moment": e_d4 - fourth_bound,
        "gap_identity": np.abs(gap - (th_eps - th) * (w_plus - w_minus)),
        "inflated_gap_pair": gap_bound - gap,
        "inflated_gap_average": gap_bound.mean(axis=1) - gap.mean(axis=1),
    }
    violations = {
        name: int(np.count_nonzero(exc > tolerance)) for name, exc in excesses.items()
    }
    max_excess = {name: float(np.max(exc)) for name, exc in excesses.items()}
    return LemmaCheckReport(
        n_tuples=grid.n_tuples,
        n_groups=grid.n_groups,
        tolerance=tolerance,
        violations=violations,
        max_excess=max_excess,
    )
