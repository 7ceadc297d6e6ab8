"""Domain types and per-pair statistics for paired sensitivity analysis.

Everything downstream consumes the observed treated-minus-control paired
differences through the two derived per-pair quantities computed here: the
bias-corrected differences ``d_values`` and the worst-case assignment
statistics ``a_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ALTERNATIVES",
    "METHODS",
    "AssignmentVector",
    "PairedSample",
    "SensitivityParam",
    "TestResult",
    "TestSpec",
    "a_values",
    "d_values",
    "observed_signs",
    "residuals",
    "sample_mean_and_se",
]

METHODS = ("perm_t", "neyman", "studentized", "combined")
ALTERNATIVES = ("greater", "less")
RESCALE = "rescale the differences (the test statistics are scale-free)"
SE_OVERFLOWS = f"the standard error of the differences overflows double precision; {RESCALE}"


def _readonly_1d(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PairedSample:
    """Observed treated-minus-control differences, one entry per pair.

    The sole data input to all inference in this package.  Two-column
    (treated, control) data must be collapsed to differences before
    construction; the command line does this at ingestion.

    Note: mean-only procedures accept a single pair, but any operation that
    estimates a standard error requires at least two pairs and raises
    otherwise.
    """

    y: np.ndarray

    def __post_init__(self):
        arr = _readonly_1d(self.y, "y")
        if arr.size < 1:
            raise ValueError("paired sample needs at least one pair")
        if not np.all(np.isfinite(arr)):
            raise ValueError("paired differences must all be finite")
        object.__setattr__(self, "y", arr)

    @property
    def n_pairs(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True)
class SensitivityParam:
    """Bound on the odds of treatment within a pair.

    ``gamma = 1`` is a paired randomized experiment; larger values allow more
    hidden bias.  The derived upper bound on each assignment probability is
    ``theta = gamma / (1 + gamma)``.
    """

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not np.isfinite(g) or g < 1.0:
            raise ValueError("gamma must be finite and >= 1")
        object.__setattr__(self, "gamma", g)

    @property
    def theta(self) -> float:
        return self.gamma / (1.0 + self.gamma)

    @property
    def sign_bias(self) -> float:
        """Coefficient ``2*theta - 1`` multiplying |y - tau| in D and A."""
        return 2.0 * self.theta - 1.0


@dataclass(frozen=True)
class TestSpec:
    """Hypothesis to test: value, level, direction and procedure."""

    tau: float
    alpha: float = 0.05
    alternative: str = "greater"
    method: str = "studentized"

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError("alpha must be in (0, 0.5]")
        if self.alternative not in ALTERNATIVES:
            raise ValueError(f"alternative must be one of {ALTERNATIVES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one sensitivity-analysis test.

    ``statistic`` is the mean statistic for ``perm_t`` and the studentized
    mean for ``neyman``/``studentized``/``combined``.  For the "less"
    alternative all fields are reported on the internally sign-normalized
    scale (the test is run as "greater" on the negated data), so the
    invariant ``reject == (statistic >= critical_value)`` holds for every
    non-degenerate result.  ``p_value_upper`` is the worst-case p-value upper
    bound; for Monte Carlo reference distributions it is the raw tail
    proportion, with the conservative ``(1 + count) / (1 + draws)`` variant
    reported alongside.  ``n_draws`` is the Monte Carlo draw count, the
    string ``"exact"`` for full enumeration, or None when no reference
    distribution is involved.
    """

    method: str
    tau: float
    gamma: float
    alpha: float
    alternative: str
    statistic: Union[float, None]
    critical_value: Union[float, None]
    p_value_upper: float
    reject: bool
    degenerate: bool = False
    mode: Union[str, None] = None
    n_draws: Union[int, str, None] = None
    p_value_upper_conservative: Union[float, None] = None


@dataclass(frozen=True)
class AssignmentVector:
    """A realization of the within-pair treatment indicators, coded +/-1."""

    v: np.ndarray

    def __post_init__(self):
        arr = _readonly_1d(self.v, "v")
        if arr.size and not np.all(np.abs(arr) == 1.0):
            raise ValueError("assignment entries must be +1 or -1")
        object.__setattr__(self, "v", arr)

    @property
    def n_pairs(self) -> int:
        return int(self.v.size)


def residuals(y: np.ndarray, tau: float) -> np.ndarray:
    """``y - tau``, +/-inf without a warning where it overflows: ``run_test``
    refuses such a tau, and a search reads it as it is."""
    with np.errstate(over="ignore"):
        return y - tau


def d_values(sample: PairedSample, tau: float, sens: SensitivityParam) -> np.ndarray:
    """Bias-corrected differences ``y_i - tau - (2*theta - 1)*|y_i - tau|``.

    At ``gamma = 1`` this is exactly ``y_i - tau``.  The map from ``y_i`` to
    each value is monotone nondecreasing for any fixed ``tau`` and ``gamma``.
    An infinite residual, or a finite one beyond about half of double range
    whose correction overflows, gives +/-inf or NaN, without a warning.
    """
    resid = residuals(sample.y, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        return resid - sens.sign_bias * np.abs(resid)


def a_values(
    v: Union[AssignmentVector, np.ndarray],
    sample: PairedSample,
    tau: float,
    sens: SensitivityParam,
) -> np.ndarray:
    """Worst-case assignment statistics ``v_i*|y_i - tau| - (2*theta-1)*|y_i - tau|``.

    Substituting the observed signs of ``y_i - tau`` recovers ``d_values``
    elementwise.  Under signs drawn +1 with probability theta, each entry has
    expectation zero.
    """
    vv = v.v if isinstance(v, AssignmentVector) else np.asarray(v, dtype=float)
    if vv.shape != sample.y.shape:
        raise ValueError("assignment vector and sample must have equal length")
    mag = np.abs(residuals(sample.y, tau))
    return vv * mag - sens.sign_bias * mag


def observed_signs(sample: PairedSample, tau: float) -> AssignmentVector:
    """Signs of ``y_i - tau`` with the tie convention ``sign(0) = +1``.

    Ties contribute ``|y_i - tau| = 0`` so the choice is inert; fixing it
    keeps runs reproducible.
    """
    return AssignmentVector(np.where(residuals(sample.y, tau) < 0.0, -1.0, 1.0))


def sample_mean_and_se(x) -> tuple[float, float]:
    """Mean and the conventional paired standard error of the mean.

    The squared standard error is ``sum((x - mean)^2) / (n * (n - 1))``.
    Sums go through numpy's pairwise summation, which keeps the estimators
    stable for the million-pair samples used in simulations.  Finite input
    whose standard error overflows (differences of about 1e154 or more) raises
    ValueError rather than return a wrong zero statistic.  Two-dimensional
    input gives each row's mean and standard error, as arrays, each equal
    to that of the row alone; it raises if any row's would.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise ValueError("need at least two observations for a standard error")
    finite = bool(np.isfinite(arr).all())
    # finite input that overflows is refused below without numpy's warnings;
    # non-finite input warns as numpy does
    with np.errstate(over="ignore", invalid="ignore") if finite else np.errstate():
        # arr.mean() and sqrt(arr.var(ddof=1) / n), bit for bit, in fewer calls
        n = arr.shape[-1]
        mean = np.add.reduce(arr, axis=-1, keepdims=True) / n
        dev = arr - mean
        se = np.sqrt(np.add.reduce(dev * dev, axis=-1) / (n - 1) / n)
    if finite and not np.isfinite(se).all():
        raise ValueError(SE_OVERFLOWS)
    mean = mean[..., 0]
    return (float(mean), float(se)) if arr.ndim == 1 else (mean, se)
