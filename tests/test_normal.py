"""The package's normal CDF and quantile against scipy.special, bit for bit.

``pairsens._normal`` ports the Cephes routines that scipy.special uses, so
every comparison here is exact equality (NaN equal to NaN), never a
tolerance.  The edges are the routines' branch points, each probed by the
ulps on both sides and by a short dense run across it.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import pairsens
from pairsens import _normal

SQRT2 = math.sqrt(2.0)
ALPHAS = (0.0, 0.01, 0.025, 0.05, 0.1, 0.2, 0.5, -0.01, 0.51, 1.0)


def assert_bit_identical(port, reference, x):
    x = np.asarray(x, dtype=float)
    got = np.array([port(v) for v in x])
    want = reference(x)
    nan = np.isnan(got) & np.isnan(want)
    # +0 and -0 compare equal; their signs must agree as well
    same = nan | ((got == want) & (np.signbit(got) == np.signbit(want)))
    assert np.array_equal(got, want, equal_nan=True) and same.all(), (
        x[~same][:10], got[~same][:10], want[~same][:10])


def around(edge, width, ulps=64, count=2001):
    """``edge`` itself, its neighbours ``ulps`` steps away on either side,
    and ``count`` points spread over ``edge +- width``."""
    below = [edge]
    above = [edge]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    spread = edge + width * np.linspace(-1.0, 1.0, count)
    return np.concatenate([below, above, spread])


SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e-310, -1e-310, 1.0, -1.0, np.nextafter(1.0, 0.0),
    np.finfo(float).max, -np.finfo(float).max, 0.5, -0.5, 38.5, -38.5,
])


def straddles(x, below):
    """Whether the points ``x`` fall on both sides of a branch test."""
    taken = np.array([below(float(v)) for v in x])
    return taken.any() and not taken.all()


class TestNdtr:
    # With z = |x|/sqrt(2): erf below z = 1/sqrt(2), erfc above; erfc turns
    # to erf below z = 1, switches from its P/Q table to R/S at z = 8 and
    # underflows where z*z > MAXLOG.  Each edge is given as x and the test.
    EDGES = {
        "erf-erfc": (1.0, lambda z: z < _normal._SQRTH),
        "erfc-erf": (SQRT2, lambda z: z < 1.0),
        "P/Q-R/S": (8.0 * SQRT2, lambda z: z < 8.0),
        "underflow": (SQRT2 * math.sqrt(_normal._MAXLOG), lambda z: -z * z < -_normal._MAXLOG),
    }

    @pytest.mark.parametrize("name", EDGES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_branch_edges(self, name, sign):
        edge, below = self.EDGES[name]
        x = around(sign * edge, 1e-9 * edge)
        assert straddles(x, lambda v: below(abs(v * _normal._SQRTH)))
        assert_bit_identical(_normal.ndtr, special.ndtr, x)

    def test_specials(self):
        assert_bit_identical(_normal.ndtr, special.ndtr, SPECIALS)

    def test_dense_sweeps(self):
        rng = np.random.default_rng(20160901)
        x = np.concatenate([
            rng.uniform(-40.0, 40.0, 60_000),
            rng.normal(0.0, 3.0, 60_000),
            np.linspace(-12.0, 12.0, 48_001),
            -np.exp(rng.uniform(-745.0, 3.7, 20_000)),
            np.exp(rng.uniform(-745.0, 3.7, 20_000)),
        ])
        assert_bit_identical(_normal.ndtr, special.ndtr, x)


def _tail(y):
    """ndtri's tail variable sqrt(-2 log y) on the tail's own side."""
    y = 1.0 - y if y > 1.0 - _normal._EXPM2 else y
    return math.sqrt(-2.0 * math.log(y))


class TestNdtri:
    # the central P0/Q0 table between exp(-2) and 1 - exp(-2); in either
    # tail sqrt(-2 log y) = 8 switches from P1/Q1 to P2/Q2
    EDGES = {
        "low-central": (math.exp(-2.0), lambda y: y > _normal._EXPM2),
        "central-high": (1.0 - math.exp(-2.0), lambda y: y > 1.0 - _normal._EXPM2),
        "P1/Q1-P2/Q2 low": (math.exp(-32.0), lambda y: _tail(y) < 8.0),
        "P1/Q1-P2/Q2 high": (1.0 - math.exp(-32.0), lambda y: _tail(y) < 8.0),
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_branch_edges(self, name):
        edge, below = self.EDGES[name]
        # relative to the distance from the nearer end of [0, 1]
        y = around(edge, 1e-6 * min(edge, 1.0 - edge))
        assert straddles(y, below)
        assert_bit_identical(_normal.ndtri, special.ndtri, y)

    def test_specials(self):
        y = np.concatenate([SPECIALS, [np.nextafter(0.0, 1.0), np.nextafter(1.0, 2.0)]])
        assert_bit_identical(_normal.ndtri, special.ndtri, y)

    def test_one_minus_alpha(self):
        y = np.array([1.0 - a for a in ALPHAS] + list(ALPHAS))
        assert_bit_identical(_normal.ndtri, special.ndtri, y)

    def test_dense_sweeps(self):
        rng = np.random.default_rng(20160902)
        y = np.concatenate([
            rng.uniform(0.0, 1.0, 80_000),
            np.exp(-rng.uniform(0.0, 745.0, 40_000)),
            1.0 - np.exp(-rng.uniform(0.0, 37.0, 40_000)),
            np.linspace(0.0, 1.0, 40_001),
        ])
        assert_bit_identical(_normal.ndtri, special.ndtri, y)


@pytest.mark.parametrize("module", ["pairsens", "pairsens.cli"])
def test_import_leaves_scipy_out(module):
    """The package imports without scipy, so the CLI does not pay its
    import time."""
    src = os.path.dirname(os.path.dirname(pairsens.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(sorted("
         "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
