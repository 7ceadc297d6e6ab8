"""Sensitivity analysis for the sample average treatment effect in paired studies.

The package tests hypotheses about the average treatment effect from paired
treated-minus-control differences while allowing the within-pair odds of
treatment to deviate from even by a bounded factor.  It provides the
large-sample normal test, the classical permutational t against the
worst-case assignment distribution, a studentized variant that stays valid
under effect heterogeneity, changepoint search over the bias bound,
sensitivity intervals by test inversion, design sensitivity, and a seeded
simulation harness with exact-moment oracles.

``import pairsens`` loads numpy and the analysis modules (``core``,
``randdist``, ``testing``, ``inference``).  The simulation harness,
``pairsens.sim``, and ``numpy.random`` load on first use: the harness's
names resolve through the module ``__getattr__`` below, and the Monte Carlo
engine imports ``numpy.random`` when it first seeds.
"""

import importlib

from .core import (
    ALTERNATIVES,
    METHODS,
    AssignmentVector,
    PairedSample,
    SensitivityParam,
    TestResult,
    TestSpec,
    a_values,
    d_values,
    observed_signs,
    sample_mean_and_se,
)
from .inference import (
    ChangepointResult,
    DesignSensitivityResult,
    SensitivityInterval,
    changepoint_gamma,
    design_sensitivity,
    sensitivity_interval,
)
from .randdist import (
    EnumSpec,
    ReferenceDistribution,
    build_f_hat,
    build_g_hat,
    build_pair,
    observed_statistics,
)
from .testing import run_test, test_combined, test_neyman, test_perm_t, test_studentized

__version__ = "0.1.0"

__all__ = [
    "ALTERNATIVES",
    "METHODS",
    "Allocation",
    "AssignmentVector",
    "ChangepointResult",
    "DesignSensitivityResult",
    "EnumSpec",
    "LemmaCheckReport",
    "LemmaGrid",
    "NormalSampler",
    "OracleMoments",
    "PairedSample",
    "ReferenceDistribution",
    "ScenarioResult",
    "SensitivityInterval",
    "SensitivityParam",
    "TestResult",
    "TestSpec",
    "a_values",
    "build_f_hat",
    "build_g_hat",
    "build_pair",
    "changepoint_gamma",
    "d_values",
    "design_sensitivity",
    "estimate_size_power",
    "estimate_size_power_multi",
    "generate_paired_sample",
    "get_scenario",
    "load_allocation",
    "make_lemma_grid",
    "observed_signs",
    "observed_statistics",
    "oracle_lemma_checks",
    "oracle_moments",
    "run_test",
    "sample_mean_and_se",
    "scenario_counterexample",
    "scenario_favorable_normal",
    "sensitivity_interval",
    "test_combined",
    "test_neyman",
    "test_perm_t",
    "test_studentized",
    "__version__",
]

# The simulation harness's public names, resolved from ``pairsens.sim`` when
# first read (PEP 562), so that importing the package does not import it.
_SIM_NAMES = frozenset({
    "Allocation", "LemmaCheckReport", "LemmaGrid", "NormalSampler", "OracleMoments",
    "ScenarioResult", "estimate_size_power", "estimate_size_power_multi",
    "generate_paired_sample", "get_scenario", "load_allocation", "make_lemma_grid",
    "oracle_lemma_checks", "oracle_moments", "scenario_counterexample",
    "scenario_favorable_normal",
})


def __getattr__(name: str):
    if name == "sim" or name in _SIM_NAMES:
        sim = importlib.import_module(".sim", __name__)
        return sim if name == "sim" else getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "sim"})
