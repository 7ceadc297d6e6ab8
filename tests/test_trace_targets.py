"""Every name the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` replaces module globals such as ``inference.run_test``
and ``sim.build_pair``; a name the package drops is only reported as absent
there, so the per-layer metrics would go quiet without a failing test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracer().PATCHES


def test_tracer_has_patch_targets():
    assert len(PATCHES) > 0


@pytest.mark.parametrize("module_name, attr, span", PATCHES)
def test_patch_target_exists(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
