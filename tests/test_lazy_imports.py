"""What each CLI call imports, and the package's lazily resolved public names.

``import pairsens.cli`` loads only what every command needs.  The simulation
harness (``pairsens.sim``) resolves on first read through the PEP 562
``__getattr__`` of ``pairsens`` and of ``pairsens.cli``; ``numpy.random``
loads when a Monte Carlo engine first seeds; and what the import made is
frozen out of the collector's generations.  Which modules a call loaded is
read from ``sys.modules`` in a fresh interpreter, as ``test_normal.py``
checks that scipy stays out.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairsens
from pairsens import cli
from test_simulate_corpus import _RECORDED, corpus_calls, replay

LAZY = ("pairsens.sim", "numpy.random")
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# recorded at eager import; an exact-engine call, so compared on any platform
SIM_CALL = "counterexample/combined/exact"

# Runs the argv lists given as JSON in argv[1] through cli.main, then prints
# one JSON line: each call's exit code and stdout, and which of LAZY loaded.
_RUNNER = """
import contextlib, io, json, sys
from pairsens import cli
calls = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    calls.append([code, out.getvalue()])
print(json.dumps({"calls": calls, "loaded": [m for m in %r if m in sys.modules]}))
""" % (LAZY,)


def _fresh(script: str, *args: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter that imports this ``pairsens``."""
    src = os.path.dirname(os.path.dirname(pairsens.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_fresh(*calls) -> tuple[list, list]:
    """Exit codes and stdout of ``calls`` through ``cli.main`` in one fresh
    interpreter, and which of ``LAZY`` it had loaded afterwards."""
    report = json.loads(_fresh(_RUNNER, json.dumps([list(c) for c in calls])))
    return report["calls"], report["loaded"]


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("".join(f"{v}\n" for v in (2.1, -0.4, 3.3, 1.7, 0.9, -1.2, 2.8, 4.0)))
    return str(path)


def _loaded_after(statement: str) -> list:
    """Which of ``LAZY`` a fresh interpreter has loaded after ``statement``."""
    return json.loads(_fresh(f"import json, sys; {statement}; "
                             f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"))


@pytest.mark.parametrize("module", ["pairsens", "pairsens.cli"])
def test_import_loads_neither(module):
    assert _loaded_after(f"import {module}") == []


def test_import_freezes_what_it_made():
    # a call's collections then scan none of the import's objects, such as
    # the cli module's namespace
    script = ("import gc, pairsens.cli as cli; "
              "print(gc.get_freeze_count() > 0, any(o is vars(cli) for o in gc.get_objects()))")
    assert _fresh(script).split() == ["True", "False"]


def test_exact_commands_load_neither(sample_csv):
    calls, loaded = _run_fresh(
        ("test", "--input", sample_csv, "--tau", "0", "--gamma", "1.5",
         "--method", "studentized"),
        ("changepoint", "--input", sample_csv, "--tau", "0", "--method", "perm-t"),
        ("interval", "--input", sample_csv, "--gammas", "1,2", "--method", "studentized"),
        ("design-sensitivity", "--input", sample_csv, "--tau", "0"),
    )
    assert [code for code, _ in calls] == [0, 0, 0, 0]
    assert json.loads(calls[0][1])["engine"]["mode"] == "exact"
    assert loaded == []


def test_monte_carlo_test_loads_numpy_random_only(sample_csv):
    calls, loaded = _run_fresh(
        ("test", "--input", sample_csv, "--tau", "0", "--gamma", "1.5",
         "--method", "combined", "--exact-below", "4", "--reps", "500", "--seed", "7"))
    assert calls[0][0] == 0
    assert json.loads(calls[0][1])["engine"]["mode"] == "monte_carlo"
    assert loaded == ["numpy.random"]


def test_simulate_loads_both_and_prints_the_recorded_output():
    argv = corpus_calls()[SIM_CALL][1]
    calls, loaded = _run_fresh(argv)
    recorded = _RECORDED["calls"][SIM_CALL]
    assert [calls[0][0], hashlib.sha256(calls[0][1].encode()).hexdigest()] == [
        recorded["exit"], recorded["sha256"]]
    assert loaded == list(LAZY)


def test_sim_attribute_loads_the_harness():
    # the harness itself seeds numpy.random only when it first draws
    assert _loaded_after("import pairsens; pairsens.sim") == ["pairsens.sim"]


def test_every_public_name_resolves():
    from pairsens import sim

    star = {}
    exec("from pairsens import *", star)
    for name in pairsens.__all__:
        assert name in star, name
        assert star[name] is getattr(pairsens, name)
    for name in pairsens._SIM_NAMES:
        assert getattr(pairsens, name) is getattr(sim, name)
    assert pairsens._SIM_NAMES <= set(pairsens.__all__)
    assert pairsens.sim is sim


def test_dir_lists_every_public_name():
    assert set(pairsens.__all__) | {"sim"} <= set(dir(pairsens))


@pytest.mark.parametrize("module", [pairsens, cli])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


def test_cli_resolves_what_simulate_reads():
    from pairsens import sim

    for name in cli._SIM_NAMES:
        assert getattr(cli, name) is getattr(sim, name)
    assert callable(cli.estimate_size_power_multi)


def test_simulate_calls_the_function_set_on_cli(monkeypatch):
    argv = corpus_calls()[SIM_CALL][1]
    unpatched = replay(argv)
    original = cli.estimate_size_power_multi
    gammas = []

    def recording(*args, **kwargs):
        gammas.append(kwargs["gamma"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_size_power_multi", recording)
    assert replay(argv) == unpatched
    assert gammas == [1.0, 2.0, 4.0, 1e9]
    monkeypatch.undo()
    assert cli.estimate_size_power_multi is original
    assert replay(argv) == unpatched


def test_traced_simulate_records_the_harness_span():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer()
    traced.install([p for p in tracer.PATCHES if p[:2] == ("pairsens.cli",
                                                           "estimate_size_power_multi")])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(corpus_calls()[SIM_CALL][1])) == 0
    finally:
        traced.restore()
    assert [s["name"] for s in traced.spans] == ["sim.estimate_size_power_multi"] * 4
    assert traced.absent == []
