"""Replay of recorded ``simulate`` calls: stdout digest and exit code.

``simulate_corpus.json`` holds, for every call of ``corpus_calls``, the
SHA-256 of its stdout and its exit code, with the numpy and BLAS that
recorded them.  Monte Carlo sums are BLAS products whose last bits depend
on the BLAS kernel, so on another numpy or BLAS only the exact-engine calls
are compared.  A change that alters output on purpose records the corpus
again in the same commit (``python tests/test_simulate_corpus.py``) and
names the calls that changed.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from pairsens import cli, randdist

CORPUS = Path(__file__).with_name("simulate_corpus.json")

_SCENARIOS = (("counterexample", "2.5"), ("favorable-normal", "0"))
_METHODS = ("perm-t,neyman,studentized", "combined", "neyman")
# 10 pairs enumerate exactly; 24 and 100 draw Monte Carlo signs, at 100 pairs
# in several generation blocks a replication
_ENGINES = {
    "exact": ("--pairs", "10"),
    "monte_carlo": ("--pairs", "24", "--mc-draws", "2000"),
    "monte_carlo-100": ("--pairs", "100", "--mc-draws", "3000"),
}


def corpus_calls() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Every recorded call by name: its engine and its argv."""
    calls = {}
    for scenario, tau in _SCENARIOS:
        for methods in _METHODS:
            for engine, args in _ENGINES.items():
                name = f"{scenario}/{methods}/{engine}"
                calls[name] = engine, ("simulate", "--scenario", scenario, "--tau", tau,
                                       "--gammas", "1,2,4,1e9", "--methods", methods,
                                       "--reps", "20", "--seed", "3", *args)
    base = ("simulate", "--scenario", "counterexample", "--tau", "2.5", "--reps", "20")
    extra = {
        "csv": ("--gamma", "4", "--format", "csv", *_ENGINES["monte_carlo"]),
        "alpha-0.001": ("--gamma", "2", "--alpha", "0.001", *_ENGINES["monte_carlo"]),
        "alpha-0": ("--gamma", "2", "--alpha", "0", *_ENGINES["monte_carlo"]),
        "seed-11": ("--gamma", "4", "--seed", "11", "--methods", "combined",
                    *_ENGINES["monte_carlo"]),
        "odd-pairs": ("--gamma", "2", "--pairs", "9"),
        "two-pairs": ("--gamma", "2", "--pairs", "2", "--methods", "combined"),
    }
    for name, args in extra.items():
        calls[name] = ("monte_carlo" if "--mc-draws" in args else "exact"), base + args
    # replications whose studentized draws are settled by a bound on their own
    # statistic: at gamma 1 every draw has the same sum of squares, and a tau
    # above favorable-normal's mean of 0.5 makes some observed t negative
    for scenario, tau in (("counterexample", "2.5"), ("favorable-normal", "0.6")):
        for methods in ("studentized", "combined"):
            calls[f"{scenario}/{methods}/own-bound"] = "monte_carlo", (
                "simulate", "--scenario", scenario, "--tau", tau, "--gammas", "1,1.5,4,1e9",
                "--methods", methods, "--reps", "20", "--seed", "5",
                *_ENGINES["monte_carlo-100"])
    return calls


def platform_record() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]}}


def replay(argv) -> tuple[str, int]:
    """A call's stdout digest and exit code, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


_RECORDED = json.loads(CORPUS.read_text()) if CORPUS.exists() else {"calls": {}}


@pytest.mark.parametrize("name", sorted(corpus_calls()))
def test_replays_recorded_output(name):
    engine, argv = corpus_calls()[name]
    if engine != "exact" and platform_record() != _RECORDED["platform"]:
        pytest.skip("Monte Carlo digests were recorded on another numpy or BLAS; "
                    "only the exact-engine calls are compared here")
    recorded = _RECORDED["calls"][name]
    assert list(argv) == recorded["argv"]
    assert replay(argv) == (recorded["sha256"], recorded["exit"])


def test_own_bound_calls_observe_negative_t(monkeypatch):
    # favorable-normal's own-bound calls decide some replications at an
    # observed studentized statistic below 0
    seen = []
    original = randdist.SignDraws.weights_at_most

    def recording(draws, sens, observed, own=None, band=None):
        seen.append(observed["studentized"])
        return original(draws, sens, observed, own, band)

    monkeypatch.setattr(randdist.SignDraws, "weights_at_most", recording)
    replay(corpus_calls()["favorable-normal/studentized/own-bound"][1])
    assert min(seen) < 0 < max(seen)


if __name__ == "__main__":
    record = {"platform": platform_record(), "calls": {}}
    for name, (_, argv) in sorted(corpus_calls().items()):
        digest, code = replay(argv)
        record["calls"][name] = {"argv": list(argv), "sha256": digest, "exit": code}
    CORPUS.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0)
