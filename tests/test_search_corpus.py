"""Replay of recorded Monte Carlo ``changepoint`` and ``interval`` calls:
stdout digest and exit code.

``search_corpus.json`` holds, for every call of ``corpus_calls``, the
SHA-256 of its stdout and its exit code, in the format of
``simulate_corpus.json`` and with its platform check: on another numpy or
BLAS no call is compared, as every call here draws Monte Carlo signs.  Each
call reads a sample that ``write_samples`` makes from literal or seeded
values; the recorded argv leaves out ``--input`` and its path, which the
replay adds.  The engines are 600 pairs x 3000 draws, three product blocks
a decision, and 100 pairs x 3000 draws, one block.  A change that alters
output on purpose records the corpus again in the same commit (``python
tests/test_search_corpus.py``) and names the calls that changed.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from test_simulate_corpus import platform_record, replay

CORPUS = Path(__file__).with_name("search_corpus.json")

_METHODS = ("perm-t", "studentized", "neyman", "combined")
_ENGINE = ("--reps", "3000", "--seed", "3")


def samples() -> dict[str, np.ndarray]:
    """Every sample a call reads, by name."""
    rng = np.random.default_rng(19)
    return {
        "skewed-600": rng.lognormal(0.0, 0.9, 600) - 1.2,
        "skewed-100": rng.lognormal(0.0, 0.9, 100) - 1.2,
        "constant": np.full(100, 2.0),
        # integers, 18 of them at tau = 1
        "ties-at-tau": rng.integers(0, 7, 100).astype(float),
        # perm-t runs; the standard error overflows, so every other method exits 2
        "scale-1e200": 1e200 * (rng.normal(0.3, 1.0, 100)),
    } | exact_samples()


def exact_samples() -> dict[str, np.ndarray]:
    """The samples of the exact calls, each of at most 20 pairs."""
    rng = np.random.default_rng(22)
    return {
        "exact-skewed-14": rng.lognormal(0.0, 0.9, 14) - 1.2,
        "exact-constant": np.full(8, 2.0),
        # the CLI refuses a single pair: exit 2
        "exact-one-pair": np.array([1.5]),
        "exact-two-pairs": np.array([1.5, -0.25]),
        # integers, 4 of them at tau = 1
        "exact-ties-at-tau": np.array([1.0, 3, 0, 1, 5, 2, 1, 6, 1, 4, 0, 2]),
        # perm-t runs; the standard error overflows, so every other method exits 2
        "exact-scale-1e200": 1e200 * (rng.normal(0.3, 1.0, 12)),
    } | interval_samples()


def interval_samples() -> dict[str, np.ndarray]:
    """The samples only the exact interval grid calls read."""
    rng = np.random.default_rng(24)
    return {
        # the interval-exact workload's size, and one whose count tables
        # fill several chunks
        "exact-skewed-17": rng.lognormal(0.0, 0.9, 17) - 1.2,
        "exact-skewed-20": rng.lognormal(0.0, 0.9, 20) - 1.2,
        # (1 + |c|)**2 sum(|y - tau|**2) overflows once tau is far enough
        # out: gammas 1 and 2 run, the search at 3.5 exits 2 partway
        "exact-squares-overflow": 8e152 * np.array([1.0, -0.4, 2.2, 0.7, -1.1, 1.6, 0.3, 2.9]),
    }


def write_samples(folder: Path) -> dict[str, Path]:
    """Each sample as a one-column CSV in ``folder``, every float exact."""
    paths = {}
    for name, y in samples().items():
        paths[name] = folder / f"{name}.csv"
        paths[name].write_text("".join(f"{v!r}\n" for v in y.tolist()))
    return paths


def corpus_calls() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Every recorded call by name: the sample it reads and its argv."""
    calls = {}
    # taus about four standard errors below and above each mean, so that
    # either alternative rejects at gamma 1 and the search walks out
    taus = {"skewed-600": {"greater": "0", "less": "0.5"},
            "skewed-100": {"greater": "-0.4", "less": "0.5"}}
    for sample, tau_of in taus.items():
        for method in _METHODS:
            for alternative, tau in tau_of.items():
                calls[f"changepoint/{sample}/{method}/{alternative}"] = sample, (
                    "changepoint", "--tau", tau, "--method", method,
                    "--alternative", alternative, *_ENGINE)
            calls[f"interval/{sample}/{method}"] = sample, (
                "interval", "--gammas", "1,2", "--method", method, *_ENGINE)
    knife_edges = {
        # every |y - tau| equal; at tau = 2 all of them 0
        "constant": "1",
        "ties-at-tau": "1",
        "scale-1e200": "0",
    }
    for sample, tau in knife_edges.items():
        for method in ("perm-t", "combined"):
            calls[f"changepoint/{sample}/{method}"] = sample, (
                "changepoint", "--tau", tau, "--method", method, "--grid-points", "9",
                *_ENGINE)
            calls[f"interval/{sample}/{method}"] = sample, (
                "interval", "--gamma", "2", "--method", method, *_ENGINE)
    calls["changepoint/constant/perm-t/all-tied"] = "constant", (
        "changepoint", "--tau", "2", "--method", "perm-t", *_ENGINE)
    # a tolerance the interval refuses: exit 2
    calls["interval/skewed-100/tol-0"] = "skewed-100", (
        "interval", "--gamma", "2", "--tol", "0", *_ENGINE)
    return calls | exact_calls() | grid_calls() | interval_calls()


def exact_calls() -> dict[str, tuple[str, tuple[str, ...]]]:
    """The exact calls: every method and alternative, on a skewed sample and
    on each knife edge."""
    calls = {}
    taus = {"exact-skewed-14": ("-0.3", "1.6"), "exact-constant": ("1", "1"),
            "exact-two-pairs": ("0", "0"),
            "exact-ties-at-tau": ("1", "1"), "exact-scale-1e200": ("0", "0")}
    for sample, tau_of in taus.items():
        for method in _METHODS:
            for alternative, tau in zip(("greater", "less"), tau_of):
                calls[f"exact/changepoint/{sample}/{method}/{alternative}"] = sample, (
                    "changepoint", "--tau", tau, "--method", method,
                    "--alternative", alternative, "--grid-points", "9")
            calls[f"exact/interval/{sample}/{method}"] = sample, (
                "interval", "--gammas", "1,2", "--method", method)
    calls["exact/changepoint/exact-constant/perm-t/all-tied"] = "exact-constant", (
        "changepoint", "--tau", "2", "--method", "perm-t")
    calls["exact/changepoint/exact-one-pair"] = "exact-one-pair", (
        "changepoint", "--tau", "1", "--method", "perm-t")
    return calls


def grid_calls() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Changepoints whose monotonicity grid has 2, 3, 50 and 200 points,
    exact and Monte Carlo, every method and alternative, on a skewed sample
    and on each knife edge, and at an alpha that no draw set attains (the
    least exact p-value of "exact-ties-at-tau" is 1/256; 3000 draws give
    no Monte Carlo p-value under 1/3000)."""
    taus = {("exact", "exact-skewed-14"): ("-0.3", "1.6"),
            ("exact", "exact-constant"): ("1", "1"), ("exact", "exact-two-pairs"): ("0", "0"),
            ("exact", "exact-ties-at-tau"): ("1", "1"), ("exact", "exact-scale-1e200"): ("0", "0"),
            ("mc", "skewed-100"): ("-0.4", "0.5"), ("mc", "constant"): ("1", "1"),
            ("mc", "ties-at-tau"): ("1", "1"), ("mc", "scale-1e200"): ("0", "0")}
    engines = {"exact": ("exact/grid", ()), "mc": ("grid", _ENGINE)}
    calls = {}
    for (engine, sample), tau_of in taus.items():
        prefix, flags = engines[engine]
        for method in _METHODS:
            for alternative, tau in zip(("greater", "less"), tau_of):
                for points in ("2", "3", "50", "200"):
                    calls[f"{prefix}/{sample}/{method}/{alternative}/{points}"] = sample, (
                        "changepoint", "--tau", tau, "--method", method, "--alternative",
                        alternative, "--grid-points", points, *flags)
    for (engine, sample, alpha) in (("exact", "exact-ties-at-tau", "0.001"),
                                    ("mc", "skewed-100", "0.0002")):
        prefix, flags = engines[engine]
        for method in _METHODS:
            calls[f"{prefix}/{sample}/{method}/alpha-{alpha}"] = sample, (
                "changepoint", "--tau", taus[engine, sample][0], "--method", method,
                "--alpha", alpha, *flags)
    return calls


def interval_calls() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Exact intervals, whose precheck grids move tau at every point: every
    method at two confidences and three gammas, on skewed samples of 17 and
    20 pairs and on each knife edge."""
    calls = {}
    for sample in ("exact-skewed-17", "exact-skewed-20", "exact-constant", "exact-two-pairs",
                   "exact-ties-at-tau", "exact-scale-1e200", "exact-squares-overflow"):
        for method in _METHODS:
            for confidence in ("0.5", "0.99"):
                calls[f"exact/interval-grid/{sample}/{method}/{confidence}"] = sample, (
                    "interval", "--gammas", "1,2,3.5", "--confidence", confidence,
                    "--method", method)
    return calls


def replay_call(paths: dict[str, Path], sample: str, argv) -> tuple[str, int]:
    return replay([argv[0], "--input", str(paths[sample]), *argv[1:]])


_RECORDED = json.loads(CORPUS.read_text()) if CORPUS.exists() else {"calls": {}}


@pytest.fixture(scope="module")
def sample_paths(tmp_path_factory):
    return write_samples(tmp_path_factory.mktemp("search-corpus"))


@pytest.mark.parametrize("name", sorted(corpus_calls()))
def test_replays_recorded_output(name, sample_paths):
    if not name.startswith("exact/") and platform_record() != _RECORDED["platform"]:
        pytest.skip("Monte Carlo digests were recorded on another numpy or BLAS")
    sample, argv = corpus_calls()[name]
    recorded = _RECORDED["calls"][name]
    assert [sample, *argv] == [recorded["sample"], *recorded["argv"]]
    assert replay_call(sample_paths, sample, argv) == (recorded["sha256"], recorded["exit"])


def test_corpus_covers_both_exits():
    assert {call["exit"] for call in _RECORDED["calls"].values()} == {0, 2}


if __name__ == "__main__":
    record = {"platform": platform_record(), "calls": {}}
    with tempfile.TemporaryDirectory() as folder:
        paths = write_samples(Path(folder))
        for name, (sample, argv) in sorted(corpus_calls().items()):
            digest, code = replay_call(paths, sample, argv)
            record["calls"][name] = {"sample": sample, "argv": list(argv),
                                     "sha256": digest, "exit": code}
    CORPUS.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0)
