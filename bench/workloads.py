"""Benchmark workloads: inputs made from a seed, and the CLI calls that use them.

Each workload is a fixed list of ``pairsens`` invocations.  Inputs are
written as CSV files before any timing starts; the program sees only those
paths and its argv.  ``reduced=True`` shrinks every size so the benchmark's
own tests can run each workload in a few seconds; it is never used for
measurements.

Why these four (the same reasons are in BENCHMARK.json):

* changepoint-exact -- the bias-bound search holds tau fixed, so every one of
  its ~144 exact builds enumerates the same ``2**17`` sign vectors.  Reuse of
  an enumeration per (sample, tau) shows here; interval-exact is the partner
  on which such reuse is predicted not to help.
* interval-exact -- the same exact layers, but tau moves at nearly every
  evaluation, so search-routine changes show and enumeration reuse is
  bypassed.  simulate-mc runs no search and is its unaffected partner.
* simulate-mc -- many small Monte Carlo builds (100 pairs x 10k draws, a
  12 MB working set that fits in L3): sign generation and replication
  fan-out show.  changepoint-exact draws no signs and is its partner.
* test-mc-large -- two Monte Carlo builds on 5000 pairs (about 600 MB each,
  far above L3): memory-bound sign generation and peak memory show, and
  bounded-memory blocking should leave simulate-mc unmoved.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("changepoint-exact", "interval-exact", "simulate-mc", "test-mc-large")


@dataclass(frozen=True)
class Invocation:
    """One ``pairsens`` call: its argv and the sample behind ``--input``."""

    argv: tuple[str, ...]
    y: np.ndarray | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str, default=None):
        """Value following ``flag`` in argv (every option here takes one)."""
        args = list(self.argv)
        return args[args.index(flag) + 1] if flag in args else default


def skewed_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """Right-skewed differences with mean 4.75 and sd 4.26 (criterion C11's recipe).

    Fixing the first two moments fixes the t statistic, so the test rejects
    at gamma 1 for every seed.  Draws are repeated until at least two
    differences are negative: with none, the observed signs are the most
    extreme vector, the test rejects at every gamma and the changepoint
    search stops after two evaluations.  With two or more the searches do
    the same number of evaluations whatever the seed.
    """
    while True:
        raw = rng.lognormal(mean=0.0, sigma=0.9, size=n)
        y = (raw - raw.mean()) / raw.std(ddof=1) * 4.26 + 4.75
        if np.count_nonzero(y < 0) >= 2:
            return y


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def build(name: str, seed: int, workdir: Path, reduced: bool = False) -> list[Invocation]:
    """Write the inputs of workload ``name`` under ``workdir``; return its calls."""
    rng = np.random.default_rng(seed)
    if name in ("changepoint-exact", "interval-exact"):
        y = skewed_sample(rng, 8 if reduced else 17)
        path = workdir / "sample.csv"
        _write_csv(path, "difference", [y])
        if name == "changepoint-exact":
            return [
                Invocation(("changepoint", "--input", str(path), "--tau", "0",
                            "--method", method), y)
                for method in ("studentized", "perm-t")
            ]
        return [Invocation(("interval", "--input", str(path), "--gammas", "1,2",
                            "--method", "studentized"), y)]
    if name == "simulate-mc":
        pairs, reps, draws = (24, 5, 200) if reduced else (100, 300, 10_000)
        return [Invocation(("simulate", "--scenario", "counterexample",
                            "--pairs", str(pairs), "--tau", "2.5", "--gamma", "4",
                            "--reps", str(reps), "--mc-draws", str(draws),
                            "--seed", str(seed)))]
    if name == "test-mc-large":
        pairs, draws = (200, 500) if reduced else (5000, 10_000)
        control = rng.normal(10.0, 2.0, size=pairs)
        treated = control + rng.normal(0.3, 1.5, size=pairs)
        path = workdir / "large.csv"
        _write_csv(path, "treated,control", [treated, control])
        y = treated - control
        return [
            Invocation(("test", "--input", str(path), "--tau", "0", "--gamma", gamma,
                        "--method", "combined", "--reps", str(draws),
                        "--seed", str(seed)), y)
            for gamma in ("1.5", "3")
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
