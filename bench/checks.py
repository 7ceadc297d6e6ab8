"""Output checks for benchmark invocations, applied outside the timed region.

Every stdout must parse as JSON with the CLI's schema unchanged and satisfy
invariants that hold for any input: a changepoint bracket rejects at its low
end and not at its high end (re-tested through ``pairsens.run_test``), an
interval has ``lower <= upper``, probabilities and rates lie in [0, 1].
For the default workload seed the stdout must also match, byte for byte, a
digest recorded in ``golden.json`` -- on the platform it was recorded on,
since Monte Carlo sums go through BLAS kernels chosen per CPU.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

ENGINE_KEYS = {"mode", "draws", "seed"}
SCHEMAS = {
    "test": {"method", "gamma", "tau", "alpha", "alternative", "statistic",
             "critical_value", "p_value_upper", "p_value_upper_conservative",
             "reject", "degenerate", "engine"},
    "changepoint": {"method", "tau", "alpha", "alternative", "gamma_changepoint",
                    "bracket", "tolerance", "rejects_at_gamma_one", "exceeded_gamma_max",
                    "monotone", "inversions", "n_evaluations", "engine"},
    "interval": {"method", "confidence", "seed", "intervals"},
    "simulate": {"scenario", "pairs", "tau", "alpha", "replications", "seed", "engine",
                 "results"},
}
ROW_SCHEMAS = {
    "interval": ("intervals", {"gamma", "lower", "upper", "non_monotone"}),
    "simulate": ("results", {"gamma", "method", "rejection_rate", "mc_se"}),
}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _unit_interval(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _schema_problems(command: str, obj) -> list[str]:
    if not isinstance(obj, dict):
        return ["stdout is not a JSON object"]
    problems = []
    if set(obj) != SCHEMAS[command]:
        problems.append(f"{command} keys changed: {sorted(set(obj) ^ SCHEMAS[command])}")
    if "engine" in obj and set(obj["engine"]) != ENGINE_KEYS:
        problems.append("engine keys changed")
    if command in ROW_SCHEMAS:
        field, keys = ROW_SCHEMAS[command]
        rows = obj.get(field)
        if not rows or any(set(row) != keys for row in rows):
            problems.append(f"{field} rows missing or with changed keys")
    return problems


def _changepoint_problems(inv, obj, ps) -> list[str]:
    lo, hi = obj["bracket"]
    if not (obj["rejects_at_gamma_one"] and math.isfinite(obj["gamma_changepoint"])):
        return ["workload sample should give a finite changepoint"]
    if not lo < obj["gamma_changepoint"] < hi:
        return ["changepoint outside its bracket"]
    # the workload passes no --alpha, --alternative, --reps, --seed or
    # --exact-below, so the CLI's defaults are the ones to re-test with
    method = inv.option("--method").replace("-", "_")
    spec = ps.TestSpec(tau=float(inv.option("--tau")), alpha=0.05,
                       alternative="greater", method=method)
    engine = ps.EnumSpec(mode="auto", exact_cap=20, draws=10_000, seed=0)
    sample = ps.PairedSample(inv.y)

    def rejects(gamma):
        return ps.run_test(sample, spec, ps.SensitivityParam(gamma), engine).reject

    problems = []
    if not rejects(lo):
        problems.append(f"no rejection at bracket low end {lo!r}")
    if rejects(hi):
        problems.append(f"rejection at bracket high end {hi!r}")
    return problems


def invariant_problems(inv, stdout: bytes, ps) -> list[str]:
    """Schema and invariant violations in one invocation's stdout."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems = _schema_problems(inv.command, obj)
    if problems:
        return problems
    if inv.command == "changepoint":
        return _changepoint_problems(inv, obj, ps)
    if inv.command == "interval":
        return [f"interval lower > upper at gamma {row['gamma']!r}"
                for row in obj["intervals"] if not row["lower"] <= row["upper"]]
    if inv.command == "simulate":
        return [f"rate outside [0, 1] for {row['method']}"
                for row in obj["results"] if not _unit_interval(row["rejection_rate"])]
    if inv.command == "test":
        bad = [k for k in ("p_value_upper", "p_value_upper_conservative")
               if not _unit_interval(obj[k])]
        if not isinstance(obj["reject"], bool):
            bad.append("reject")
        return [f"test field {k} out of range" for k in bad]
    return [f"no checks for command {inv.command!r}"]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_digests(golden: dict, workload: str, seed: int, platform: dict):
    """Recorded stdout digests for this run, or None when none apply."""
    if seed != golden["seed"] or platform != golden["platform"]:
        return None
    return golden["digests"].get(workload)
