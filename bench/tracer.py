"""Outside-in tracing of one ``pairsens`` CLI call, and the per-layer arithmetic.

Run as a script, this wraps the public functions each module of the package
hands to its caller, then calls ``pairsens.cli.main`` with the given argv::

    python3 bench/tracer.py --spans OUT.json -- changepoint --input s.csv --tau 0

The wrappers replace the names the *caller* looks up (``cli.run_test``,
``testing.build_pair`` ...), so nothing inside the package changes.  Each
call becomes a span (name, start, end, parent) kept in memory; the spans go
to ``OUT.json`` when the call ends, and every patched name is restored.
Stdout is left to the program, so it stays byte-identical to an untraced
run.  A patched name the package no longer has is listed as absent.

Layers are the modules: ``cli``, ``inference``, ``testing``, ``randdist`` and
``sim``.  ``core`` and ``rng`` are not wrapped; their time counts towards
whichever layer called them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
import tracemalloc

# (module whose global is replaced, global name, span name = layer.function)
PATCHES = (
    ("pairsens.cli", "run_test", "testing.run_test"),
    ("pairsens.cli", "changepoint_gamma", "inference.changepoint_gamma"),
    ("pairsens.cli", "sensitivity_interval", "inference.sensitivity_interval"),
    ("pairsens.cli", "estimate_size_power_multi", "sim.estimate_size_power_multi"),
    ("pairsens.inference", "run_test", "testing.run_test"),
    ("pairsens.testing", "build_pair", "randdist.build_pair"),
    ("pairsens.testing", "build_f_hat", "randdist.build_f_hat"),
    ("pairsens.testing", "build_g_hat", "randdist.build_g_hat"),
    ("pairsens.testing", "observed_statistics", "randdist.observed_statistics"),
    ("pairsens.sim", "build_pair", "randdist.build_pair"),
    ("pairsens.sim", "observed_statistics", "randdist.observed_statistics"),
)

BUILDS = ("randdist.build_pair", "randdist.build_f_hat", "randdist.build_g_hat")


def _build_attrs(args, kwargs, result) -> dict:
    """Exact work counts of one reference-distribution build.

    Read from the call's (sample, tau) and the returned distributions, so no
    counter inside the package is needed.
    """
    sample = args[0] if args else kwargs["sample"]
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    y = getattr(sample, "y")
    dists = result if isinstance(result, tuple) else (result,)
    return {
        "key": hashlib.blake2b(y.tobytes() + repr(float(tau)).encode(), digest_size=12).hexdigest(),
        "pairs": int(y.size),
        "mode": dists[0].mode,
        "draws": int(dists[0].n_draws),
        "atoms_out": sum(int(d.values.size) for d in dists),
    }


class Tracer:
    """Keeps spans in memory while patched functions run."""

    def __init__(self, memory: bool = False):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.memory = memory
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        is_build = name in BUILDS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if is_build and self.memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if is_build:
                try:
                    span.update(_build_attrs(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    span["unreadable"] = True
                if self.memory:
                    span["peak_alloc_b"] = tracemalloc.get_traced_memory()[1] - base
            return result

        return traced

    def install(self, patches=PATCHES) -> None:
        for module_name, attr, span_name in patches:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


# additive per-process totals; peak_alloc_b alone combines by max
TOTAL_KEYS = (
    "cli.self_s", "inference.calls", "inference.self_s", "inference.evals",
    "testing.calls", "testing.self_s", "randdist.builds", "randdist.build_s",
    "randdist.distinct_inputs", "randdist.atoms_enumerated", "randdist.exact_build_s",
    "randdist.mc_signs", "randdist.mc_build_s", "randdist.atoms_out",
    "randdist.observed_s", "sim.reps", "sim.self_s", "peak_alloc_b",
)


def totals(spans: list[dict]) -> dict:
    """Per-layer counts and times of one traced process."""
    t = dict.fromkeys(TOTAL_KEYS, 0)
    layer_of = [s["name"].split(".", 1)[0] for s in spans]
    keys = set()
    for span, own, layer in zip(spans, self_times(spans), layer_of):
        dur = span["end"] - span["start"]
        parent = layer_of[span["parent"]] if span["parent"] is not None else None
        if layer in ("cli", "inference", "testing", "sim"):
            t[f"{layer}.self_s"] += own
        if layer in ("inference", "testing"):
            t[f"{layer}.calls"] += 1
        if layer == "testing" and parent == "inference":
            t["inference.evals"] += 1
        if span["name"] == "randdist.observed_statistics":
            t["randdist.observed_s"] += dur
            if parent == "sim":
                t["sim.reps"] += 1
        if span["name"] in BUILDS:
            t["randdist.builds"] += 1
            t["randdist.build_s"] += dur
            t["randdist.atoms_out"] += span.get("atoms_out", 0)
            keys.add(span.get("key"))
            if span.get("mode") == "exact":
                t["randdist.atoms_enumerated"] += span["draws"]
                t["randdist.exact_build_s"] += dur
            elif span.get("mode") == "monte_carlo":
                t["randdist.mc_signs"] += span["draws"] * span["pairs"]
                t["randdist.mc_build_s"] += dur
            t["peak_alloc_b"] = max(t["peak_alloc_b"], span.get("peak_alloc_b", 0))
    # distinct per process: nothing the program could reuse outlives its process
    t["randdist.distinct_inputs"] = len(keys)
    return t


def combine(parts: list[dict]) -> dict:
    """Totals of several processes (the invocations of one workload pass)."""
    out = dict.fromkeys(TOTAL_KEYS, 0)
    for part in parts:
        for key in TOTAL_KEYS:
            if key == "peak_alloc_b":
                out[key] = max(out[key], part[key])
            else:
                out[key] += part[key]
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


# per-layer metric -> unit; a layer that does no work on a workload reports 0
LAYER_UNITS = {
    "cli.self_s": "s",
    "inference.calls": "count",
    "inference.self_s": "s",
    "inference.evals": "count",
    "testing.calls": "count",
    "testing.self_s": "s",
    "randdist.builds": "count",
    "randdist.build_s": "s",
    "randdist.distinct_inputs_ratio": "ratio",
    "randdist.atoms_enumerated": "count",
    "randdist.ns_per_atom": "ns",
    "randdist.mc_signs": "count",
    "randdist.ns_per_sign": "ns",
    "randdist.mc_bytes_computed": "B",
    "randdist.peak_alloc_mb": "MB",
    "randdist.atoms_out": "count",
    "randdist.observed_s": "s",
    "sim.reps": "count",
    "sim.self_s": "s",
}

# metrics that must repeat exactly between traced runs of the same inputs
EXACT_COUNTS = tuple(key for key, unit in LAYER_UNITS.items() if unit in ("count", "B"))


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics (LAYER_UNITS) from combined totals."""
    out = {key: t[key] for key in LAYER_UNITS if key in t}
    # reject decisions per search
    out["inference.evals"] = _ratio(t["inference.evals"], t["inference.calls"])
    out["randdist.distinct_inputs_ratio"] = _ratio(t["randdist.distinct_inputs"],
                                                   t["randdist.builds"])
    out["randdist.ns_per_atom"] = _ratio(t["randdist.exact_build_s"],
                                         t["randdist.atoms_enumerated"], 1e9)
    out["randdist.ns_per_sign"] = _ratio(t["randdist.mc_build_s"], t["randdist.mc_signs"], 1e9)
    # a float32 uniform and a float64 sign per draw x pair, as computed, not as moved
    out["randdist.mc_bytes_computed"] = t["randdist.mc_signs"] * 12
    out["randdist.peak_alloc_mb"] = t["peak_alloc_b"] / 2**20
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[:1] != ["--spans"]:
        print("usage: tracer.py --spans OUT.json [--tracemalloc] -- PAIRSENS-ARGS...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    out_path, memory = argv[1], "--tracemalloc" in argv[:split]
    import pairsens.cli as cli

    tracer = Tracer(memory=memory)
    if memory:
        tracemalloc.start()
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(argv[split + 1:])
    finally:
        tracer.restore()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
