"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, **attrs}


def test_self_time_subtracts_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("inference.changepoint_gamma", 1.0, 6.0, 0),
        _span("testing.run_test", 2.0, 3.0, 1),
        _span("testing.run_test", 3.5, 5.5, 1),
        # a child reaching past its parent's end is clipped to the parent
        _span("sim.estimate_size_power_multi", 7.0, 11.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 3, 5 - 1 - 2, 1, 2, 4])


def test_totals_assign_layers_and_counts():
    build = dict(pairs=17, mode="exact", draws=2**17, atoms_out=100)
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("inference.changepoint_gamma", 1.0, 9.0, 0),
        _span("testing.run_test", 2.0, 5.0, 1),
        _span("randdist.build_g_hat", 2.5, 4.0, 2, key="a", **build),
        _span("testing.run_test", 5.0, 8.0, 1),
        _span("randdist.build_g_hat", 5.5, 7.5, 4, key="a", **build),
        _span("randdist.observed_statistics", 7.5, 8.0, 4),
    ]
    t = tracer.totals(spans)
    assert t["cli.self_s"] == pytest.approx(2.0)
    assert t["inference.self_s"] == pytest.approx(2.0)
    assert t["testing.self_s"] == pytest.approx(6.0 - 3.5 - 0.5)
    assert (t["inference.evals"], t["testing.calls"], t["randdist.builds"]) == (2, 2, 2)
    assert t["randdist.atoms_enumerated"] == 2 * 2**17
    m = tracer.layer_metrics(tracer.combine([t, t]))
    assert m["randdist.distinct_inputs_ratio"] == pytest.approx(2 / 4)
    assert m["inference.evals"] == 2
    assert m["randdist.ns_per_atom"] == pytest.approx(3.5 * 2 / (4 * 2**17) * 1e9)
    assert m["randdist.mc_signs"] == 0 and m["randdist.ns_per_sign"] == 0.0


def test_tracer_restores_names_and_reports_absent():
    import pairsens.testing as testing

    original = testing.build_pair
    t = tracer.Tracer()
    t.install(tracer.PATCHES + (("pairsens.testing", "no_such_function", "x.y"),))
    assert testing.build_pair is not original
    t.restore()
    assert testing.build_pair is original
    assert t.absent == ["pairsens.testing.no_such_function"]


def _cli_stdout(argv) -> bytes:
    import pairsens.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert pairsens.cli.main(list(argv)) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", ["changepoint-exact", "interval-exact", "test-mc-large"])
def test_output_check_catches_corrupted_stdout(name, tmp_path):
    import pairsens

    inv = workloads.build(name, 3, tmp_path, reduced=True)[0]
    good = _cli_stdout(inv.argv)
    assert checks.invariant_problems(inv, good, pairsens) == []
    obj = json.loads(good)
    if name == "changepoint-exact":
        # a bracket wholly above the true changepoint: no rejection at its low end
        hi = obj["bracket"][1]
        obj["bracket"], obj["gamma_changepoint"] = [hi + 0.5, hi + 1.0], hi + 0.75
    elif name == "interval-exact":
        row = obj["intervals"][0]
        row["lower"], row["upper"] = row["upper"] + 1.0, row["lower"]
    else:
        obj["p_value_upper"] = 1.5
    corrupted = [json.dumps(obj).encode(), good[:-5], good.replace(b'"method"', b'"method2"')]
    for bad in corrupted:
        assert checks.invariant_problems(inv, bad, pairsens), bad


def test_failed_count_covers_changed_and_golden_mismatched_stdout(tmp_path):
    inv = workloads.build("interval-exact", 3, tmp_path, reduced=True)[0]
    good = _cli_stdout(inv.argv)

    def outcome(stdout, code=0):
        return run.Outcome(1.0, 1.0, 50.0, code, stdout, b"")

    passes = [[outcome(good)], [outcome(good.replace(b"0.9", b"0.8"))], [outcome(b"", 3)]]
    assert run.check_outputs([inv], passes, None)[0] == 2
    assert run.check_outputs([inv], passes, [checks.digest(good)])[0] == 2
    assert run.check_outputs([inv], passes, ["0" * 64])[0] == 3


def test_invoke_keeps_stdout_and_records_main_times(tmp_path):
    inv = workloads.build("interval-exact", 3, tmp_path, reduced=True)[0]
    env, times = run.child_env(), tmp_path / "call.times"
    timed = subprocess.run([sys.executable, str(run.INVOKE), "--times", str(times), "--",
                            *inv.argv], cwd=ROOT, env=env, capture_output=True, timeout=60)
    plain = subprocess.run([sys.executable, "-m", "pairsens", *inv.argv], cwd=ROOT, env=env,
                           capture_output=True, timeout=60)
    assert timed.returncode == plain.returncode == 0
    assert timed.stdout == plain.stdout
    recorded = json.loads(times.read_text())
    assert recorded["wall_s"] > 0 and recorded["cpu_s"] > 0


def test_golden_digests_apply_only_to_their_seed_and_platform():
    golden = {"seed": 1, "platform": {"cpu_model": "x"}, "digests": {"w": ["d"]}}
    assert checks.golden_digests(golden, "w", 1, {"cpu_model": "x"}) == ["d"]
    assert checks.golden_digests(golden, "w", 2, {"cpu_model": "x"}) is None
    assert checks.golden_digests(golden, "w", 1, {"cpu_model": "y"}) is None


def test_golden_file_covers_every_invocation(tmp_path):
    golden = checks.load_golden()
    for name in workloads.WORKLOADS:
        n = len(workloads.build(name, golden["seed"], tmp_path, reduced=True))
        assert len(golden["digests"][name]) == n


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layer = dict(tracer.LAYER_UNITS, **{"trace.overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_reduced_run_emits_every_metric(name, trace):
    res = _bench(["--workload", name, "--seed", "5", "--seconds", "0.1",
                  "--trace", str(trace), "--reduced"], ROOT)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    meta = json.loads(res.stdout.splitlines()[-2])
    assert meta["extra"]["error_rate"] == 0.0
    assert ("reps_per_s" in meta["extra"]) == (name == "simulate-mc" and trace == 0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench(["--workload", "simulate-mc", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""
