"""pairsens benchmark: seeded CLI workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload changepoint-exact --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  Inputs for the workload are made
from ``--seed`` (see ``workloads.py``) before any timing.  The benchmark then
runs passes of the workload for about ``--seconds`` seconds; a pass is the
workload's CLI calls, each in a fresh process (``invoke.py``, which calls
``pairsens.cli.main``) with ``src`` on the path and one BLAS thread.  Every
call's stdout is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  Each call's figure is its
median over the passes; a pass's figure combines those of its calls:

* ``setup_s``     -- time to import ``pairsens.cli`` in a fresh interpreter,
                     median of imports before and between the passes;
* ``wall_norm_s`` -- wall time of ``cli.main`` in a pass (sum over its calls):
                     parsing, CSV ingestion, computation and JSON output, but
                     not the start-up that ``setup_s`` measures; scaled to
                     the machine's speed, see below;
* ``cpu_norm_s``  -- user + system CPU over the same spans (sum), scaled alike;
* ``peak_rss_mb`` -- ``ru_maxrss`` of a pass's processes (max).

On a shared host, neighbouring load can change the speed of the same
computation by up to half over minutes, so a fixed reference kernel
(``reference.py``) is timed before every call and after every pass, and
the run's times are multiplied by ``NOMINAL_S / median kernel time``.
The unscaled ``wall_s`` and ``cpu_s`` are in the metadata line.

``--trace 1`` alternates untraced passes with passes run under
``tracer.py`` and reports the per-layer metrics of ``tracer.LAYER_UNITS``
(time metrics are medians over traced passes, counts must repeat exactly)
plus ``trace.overhead`` (traced / untraced ``cli.main`` time - 1).  Peak
allocation comes from one extra traced pass under tracemalloc.

The last stdout line is the result object; the line before it holds run
metadata, per-call samples, check details, stdout digests, the unscaled
times, and ``error_rate`` and (simulate-mc) ``reps_per_s``, which have no
place in the result: the result carries the error rate as
``failed / attempted``, and ``reps_per_s`` is the fixed replication count
over the unscaled ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the thread variables as found, for the metadata; numpy reads them on import
THREADS_FOUND = {var: os.environ.get(var) for var in THREAD_VARS}
# the reference kernel runs in this process, with one BLAS thread like the calls
os.environ.update({var: "1" for var in THREAD_VARS})

import checks  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
INVOKE = Path(__file__).resolve().with_name("invoke.py")
DEFAULT_SEED = 1
# timed imports before the first pass; one more follows every pass
SETUP_IMPORTS = 3
MIN_PASSES = 3
# every run ends well inside the 180 s a run may take
RUN_DEADLINE_S = 150.0
IMPORT_TIMER = ("import time; t = time.perf_counter(); import pairsens.cli; "
                "print(repr(time.perf_counter() - t))")
END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    # wall and CPU time of cli.main alone, as the child reported them
    main_s: float | None = None
    main_cpu_s: float | None = None


def run_child(cmd: list[str], env: dict, out_base: Path, deadline: float) -> Outcome:
    """Run one process to completion; its resource usage comes from wait4.

    Output goes to files, not pipes, so a chatty child cannot block.  A
    child still running at ``deadline`` is killed and reported as failed.
    """
    out_path, err_path = out_base.with_suffix(".out"), out_base.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def child_env() -> dict:
    """Environment of every timed process: ``src`` on the path, one BLAS thread.

    A second OpenBLAS thread does not shorten any workload (the sign matmuls
    are too small to split), but it spins while it waits, so on a shared
    host it doubles the CPU time and makes both time metrics depend on what
    the neighbours run.  The thread variables as found are kept in the metadata.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def time_import(env: dict, workdir: Path, tag: str, deadline: float) -> float:
    """Seconds a fresh interpreter takes to import ``pairsens.cli``."""
    res = run_child([sys.executable, "-c", IMPORT_TIMER], env, workdir / tag, deadline)
    if res.code != 0:
        raise RuntimeError(f"importing pairsens.cli failed: {res.stderr.decode()[-500:]}")
    return float(res.stdout)


def measure_setup(env: dict, workdir: Path, deadline: float) -> list[float]:
    """Import times of ``pairsens.cli``; one untimed import first compiles bytecode."""
    time_import(env, workdir, "setup", deadline)
    return [time_import(env, workdir, f"setup{i}", deadline) for i in range(SETUP_IMPORTS)]


def run_pass(invocations, env, workdir, tag, deadline, tracer_flags=None,
             kernel=None) -> list[Outcome]:
    """One pass over the workload's calls; traced under tracer.py unless flags is None.

    With a ``kernel`` list, the reference kernel's time before each call is
    appended to it.
    """
    outcomes = []
    for i, inv in enumerate(invocations):
        if kernel is not None:
            kernel.append(reference.kernel_seconds())
        base = workdir / f"{tag}-{i}"
        if tracer_flags is None:
            cmd = [sys.executable, str(INVOKE), "--times", str(base.with_suffix(".times")),
                   "--", *inv.argv]
        else:
            cmd = [sys.executable, str(Path(tracer.__file__)), "--spans",
                   str(base.with_suffix(".spans")), *tracer_flags, "--", *inv.argv]
        res = run_child(cmd, env, base, deadline)
        try:
            if tracer_flags is None:
                times = json.loads(base.with_suffix(".times").read_text())
                res.main_s, res.main_cpu_s = times["wall_s"], times["cpu_s"]
            else:
                root = json.loads(base.with_suffix(".spans").read_text())["spans"][0]
                res.main_s = root["end"] - root["start"]
        except (OSError, ValueError, KeyError, IndexError):
            # a call that died early; its output check fails it
            res.main_s, res.main_cpu_s = res.wall_s, res.cpu_s
        outcomes.append(res)
    return outcomes


def pass_totals(workdir: Path, tag: str, outcomes: list[Outcome], absent: set[str]):
    """Combined tracer totals of a traced pass, or None if a call failed."""
    if any(res.code != 0 for res in outcomes):
        return None
    parts = []
    for i in range(len(outcomes)):
        data = json.loads((workdir / f"{tag}-{i}").with_suffix(".spans").read_text())
        parts.append(tracer.totals(data["spans"]))
        absent.update(data["absent"])
    return tracer.combine(parts)


def environment() -> dict:
    """Where the numbers came from; ``platform`` keys the golden digests."""
    import numpy
    import scipy

    blas = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    cpu_model, caches = platform.processor(), {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "threads_env": THREADS_FOUND,
        "threads_set": {k: "1" for k in THREAD_VARS},
        "platform": {
            "machine": platform.machine(),
            "cpu_model": cpu_model,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
        },
    }


def check_outputs(invocations, passes, golden) -> tuple[int, list]:
    """Count failed invocations; a pass's outputs must all equal the first pass's.

    The first pass's stdouts get the schema and invariant checks, and are
    compared with the ``golden`` digests unless that is None.
    """
    sys.path.insert(0, str(SRC))
    import pairsens

    reference = passes[0]
    problems = []
    bad_ref = []
    for i, (inv, res) in enumerate(zip(invocations, reference)):
        found = checks.invariant_problems(inv, res.stdout, pairsens) if res.code == 0 else []
        if golden is not None and checks.digest(res.stdout) != golden[i]:
            found.append("stdout differs from the golden digest")
        bad_ref.append(res.code != 0 or bool(found))
        problems += [f"{inv.command}[{i}]: {p}" for p in found]
    failed = 0
    for outcomes in passes:
        for i, res in enumerate(outcomes):
            bad = res.code != 0 or bad_ref[i] or res.stdout != reference[i].stdout
            if res.code != 0:
                problems.append(f"exit {res.code}: {res.stderr.decode()[-300:]}")
            failed += bad
    return failed, problems[:20]


def per_call(passes: list[list[Outcome]], field: str) -> list[list[float]]:
    """Samples of ``field`` for each call of the workload, one per pass."""
    return [[getattr(outs[i], field) for outs in passes] for i in range(len(passes[0]))]


def typical_pass(samples: list[list[float]], combine=sum) -> float:
    """Cost of a typical pass: each call's median over the passes, combined.

    Calls of one pass vary independently, so combining per-call medians is
    steadier than the median of whole-pass sums.
    """
    return combine(statistics.median(s) for s in samples)


def layer_summary(totals: list[dict], memory_totals: dict) -> dict:
    """Median over traced passes of each per-layer metric."""
    per_pass = [tracer.layer_metrics(t) for t in totals]
    peak = tracer.layer_metrics(memory_totals)["randdist.peak_alloc_mb"]
    for m in per_pass:
        m["randdist.peak_alloc_mb"] = peak
    # counts repeat exactly between passes (checked by the caller)
    return {key: {"value": per_pass[0][key] if key in tracer.EXACT_COUNTS else
                  statistics.median(m[key] for m in per_pass), "unit": unit}
            for key, unit in tracer.LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="tiny inputs, for the benchmark's own tests only")
    args = parser.parse_args(argv)
    if not (SRC / "pairsens" / "cli.py").is_file():
        print(f"error: no pairsens sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env_info = environment()
        invocations = workloads.build(args.workload, args.seed, workdir, args.reduced)
        setup = [] if args.trace else measure_setup(env, workdir, deadline)

        plain, traced, totals, absent = [], [], [], set()
        if args.trace:
            # tracemalloc slows Python-heavy layers by up to a quarter, so peak
            # allocation comes from a pass of its own whose times are not used
            memory = run_pass(invocations, env, workdir, "m", deadline, ["--tracemalloc"])
            memory_totals = pass_totals(workdir, "m", memory, absent)
        kernel = None if args.trace else []
        start = time.monotonic()
        while True:
            plain.append(run_pass(invocations, env, workdir, f"p{len(plain)}", deadline,
                                  kernel=kernel))
            if not args.trace:
                # spread over the run, the imports see the same machine as the passes
                setup.append(time_import(env, workdir, f"setup-p{len(plain)}", deadline))
                kernel.append(reference.kernel_seconds())
            else:
                tag = f"t{len(traced)}"
                traced.append(run_pass(invocations, env, workdir, tag, deadline, []))
                totals.append(pass_totals(workdir, tag, traced[-1], absent))
            elapsed = time.monotonic() - start
            per_round = elapsed / len(plain)
            if len(plain) + len(traced) >= MIN_PASSES and elapsed + per_round > args.seconds:
                break
            if time.monotonic() + per_round > deadline:
                break

        checked = plain + traced + ([memory] if args.trace else [])
        golden = None if args.reduced else checks.golden_digests(
            checks.load_golden(), args.workload, args.seed, env_info["platform"])
        failed, problems = check_outputs(invocations, checked, golden)
        attempted = len(invocations) * len(checked)
        samples = {"wall_s": per_call(plain, "main_s")}
        wall = typical_pass(samples["wall_s"])
        extra = {"error_rate": failed / attempted}
        if args.trace:
            traced_ok = [t for t in totals if t is not None]
            if memory_totals is None or not traced_ok:
                print("error: traced passes failed: " + "; ".join(problems), file=sys.stderr)
                return 1
            if len(traced_ok) < len(totals):
                problems.append("a traced pass failed")
            counted = [tracer.layer_metrics(t) for t in traced_ok + [memory_totals]]
            if any(m[k] != counted[0][k] for m in counted for k in tracer.EXACT_COUNTS):
                problems.append("exact trace counts differ between traced passes")
            metrics = layer_summary(traced_ok, memory_totals)
            samples["traced_wall_s"] = per_call(traced, "main_s")
            metrics["trace.overhead"] = {
                "value": typical_pass(samples["traced_wall_s"]) / wall - 1.0, "unit": "ratio"}
        else:
            samples.update(setup_s=setup, cpu_s=per_call(plain, "main_cpu_s"),
                           peak_rss_mb=per_call(plain, "rss_mb"), kernel_s=kernel)
            cpu = typical_pass(samples["cpu_s"])
            scale = reference.NOMINAL_S / statistics.median(kernel)
            extra.update(wall_s=wall, cpu_s=cpu, kernel_s=statistics.median(kernel))
            values = {
                "setup_s": statistics.median(setup),
                "wall_norm_s": wall * scale,
                "cpu_norm_s": cpu * scale,
                "peak_rss_mb": typical_pass(samples["peak_rss_mb"], max),
            }
            metrics = {key: {"value": values[key], "unit": unit}
                       for key, unit in END_TO_END_UNITS.items()}
            if args.workload == "simulate-mc":
                extra["reps_per_s"] = int(invocations[0].option("--reps")) / wall
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(plain), "environment": env_info, "extra": extra,
            "samples": samples, "problems": problems, "absent": sorted(absent),
            "stdout_sha256": [checks.digest(res.stdout) for res in plain[0]],
        }))
        print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
