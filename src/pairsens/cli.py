"""Command-line surface: test, changepoint, interval, design-sensitivity, simulate.

Results go to stdout as JSON (or CSV rows where a table is natural);
diagnostics go to stderr.  Exit codes: 0 ok, 2 usage or input error,
3 internal invariant failure.  The library checks its own arguments and
raises ``ValueError`` for input it refuses, so a ``ValueError`` from it is an
input error and exits 2 with its message, as a ``CliError`` does; any other
exception exits 3.  The seed always appears in the output so any run can be
reproduced exactly.  Each JSON object is read from a result dataclass's
fields, in the printed order.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import json
import math
import sys
from dataclasses import asdict
from typing import Union

from .core import METHODS, PairedSample, SensitivityParam, TestSpec
from .inference import changepoint_gamma, design_sensitivity, sensitivity_interval
from .randdist import EnumSpec
from .testing import run_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_CLI_METHODS = {method.replace("_", "-"): method for method in METHODS}

# The subcommands, in the order -h lists them.
_COMMANDS = ("test", "changepoint", "interval", "design-sensitivity", "simulate")


# What ``simulate`` reads of the simulation harness.  They resolve from
# ``pairsens.sim`` on first read (PEP 562), so that the other commands do not
# import it; a name set on this module, as a tracer's wrapper is, comes first.
_SIM_NAMES = ("SCENARIO_NAMES", "estimate_size_power_multi", "load_allocation")


def __getattr__(name: str):
    if name in _SIM_NAMES:
        return getattr(importlib.import_module(".sim", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    """Usage or input problem the CLI finds itself; maps to exit code 2."""


def _read_differences(path: str) -> PairedSample:
    """Load paired differences from CSV.

    One column is read as pre-differenced values; two columns as
    (treated, control) and collapsed to rowwise differences.  A single
    leading header row is auto-detected (first row non-numeric).
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise CliError(f"cannot read input file: {exc}") from None
    if not rows:
        raise CliError(f"{path}: no data rows")

    def parse_row(row):
        return [float(cell) for cell in row]

    start = 0
    try:
        parse_row(rows[0])
    except ValueError:
        start = 1
    data = []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        try:
            data.append(parse_row(row))
        except ValueError:
            raise CliError(f"{path}: non-numeric value on data row {lineno}") from None
    if not data:
        raise CliError(f"{path}: no data rows")
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise CliError(f"{path}: inconsistent column counts {sorted(widths)}")
    (width,) = widths
    if width == 1:
        y = [row[0] for row in data]
    elif width == 2:
        y = [row[0] - row[1] for row in data]
    else:
        raise CliError(f"{path}: expected 1 column of differences or 2 columns "
                       f"(treated, control), got {width}")
    if len(y) < 2:
        raise CliError(f"{path}: need at least 2 pairs, got {len(y)}")
    try:
        return PairedSample(y)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _engine_from(args, draws: int) -> EnumSpec:
    return EnumSpec(mode="auto", exact_cap=args.exact_below, draws=draws, seed=args.seed)


def _check_gamma(gamma: float) -> float:
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise CliError("gamma must be >= 1")
    return gamma


def _fields(result, names, **renamed) -> dict:
    """The fields ``names`` of a result in that order, each read from the
    attribute ``renamed`` maps it to, or else from its own name."""
    return {name: getattr(result, renamed.get(name, name)) for name in names}


def _emit(obj) -> None:
    print(json.dumps(obj))


def _emit_csv(names, results, **renamed) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(names)
    writer.writerows(_fields(res, names, **renamed).values() for res in results)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of numbers") from None
    if not values:
        raise CliError(f"{flag} must contain at least one number")
    return values


def _gammas(args) -> list[float]:
    if args.gammas is not None and args.gamma is not None:
        raise CliError("pass --gamma or --gammas, not both")
    if args.gammas is not None:
        gammas = _float_list(args.gammas, "--gammas")
    elif args.gamma is not None:
        gammas = [args.gamma]
    else:
        raise CliError("provide --gamma or --gammas")
    return [_check_gamma(g) for g in gammas]


def _seed(text: str) -> int:
    if not text.strip().isdecimal():  # numpy seeds are integers >= 0
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_engine_flags(sub, reps_help="Monte Carlo draws for the reference distribution"):
    sub.add_argument("--reps", type=int, default=10_000, help=reps_help)
    sub.add_argument("--seed", type=_seed, default=0, help="random seed (echoed in output)")
    sub.add_argument(
        "--exact-below",
        type=int,
        default=20,
        help="enumerate exactly when the sample has at most this many pairs",
    )


# The printed order of each result's fields, where it is not the dataclass's.
_TEST_FIELDS = ("method", "gamma", "tau", "alpha", "alternative", "statistic",
                "critical_value", "p_value_upper", "p_value_upper_conservative",
                "reject", "degenerate")
_CHANGEPOINT_FIELDS = ("method", "tau", "alpha", "alternative", "gamma_changepoint",
                       "bracket", "tolerance", "rejects_at_gamma_one",
                       "exceeded_gamma_max", "monotone", "inversions", "n_evaluations")
_ENGINE_FIELDS = ("mode", "draws", "seed")


def cmd_test(args) -> int:
    sample = _read_differences(args.input)
    _check_gamma(args.gamma)
    engine = _engine_from(args, args.reps)
    spec = TestSpec(
        tau=args.tau,
        alpha=args.alpha,
        alternative=args.alternative,
        method=_CLI_METHODS[args.method],
    )
    result = run_test(sample, spec, SensitivityParam(args.gamma), engine)
    ran = _fields(result, ("mode", "draws"), draws="n_draws") | {"seed": engine.seed}
    _emit(_fields(result, _TEST_FIELDS) | {"engine": ran})
    return EXIT_OK


def cmd_changepoint(args) -> int:
    sample = _read_differences(args.input)
    engine = _engine_from(args, args.reps)
    result = changepoint_gamma(
        sample,
        tau=args.tau,
        alpha=args.alpha,
        method=_CLI_METHODS[args.method],
        engine=engine,
        gamma_max=args.gamma_max,
        tol=args.tol,
        alternative=args.alternative,
        grid_points=args.grid_points,
    )
    _emit(_fields(result, _CHANGEPOINT_FIELDS) | {"engine": _fields(engine, _ENGINE_FIELDS)})
    return EXIT_OK


def cmd_interval(args) -> int:
    sample = _read_differences(args.input)
    engine = _engine_from(args, args.reps)
    method = _CLI_METHODS[args.method]
    rows = [
        sensitivity_interval(
            sample,
            gamma=g,
            confidence=args.confidence,
            method=method,
            engine=engine,
            tol=args.tol,
        )
        for g in _gammas(args)
    ]
    if args.format == "csv":
        _emit_csv(("gamma", "lower", "upper"), rows)
    else:
        _emit(
            {
                "method": method,
                "confidence": args.confidence,
                "seed": args.seed,
                "intervals": [
                    _fields(res, ("gamma", "lower", "upper", "non_monotone")) for res in rows
                ],
            }
        )
    return EXIT_OK


def cmd_design_sensitivity(args) -> int:
    if args.input is not None:
        if args.mean is not None or args.abs_moment is not None:
            raise CliError("pass --input or (--mean, --abs-moment), not both")
        sample = _read_differences(args.input)
        result = design_sensitivity(tau=args.tau, sample=sample)
    else:
        if args.mean is None or args.abs_moment is None:
            raise CliError("need --input or both --mean and --abs-moment")
        result = design_sensitivity(
            tau=args.tau, mean=args.mean, abs_moment=args.abs_moment
        )
    _emit(asdict(result))
    return EXIT_OK


def cmd_simulate(args) -> int:
    # read through the module, so that its __getattr__ or a wrapper set on it answers
    this = sys.modules[__name__]
    if (args.scenario is None) == (args.allocation is None):
        raise CliError("provide exactly one of --scenario or --allocation")
    if args.allocation is not None:
        try:
            scenario = this.load_allocation(args.allocation)
        except OSError as exc:
            raise CliError(str(exc)) from None
        if args.pairs is not None and args.pairs != scenario.n_pairs:
            raise CliError("--pairs disagrees with the allocation file")
        pairs = scenario.n_pairs
        scenario_name = args.allocation
    else:
        name = args.scenario.replace("-", "_")
        if name not in this.SCENARIO_NAMES:
            raise CliError(f"unknown scenario {args.scenario!r}")
        if args.pairs is None:
            raise CliError("--pairs is required with --scenario")
        scenario = name
        pairs = args.pairs
        scenario_name = name
    gammas = _gammas(args)
    methods = []
    for part in args.methods.split(","):
        part = part.strip()
        if part not in _CLI_METHODS:
            raise CliError(f"unknown method {part!r}")
        methods.append(_CLI_METHODS[part])
    # each replication reseeds the engine from --seed, so its own seed is not read
    engine = _engine_from(args, args.mc_draws)
    rows = []
    for g in gammas:
        results = this.estimate_size_power_multi(
            scenario,
            methods,
            tau=args.tau,
            alpha=args.alpha,
            gamma=g,
            n_pairs=pairs if isinstance(scenario, str) else None,
            replications=args.reps,
            seed=args.seed,
            engine=engine,
        )
        rows.extend(results)
    columns = ("gamma", "method", "rejection_rate", "mc_se")
    if args.format == "csv":
        _emit_csv(columns + ("replications",), rows, gamma="gamma_tested")
    else:
        _emit(
            {
                "scenario": scenario_name,
                "pairs": pairs,
                "tau": args.tau,
                "alpha": args.alpha,
                "replications": args.reps,
                "seed": args.seed,
                "engine": _fields(engine, _ENGINE_FIELDS),
                "results": [_fields(res, columns, gamma="gamma_tested") for res in rows],
            }
        )
    return EXIT_OK


def build_parser(command: Union[str, None] = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the ``command`` a call invokes, one
    of ``_COMMANDS``, only that subcommand's parser is built: a parse of
    its argv reads no other, and the others' ``add_argument`` calls are
    most of a build.  A fixed metavar then lists every subcommand, so the
    top-level usage line is unchanged.  Without one, every subcommand is
    built, for ``-h`` and for the errors that name the subcommand argument,
    which the metavar would rename."""
    parser = argparse.ArgumentParser(
        prog="pairsens",
        description="Randomization-based sensitivity analysis for the sample "
        "average treatment effect in paired observational studies.",
    )
    only = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if only else None)

    if not only or command == "test":
        p_test = sub.add_parser("test", help="run one sensitivity-analysis test")
        p_test.add_argument("--input", "-i", required=True, help="CSV of differences "
                            "(one column) or treated,control (two columns)")
        p_test.add_argument("--tau", type=float, required=True,
                            help="hypothesized sample average treatment effect")
        p_test.add_argument("--gamma", type=float, required=True, help="bias bound >= 1")
        p_test.add_argument("--alpha", type=float, default=0.05)
        p_test.add_argument("--method", choices=sorted(_CLI_METHODS), default="studentized")
        p_test.add_argument("--alternative", choices=["greater", "less"], default="greater")
        _add_engine_flags(p_test)
        p_test.set_defaults(func=cmd_test)

    if not only or command == "changepoint":
        p_cp = sub.add_parser("changepoint", help="smallest gamma at which the test "
                              "stops rejecting")
        p_cp.add_argument("--input", "-i", required=True)
        p_cp.add_argument("--tau", type=float, required=True)
        p_cp.add_argument("--alpha", type=float, default=0.05)
        p_cp.add_argument("--method", choices=sorted(_CLI_METHODS), default="studentized")
        p_cp.add_argument("--alternative", choices=["greater", "less"], default="greater")
        p_cp.add_argument("--gamma-max", type=float, default=1000.0)
        p_cp.add_argument("--tol", type=float, default=1e-3)
        p_cp.add_argument("--grid-points", type=int, default=50,
                          help="points in the post-hoc monotonicity scan")
        _add_engine_flags(p_cp)
        p_cp.set_defaults(func=cmd_changepoint)

    if not only or command == "interval":
        p_iv = sub.add_parser("interval", help="sensitivity interval(s) by test inversion")
        p_iv.add_argument("--input", "-i", required=True)
        p_iv.add_argument("--gamma", type=float, default=None)
        p_iv.add_argument("--gammas", default=None,
                          help="comma-separated gamma grid for an interval table")
        p_iv.add_argument("--confidence", type=float, default=0.90)
        p_iv.add_argument("--method", choices=sorted(_CLI_METHODS), default="studentized")
        p_iv.add_argument("--tol", type=float, default=None,
                          help="endpoint tolerance (default scales with the data range)")
        p_iv.add_argument("--format", choices=["json", "csv"], default="json")
        _add_engine_flags(p_iv)
        p_iv.set_defaults(func=cmd_interval)

    if not only or command == "design-sensitivity":
        p_ds = sub.add_parser("design-sensitivity", help="power-transition gamma from "
                              "moments or a sample")
        p_ds.add_argument("--input", "-i", default=None, help="estimate moments from this CSV")
        p_ds.add_argument("--tau", type=float, required=True)
        p_ds.add_argument("--mean", type=float, default=None,
                          help="population mean of the differences")
        p_ds.add_argument("--abs-moment", type=float, default=None,
                          help="population E|Y - tau|")
        p_ds.set_defaults(func=cmd_design_sensitivity)

    if not only or command == "simulate":
        p_sim = sub.add_parser("simulate", help="size/power of the tests in a scenario")
        p_sim.add_argument("--scenario", default=None,
                           help="counterexample or favorable-normal")
        p_sim.add_argument("--allocation", default=None,
                           help="CSV with header delta,eta,pi (one row per pair)")
        p_sim.add_argument("--pairs", type=int, default=None)
        p_sim.add_argument("--tau", type=float, required=True)
        p_sim.add_argument("--gamma", type=float, default=None)
        p_sim.add_argument("--gammas", default=None,
                           help="comma-separated gamma grid for power curves")
        p_sim.add_argument("--alpha", type=float, default=0.05)
        p_sim.add_argument("--methods", default="perm-t,neyman,studentized",
                           help="comma-separated methods to estimate together")
        p_sim.add_argument("--reps", type=int, default=10_000,
                           help="number of simulated replications")
        p_sim.add_argument("--mc-draws", type=int, default=10_000,
                           help="Monte Carlo draws per reference distribution")
        p_sim.add_argument("--seed", type=_seed, default=0)
        p_sim.add_argument("--exact-below", type=int, default=20)
        p_sim.add_argument("--format", choices=["json", "csv"], default="json")
        p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


# Every object made up to here (the interpreter's, numpy's and the package's
# modules) lives as long as the process.  Moving them out of the collector's
# generations keeps its first passes in a call from scanning them again:
# otherwise a call pays about 1 ms for whichever pass the import's
# allocations left due.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
