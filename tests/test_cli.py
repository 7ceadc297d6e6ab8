import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from pairsens import cli
from pairsens.core import RESCALE, SE_OVERFLOWS
from pairsens.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pairsens", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def diff_csv(tmp_path):
    path = tmp_path / "diffs.csv"
    path.write_text("2\n-1\n3\n")
    return path


@pytest.fixture
def wide_csv(tmp_path):
    rng = np.random.default_rng(81)
    y = rng.normal(loc=0.8, size=30).round(4)
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"{v}\n" for v in y))
    return path, y


class TestCmdTest:
    def test_neyman_matches_paired_t(self, diff_csv):
        proc = run_cli("test", "--input", diff_csv, "--tau", 0, "--gamma", 1,
                       "--method", "neyman")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        expected = stats.ttest_1samp([2.0, -1.0, 3.0], 0.0).statistic
        assert_allclose(out["statistic"], expected, rtol=1e-12)
        assert out["method"] == "neyman"
        assert out["engine"]["seed"] == 0

    def test_gamma_below_one_exits_two(self, diff_csv):
        proc = run_cli("test", "--input", diff_csv, "--tau", 0, "--gamma", 0.5)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "gamma" in proc.stderr

    def test_determinism_byte_identical(self, wide_csv):
        path, _ = wide_csv
        args = ("test", "--input", path, "--tau", 0, "--gamma", 2,
                "--method", "studentized", "--reps", 2000, "--seed", 9)
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_two_column_input_equates_to_differences(self, tmp_path):
        rng = np.random.default_rng(82)
        treated = rng.normal(loc=1.0, size=25).round(4)
        control = rng.normal(size=25).round(4)
        two = tmp_path / "two.csv"
        two.write_text("treated,control\n" + "".join(
            f"{t},{c}\n" for t, c in zip(treated, control)))
        one = tmp_path / "one.csv"
        one.write_text("".join(f"{t - c}\n" for t, c in zip(treated, control)))
        args = ("--tau", 0, "--gamma", 2, "--method", "perm-t",
                "--reps", 1000, "--seed", 4)
        out_two = run_cli("test", "--input", two, *args)
        out_one = run_cli("test", "--input", one, *args)
        assert out_two.stdout == out_one.stdout

    def test_header_autodetect(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("2\n-1\n3\n")
        headed = tmp_path / "headed.csv"
        headed.write_text("difference\n2\n-1\n3\n")
        args = ("--tau", 0, "--gamma", 1, "--method", "neyman")
        assert run_cli("test", "--input", bare, *args).stdout == \
            run_cli("test", "--input", headed, *args).stdout

    def test_json_roundtrip_is_lossless(self, wide_csv):
        path, _ = wide_csv
        proc = run_cli("test", "--input", path, "--tau", 0.123456789012345,
                       "--gamma", 1.75, "--method", "studentized", "--reps", 500)
        out = json.loads(proc.stdout)
        assert json.loads(json.dumps(out)) == out

    @pytest.mark.parametrize("content,fragment", [
        ("2\n", "at least 2"),
        ("1\nabc\n3\n", "non-numeric"),
        ("1,2,3\n4,5,6\n", "column"),
    ])
    def test_bad_inputs_exit_two(self, tmp_path, content, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        proc = run_cli("test", "--input", path, "--tau", 0, "--gamma", 1)
        assert proc.returncode == 2
        assert fragment in proc.stderr

    def test_missing_file_exits_two(self):
        proc = run_cli("test", "--input", "/nonexistent.csv", "--tau", 0,
                       "--gamma", 1)
        assert proc.returncode == 2

    def test_unknown_method_exits_two(self, diff_csv):
        proc = run_cli("test", "--input", diff_csv, "--tau", 0, "--gamma", 1,
                       "--method", "wilcoxon")
        assert proc.returncode == 2

    @pytest.mark.parametrize("method", ["neyman", "studentized", "combined"])
    def test_overflowing_standard_error_exits_two(self, tmp_path, capsys, method):
        # the squared deviations of 1e200-scale differences overflow, and an
        # infinite standard error used to give neyman a statistic of 0
        path = tmp_path / "y.csv"
        args = ["test", "--input", str(path), "--tau", "0", "--gamma", "1",
                "--method", method]
        for scale, code in ((1e200, 2), (1.0, 0)):
            path.write_text("".join(f"{scale * k!r}\n" for k in (1, -1, 1, -1, 2)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(args) == code
            out, err = capsys.readouterr()
            if code == 2:
                assert out == ""
                assert err.startswith("error: ") and "rescale the differences" in err
            else:
                assert err == ""
                # the scale-free t statistic 0.4 / 0.6
                assert_allclose(json.loads(out)["statistic"], 2 / 3, rtol=1e-12)


# perm-t's changepoint on 1, -1, 1, -1, 2 times any scale, at tau 0
_CHANGEPOINT_AT_ONE = (
    '{{"method": "perm_t", "tau": 0.0, "alpha": 0.05, "alternative": "greater", '
    '"gamma_changepoint": 1.0, "bracket": [1.0, 1.0], "tolerance": 0.001, '
    '"rejects_at_gamma_one": false, "exceeded_gamma_max": false, "monotone": true, '
    '"inversions": [], "n_evaluations": 1, '
    '"engine": {{"mode": "auto", "draws": {draws}, "seed": {seed}}}}}\n'
)


class TestCmdChangepoint:
    def test_smoke_and_schema(self, wide_csv):
        path, y = wide_csv
        proc = run_cli("changepoint", "--input", path, "--tau", 0,
                       "--method", "perm-t", "--reps", 1000, "--grid-points", 8)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["rejects_at_gamma_one"] is True
        lo, hi = out["bracket"]
        assert hi - lo <= out["tolerance"] * (1 + 1e-9)
        assert lo <= out["gamma_changepoint"] <= hi

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_bad_tol_exits_two(self, diff_csv, tol):
        proc = run_cli("changepoint", "--input", diff_csv, "--tau", 0, "--tol", tol)
        assert proc.returncode == 2
        assert "tol" in proc.stderr

    @pytest.mark.parametrize("points", ["-1", "-3"])
    def test_negative_grid_points_exit_two(self, diff_csv, capsys, points):
        assert main(["changepoint", "--input", str(diff_csv), "--tau", "0",
                     "--grid-points", points]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: grid_points must not be negative\n"

    def test_zero_and_one_grid_points_skip_the_scan(self, tmp_path, capsys):
        # rejects at gamma 1 and stops below gamma_max, so the scan would follow
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{v}\n" for v in range(-1, 7)))
        outs = []
        for points in ("0", "1"):
            assert main(["changepoint", "--input", str(path), "--tau", "0",
                         "--grid-points", points]) == 0
            outs.append(capsys.readouterr().out)
        res = json.loads(outs[0])
        assert outs[0] == outs[1]
        assert res["rejects_at_gamma_one"] and res["monotone"]
        assert main(["changepoint", "--input", str(path), "--tau", "0",
                     "--grid-points", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["n_evaluations"] == res["n_evaluations"] + 2

    @pytest.mark.parametrize("gamma_max", ["nan", "inf", "1"])
    @pytest.mark.parametrize("y", [[1, -1, 1, -1], list(range(1, 9))])
    def test_bad_gamma_max_exits_two(self, tmp_path, y, gamma_max):
        # the first sample does not reject at gamma 1, the second does
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{v}\n" for v in y))
        proc = run_cli("changepoint", "--input", path, "--tau", 0, "--gamma-max", gamma_max)
        assert proc.returncode == 2
        assert "gamma_max" in proc.stderr

    @pytest.mark.parametrize("scale, argv, expected", [
        (2e-162, ["changepoint"], _CHANGEPOINT_AT_ONE.format(draws=10000, seed=0)),
        (1e200, ["changepoint"], _CHANGEPOINT_AT_ONE.format(draws=10000, seed=0)),
        (1e200, ["changepoint", "--exact-below", "3", "--reps", "300", "--seed", "4"],
         _CHANGEPOINT_AT_ONE.format(draws=300, seed=4)),
        (1e200, ["test", "--gamma", "1"],
         '{"method": "perm_t", "gamma": 1.0, "tau": 0.0, "alpha": 0.05, '
         '"alternative": "greater", "statistic": 3.9999999999999995e+199, '
         '"critical_value": 7.999999999999999e+199, "p_value_upper": 0.375, '
         '"p_value_upper_conservative": null, "reject": false, "degenerate": false, '
         '"engine": {"mode": "exact", "draws": "exact", "seed": 0}}\n'),
        (1e200, ["test", "--gamma", "1", "--exact-below", "3", "--reps", "300", "--seed", "4"],
         '{"method": "perm_t", "gamma": 1.0, "tau": 0.0, "alpha": 0.05, '
         '"alternative": "greater", "statistic": 3.9999999999999995e+199, '
         '"critical_value": 7.999999999999999e+199, "p_value_upper": 0.35, '
         '"p_value_upper_conservative": 0.3521594684385382, "reject": false, '
         '"degenerate": false, "engine": {"mode": "monte_carlo", "draws": 300, "seed": 4}}\n'),
    ], ids=["tiny-changepoint", "huge-changepoint", "huge-changepoint-monte-carlo",
            "huge-test", "huge-test-monte-carlo"])
    def test_extreme_scale_sample_prints_no_warning(self, tmp_path, capsys, scale, argv,
                                                    expected):
        # the squares of 2e-162 underflow, so a draw's standard error can be
        # 0 while its mean is not; those of 1e200 overflow, but perm-t reads
        # only the signed sums of |y - tau|
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{scale * k!r}\n" for k in (1, -1, 1, -1, 2)))
        args = [*argv, "--input", str(path), "--tau", "0", "--method", "perm-t"]
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0
        assert capsys.readouterr() == (expected, "")


class TestCmdInterval:
    def test_single_gamma_matches_closed_form(self, tmp_path):
        rng = np.random.default_rng(83)
        y = rng.normal(loc=2.0, size=150).round(6)
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{v}\n" for v in y))
        proc = run_cli("interval", "--input", path, "--gamma", 1,
                       "--confidence", 0.90, "--method", "neyman")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        (row,) = out["intervals"]
        mean = y.mean()
        se = y.std(ddof=1) / math.sqrt(y.size)
        z = stats.norm.ppf(0.95)
        assert_allclose(row["lower"], mean - z * se, atol=1e-3)
        assert_allclose(row["upper"], mean + z * se, atol=1e-3)

    def test_gamma_grid_csv(self, wide_csv):
        path, _ = wide_csv
        proc = run_cli("interval", "--input", path, "--gammas", "1,1.5,2",
                       "--method", "perm-t", "--reps", 500, "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "gamma,lower,upper"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        lowers = [float(r[1]) for r in rows]
        uppers = [float(r[2]) for r in rows]
        # intervals widen with gamma
        assert lowers[0] >= lowers[-1] - 1e-6
        assert uppers[0] <= uppers[-1] + 1e-6

    def test_requires_gamma(self, wide_csv):
        path, _ = wide_csv
        proc = run_cli("interval", "--input", path)
        assert proc.returncode == 2

    def test_gamma_and_gammas_exit_two(self, diff_csv):
        proc = run_cli("interval", "--input", diff_csv, "--gamma", 2, "--gammas", 1,
                       "--method", "neyman")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--gamma or --gammas, not both" in proc.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_two(self, diff_csv, tol):
        proc = run_cli("interval", "--input", diff_csv, "--gamma", 1, "--tol", tol)
        assert proc.returncode == 2
        assert "tol" in proc.stderr

    @pytest.mark.parametrize("command", ["interval", "changepoint"])
    @pytest.mark.parametrize("tol", ["0", "-0.0", "-1", "nan"])
    def test_tol_not_positive_exits_two(self, diff_csv, capsys, command, tol):
        # one rule for both searches
        point = ["--gamma", "1"] if command == "interval" else ["--tau", "0"]
        assert main([command, "--input", str(diff_csv), *point, "--tol", tol]) == 2
        assert capsys.readouterr() == ("", "error: tol must be positive and finite\n")


class TestCmdDesignSensitivity:
    def test_analytic_example(self):
        proc = run_cli("design-sensitivity", "--mean", 0.5, "--abs-moment", 0.7,
                       "--tau", 0)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert_allclose(out["gamma_tilde"], 6.0, rtol=1e-12)
        assert out["source"] == "analytic"

    def test_from_sample(self, wide_csv):
        path, y = wide_csv
        proc = run_cli("design-sensitivity", "--input", path, "--tau", 0)
        out = json.loads(proc.stdout)
        assert out["source"] == "estimated"
        mean = y.mean()
        absm = np.abs(y).mean()
        assert_allclose(out["gamma_tilde"], (absm + mean) / (absm - mean), rtol=1e-10)

    def test_requires_one_input_style(self):
        proc = run_cli("design-sensitivity", "--tau", 0)
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--mean", "--abs-moment", "--tau"])
    def test_non_finite_input_exits_two(self, flag):
        values = {"--mean": 0.5, "--abs-moment": 0.7, "--tau": 0, flag: "nan"}
        proc = run_cli("design-sensitivity", *[x for kv in values.items() for x in kv])
        assert proc.returncode == 2
        assert "finite" in proc.stderr


class TestCmdSimulate:
    def test_three_rates_json(self):
        proc = run_cli("simulate", "--scenario", "counterexample", "--pairs", 10,
                       "--tau", 2.5, "--gamma", 4, "--reps", 200,
                       "--mc-draws", 500, "--seed", 1)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert [r["method"] for r in out["results"]] == [
            "perm_t", "neyman", "studentized"]
        for row in out["results"]:
            assert 0.0 <= row["rejection_rate"] <= 1.0
            rate = row["rejection_rate"]
            assert_allclose(row["mc_se"], math.sqrt(rate * (1 - rate) / 200),
                            rtol=1e-12)

    def test_gamma_grid_csv(self):
        proc = run_cli("simulate", "--scenario", "favorable-normal", "--pairs", 30,
                       "--tau", 0, "--gammas", "1,2", "--reps", 100,
                       "--mc-draws", 300, "--methods", "neyman", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "gamma,method,rejection_rate,mc_se,replications"
        assert len(lines) == 3

    def test_allocation_file_matches_builtin_scenario(self, tmp_path):
        path = tmp_path / "alloc.csv"
        rows = ["delta,eta,pi"] + ["5,5,0.8"] * 5 + ["0,20,0.8"] * 5
        path.write_text("\n".join(rows) + "\n")
        common = ("--tau", 2.5, "--gamma", 4, "--reps", 150, "--mc-draws", 400,
                  "--seed", 6, "--format", "csv")
        via_file = run_cli("simulate", "--allocation", path, *common)
        via_name = run_cli("simulate", "--scenario", "counterexample",
                           "--pairs", 10, *common)
        assert via_file.returncode == via_name.returncode == 0
        assert via_file.stdout == via_name.stdout

    @pytest.mark.parametrize("flag, value", [("--mc-draws", 0), ("--exact-below", 31)])
    def test_bad_engine_input_exits_two(self, flag, value):
        proc = run_cli("simulate", "--scenario", "counterexample", "--pairs", 4,
                       "--tau", 2.5, "--gamma", 4, "--reps", 5, flag, value)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_gamma_and_gammas_exit_two(self):
        proc = run_cli("simulate", "--scenario", "counterexample", "--pairs", 4,
                       "--tau", 2.5, "--gamma", 3, "--gammas", 1, "--reps", 5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--gamma or --gammas, not both" in proc.stderr

    def test_scenario_and_allocation_conflict(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("delta,eta,pi\n1,1,0.5\n1,1,0.5\n")
        proc = run_cli("simulate", "--scenario", "counterexample",
                       "--allocation", path, "--tau", 0, "--gamma", 1)
        assert proc.returncode == 2


class TestConsoleScript:
    def test_module_entry_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("test", "changepoint", "interval", "design-sensitivity",
                    "simulate"):
            assert sub in proc.stdout


# Exact stdout of each subcommand on fixed inputs: the output schema, the
# field order and every digit.  "{y}" stands for the path of GOLDEN_SAMPLE.
GOLDEN_SAMPLE = (0.8, 1.3, -0.4, 2.1, 0.5, 1.7, -0.2, 0.9)
GOLDEN = {
    "test-exact": (
        ["test", "--input", "{y}", "--tau", "0", "--gamma", "1.5"],
        '{"method": "studentized", "gamma": 1.5, "tau": 0.0, "alpha": 0.05, '
        '"alternative": "greater", "statistic": 2.4399771253216747, '
        '"critical_value": 2.611287541116661, "p_value_upper": 0.057853439999999985, '
        '"p_value_upper_conservative": null, "reject": false, "degenerate": false, '
        '"engine": {"mode": "exact", "draws": "exact", "seed": 0}}\n',
    ),
    "test-monte-carlo": (
        ["test", "--input", "{y}", "--tau", "0.1", "--gamma", "1.5", "--method", "combined",
         "--exact-below", "3", "--reps", "500", "--seed", "7"],
        '{"method": "combined", "gamma": 1.5, "tau": 0.1, "alpha": 0.05, '
        '"alternative": "greater", "statistic": 2.0540126391764955, '
        '"critical_value": 2.5990952564658554, "p_value_upper": 0.096, '
        '"p_value_upper_conservative": 0.09780439121756487, "reject": false, '
        '"degenerate": false, "engine": {"mode": "monte_carlo", "draws": 500, "seed": 7}}\n',
    ),
    "changepoint": (
        ["changepoint", "--input", "{y}", "--tau", "0", "--method", "perm-t",
         "--grid-points", "5"],
        '{"method": "perm_t", "tau": 0.0, "alpha": 0.05, "alternative": "greater", '
        '"gamma_changepoint": 1.4958910942077637, '
        '"bracket": [1.4954147338867188, 1.4963674545288086], "tolerance": 0.001, '
        '"rejects_at_gamma_one": true, "exceeded_gamma_max": false, "monotone": true, '
        '"inversions": [], "n_evaluations": 27, '
        '"engine": {"mode": "auto", "draws": 10000, "seed": 0}}\n',
    ),
    "interval-json": (
        ["interval", "--input", "{y}", "--gammas", "1,2", "--method", "perm-t"],
        '{"method": "perm_t", "confidence": 0.9, "seed": 0, "intervals": ['
        '{"gamma": 1.0, "lower": 0.2500008583068849, "upper": 1.4333318710327152, '
        '"non_monotone": false}, '
        '{"gamma": 2.0, "lower": -0.2999998092651366, "upper": 1.8999980926513675, '
        '"non_monotone": false}]}\n',
    ),
    "interval-csv": (
        ["interval", "--input", "{y}", "--gammas", "1,2", "--method", "perm-t",
         "--format", "csv"],
        "gamma,lower,upper\r\n"
        "1.0,0.2500008583068849,1.4333318710327152\r\n"
        "2.0,-0.2999998092651366,1.8999980926513675\r\n",
    ),
    "design-sensitivity": (
        ["design-sensitivity", "--mean", "0.5", "--abs-moment", "0.7", "--tau", "0"],
        '{"gamma_tilde": 6.000000000000001, "tau": 0.0, "mean": 0.5, "abs_moment": 0.7, '
        '"source": "analytic", "note": null}\n',
    ),
    "design-sensitivity-note": (
        ["design-sensitivity", "--mean", "0.5", "--abs-moment", "0.3", "--tau", "0"],
        '{"gamma_tilde": Infinity, "tau": 0.0, "mean": 0.5, "abs_moment": 0.3, '
        '"source": "analytic", "note": "E|Y - tau| does not exceed |mean - tau|; the '
        'worst-case expectation never crosses zero, so power persists at every bound"}\n',
    ),
    "simulate-json": (
        ["simulate", "--scenario", "counterexample", "--pairs", "10", "--tau", "2.5",
         "--gamma", "4", "--reps", "40", "--mc-draws", "200", "--seed", "1"],
        '{"scenario": "counterexample", "pairs": 10, "tau": 2.5, "alpha": 0.05, '
        '"replications": 40, "seed": 1, "engine": {"mode": "auto", "draws": 200, "seed": 1}, '
        '"results": ['
        '{"gamma": 4.0, "method": "perm_t", "rejection_rate": 0.125, '
        '"mc_se": 0.05229125165837972}, '
        '{"gamma": 4.0, "method": "neyman", "rejection_rate": 0.275, '
        '"mc_se": 0.07060010623221469}, '
        '{"gamma": 4.0, "method": "studentized", "rejection_rate": 0.125, '
        '"mc_se": 0.05229125165837972}]}\n',
    ),
    "simulate-csv": (
        ["simulate", "--scenario", "favorable-normal", "--pairs", "6", "--tau", "0",
         "--gammas", "1,2", "--reps", "30", "--methods", "perm-t,neyman", "--seed", "3",
         "--format", "csv"],
        "gamma,method,rejection_rate,mc_se,replications\r\n"
        "1.0,perm_t,0.6333333333333333,0.08798147953257401,30\r\n"
        "1.0,neyman,0.7,0.08366600265340757,30\r\n"
        "2.0,perm_t,0.1,0.05477225575051661,30\r\n"
        "2.0,neyman,0.43333333333333335,0.09047201327032126,30\r\n",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_stdout_is_pinned(self, tmp_path, capsys, name):
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{v}\n" for v in GOLDEN_SAMPLE))
        argv, expected = GOLDEN[name]
        assert main([arg.replace("{y}", str(path)) for arg in argv]) == 0
        assert capsys.readouterr() == (expected, "")


class TestExitCodes:
    def test_library_value_error_exits_two(self, diff_csv, capsys):
        # TestSpec refuses the alpha; the CLI does not check it itself
        assert main(["test", "--input", str(diff_csv), "--tau", "0", "--gamma", "1",
                     "--alpha", "1.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "alpha" in err

    def test_other_exception_exits_three(self, diff_csv, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli, "run_test", broken)
        assert main(["test", "--input", str(diff_csv), "--tau", "0", "--gamma", "1"]) == 3
        assert capsys.readouterr() == ("", "internal error: invariant broken\n")

    @pytest.mark.parametrize("argv, code", [
        (["changepoint", "--method", "studentized"], 2),
        (["test", "--gamma", "1", "--method", "studentized"], 2),
        (["test", "--gamma", "1", "--method", "studentized", "--exact-below", "3"], 2),
        (["test", "--gamma", "1", "--method", "perm-t"], 0),
    ], ids=["changepoint", "test", "test-monte-carlo", "test-perm-t"])
    def test_overflowing_squares_exit_two(self, tmp_path, capsys, argv, code):
        # |y - tau|**2 overflows at tau 0, though the standard error, from
        # deviations of about 1e150, does not; perm-t reads no squares
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{1e160 + 1e150 * k!r}\n" for k in (1, -1, 1, -1, 2, 3, -2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--input", str(path), "--tau", "0"]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and "rescale the differences" in err
        else:
            assert err == ""
            assert json.loads(out)["p_value_upper"] == 1 / 128

    @pytest.mark.parametrize("argv, code", [
        (["changepoint", "--method", "studentized"], 2),
        (["test", "--gamma", "2", "--method", "combined"], 2),
        (["test", "--gamma", "1", "--method", "studentized"], 0),
        (["test", "--gamma", "2", "--method", "perm-t"], 0),
    ], ids=["changepoint", "test-gamma-2", "test-gamma-1", "test-perm-t"])
    def test_squares_overflowing_above_gamma_one_exit_two(self, tmp_path, capsys, argv, code):
        # sum(|y - tau|**2) is finite at tau 0, but not (1 + |c|)**2 times it,
        # which bounds every draw's sum of squares, once gamma passes about 1.6
        y = 4.1e153 * (1 + 1e-3 * np.array([1, -1, 2, 3, -2, 1.5, 2.5]))
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--input", str(path), "--tau", "0"]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and "rescale the differences" in err
        else:
            assert err == "" and json.loads(out)["reject"] is not None

    @pytest.mark.parametrize("engine, expected", [
        ([], '"p_value_upper": 0.6584362139917694, "p_value_upper_conservative": null, '
             '"reject": false, "degenerate": false, '
             '"engine": {"mode": "exact", "draws": "exact", "seed": 0}}\n'),
        (["--exact-below", "0", "--reps", "200"],
         '"p_value_upper": 0.7, "p_value_upper_conservative": 0.7014925373134329, '
         '"reject": false, "degenerate": false, '
         '"engine": {"mode": "monte_carlo", "draws": 200, "seed": 0}}\n'),
    ], ids=["exact", "monte-carlo"])
    def test_means_overflowing_print_no_warning(self, tmp_path, capsys, engine, expected):
        # sum(|y - tau|) is finite but (1 + |c|) times it is not: the lowest
        # draw's mean is -inf, an atom like any other.  The line is the one
        # printed before the warning was silenced
        path = tmp_path / "y.csv"
        path.write_text("3e307\n-3e307\n4.5e307\n1.5e307\n-3e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--input", str(path), "--tau", "0", "--gamma", "2",
                         "--method", "perm-t", *engine]) == 0
        head = ('{"method": "perm_t", "gamma": 2.0, "tau": 0.0, "alpha": 0.05, '
                '"alternative": "greater", "statistic": -3.999999999999998e+306, '
                '"critical_value": 2e+307, ')
        assert capsys.readouterr() == (head + expected, "")

    @pytest.mark.parametrize("engine", [[], ["--exact-below", "0", "--reps", "200"]],
                             ids=["exact", "monte-carlo"])
    def test_interval_sums_overflowing_print_no_warning(self, tmp_path, capsys, engine):
        # the same data in a search: the exact decision's doubling chain
        # overflows, and an inf sum minus an inf shift is NaN.  The line is
        # the one printed before the warnings were silenced
        path = tmp_path / "y.csv"
        path.write_text("3e307\n-3e307\n4.5e307\n1.5e307\n-3e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["interval", "--input", str(path), "--gamma", "2",
                         "--method", "perm-t", *engine]) == 0
        assert capsys.readouterr() == (
            '{"method": "perm_t", "confidence": 0.9, "seed": 0, "intervals": [{"gamma": 2.0, '
            '"lower": -Infinity, "upper": Infinity, "non_monotone": false}]}\n', "")

    @pytest.mark.parametrize("engine", [[], ["--exact-below", "0", "--reps", "200"]],
                             ids=["exact", "monte-carlo"])
    def test_sums_overflowing_at_tau_exit_two_on_scale(self, tmp_path, capsys, engine):
        # at tau 1e308 sum(|y - tau|) overflows, so a draw's mean can be an
        # inf sum less an inf shift, NaN: test refuses the input by its scale,
        # without a warning, and changepoint prints the line it printed before
        path = tmp_path / "y.csv"
        path.write_text("3e307\n-3e307\n4.5e307\n1.5e307\n-3e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--input", str(path), "--tau=1e308", "--gamma", "2",
                         "--method", "perm-t", *engine]) == 2
            assert capsys.readouterr() == ("", "error: the signed sums of |y - tau| overflow "
                                               f"double precision; {RESCALE}\n")
            assert main(["changepoint", "--input", str(path), "--tau=1e308",
                         "--method", "perm-t", *engine]) == 0
        draws = engine[-1] if engine else "10000"
        assert capsys.readouterr() == (
            '{"method": "perm_t", "tau": 1e+308, "alpha": 0.05, "alternative": "greater", '
            '"gamma_changepoint": 1.0, "bracket": [1.0, 1.0], "tolerance": 0.001, '
            '"rejects_at_gamma_one": false, "exceeded_gamma_max": false, "monotone": true, '
            '"inversions": [], "n_evaluations": 1, '
            f'"engine": {{"mode": "auto", "draws": {draws}, "seed": 0}}}}\n', "")

    @pytest.mark.parametrize("engine", [[], ["--exact-below", "0", "--reps", "200"]],
                             ids=["exact", "monte-carlo"])
    def test_overflowing_residual_exits_two_in_test(self, tmp_path, capsys, engine):
        # at tau -1.5e308 some y - tau overflows to inf: test refuses every
        # method by the scale, neyman among them, which printed NaN, and
        # changepoint prints the lines and exits as it did, all without a
        # warning
        path = tmp_path / "y.csv"
        path.write_text("3e307\n-3e307\n4.5e307\n1.5e307\n-3e307\n")
        args = ["--input", str(path), "--tau=-1.5e308", *engine]
        draws = engine[-1] if engine else "10000"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("perm-t", "studentized", "neyman", "combined"):
                assert main(["test", *args, "--gamma", "2", "--method", method]) == 2
                assert capsys.readouterr() == (
                    "", f"error: y - tau overflows double precision; {RESCALE}\n")
            for method, code in (("perm-t", 0), ("studentized", 2), ("neyman", 0),
                                 ("combined", 2)):
                assert main(["changepoint", *args, "--method", method]) == code
                out, err = capsys.readouterr()
                if code == 2:
                    assert out == "" and err == ("error: the squares of |y - tau| overflow "
                                                 f"double precision; {RESCALE}\n")
                    continue
                assert (out, err) == (
                    f'{{"method": "{method.replace("-", "_")}", "tau": -1.5e+308, '
                    '"alpha": 0.05, "alternative": "greater", "gamma_changepoint": 1.0, '
                    '"bracket": [1.0, 1.0], "tolerance": 0.001, "rejects_at_gamma_one": false, '
                    '"exceeded_gamma_max": false, "monotone": true, "inversions": [], '
                    '"n_evaluations": 1, '
                    f'"engine": {{"mode": "auto", "draws": {draws}, "seed": 0}}}}\n', "")

    @pytest.mark.parametrize("engine", [[], ["--pairs", "24", "--mc-draws", "200"]],
                             ids=["exact", "monte-carlo"])
    def test_simulate_overflowing_correction_exits_two(self, capsys, engine):
        # at tau 1.7e308 every y - tau is finite, but y - tau - c |y - tau|
        # overflows once gamma > 1: the standard error is refused by its
        # scale, without the two warnings it printed before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--scenario", "counterexample", "--pairs", "10",
                         "--tau=1.7e308", "--gamma", "2", "--reps", "2", *engine]) == 2
        assert capsys.readouterr() == ("", f"error: {SE_OVERFLOWS}\n")
        assert SE_OVERFLOWS.endswith(RESCALE)

    @pytest.mark.parametrize("argv", [
        ["test", "--input", "{y}", "--tau", "0", "--gamma", "1"],
        ["changepoint", "--input", "{y}", "--tau", "0"],
        ["interval", "--input", "{y}", "--gamma", "1"],
        ["simulate", "--scenario", "counterexample", "--pairs", "4", "--tau", "2.5",
         "--gamma", "4", "--reps", "5"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_exits_two(self, tmp_path, capsys, argv, seed):
        # an exact engine never reads the seed, yet the flag is refused alike
        path = tmp_path / "y.csv"
        path.write_text("1\n2\n3\n-1\n4\n5\n2\n1\n")
        with pytest.raises(SystemExit) as exit_:
            main([arg.replace("{y}", str(path)) for arg in argv] + ["--seed", seed])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err


def _outcome(argv):
    """Exit code, stdout and stderr of one in-process call, argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneSubcommandParser:
    """``main`` builds only the parser of the subcommand it is given; every
    call prints and exits as with a parser that has every subcommand."""

    ARGVS = [
        [], ["-h"], ["--help"], ["tset"], ["--", "test"], ["-x"], ["test", "extra"],
        *([name] for name in cli._COMMANDS),
        *([name, "-h"] for name in cli._COMMANDS),
        *([name, "--bogus"] for name in cli._COMMANDS),
        ["test", "--input"], ["test", "--input", "missing.csv", "--tau", "0", "--gamma", "x"],
        ["test", "--input", "missing.csv", "--tau", "0", "--gamma", "2"],
        ["changepoint", "--input", "missing.csv", "--tau", "0", "--method", "t"],
        ["interval", "--input", "missing.csv", "--gamma", "1", "--format", "xml"],
        ["design-sensitivity", "--tau", "0", "--mean", "1", "--abs-moment", "2"],
        ["design-sensitivity", "--tau", "0", "--mean", "1"],
        ["simulate", "--scenario", "counterexample", "--tau", "2.5", "--gamma", "2",
         "--seed", "-1"],
        ["simulate", "--scenario", "nowhere", "--pairs", "4", "--tau", "0", "--gamma", "2"],
        ["design-sensitivity", "--tau", "0", "--mean", "1", "--abs-moment", "2", "x"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_prints_and_exits_as_the_whole_parser(self, monkeypatch, argv):
        got = _outcome(argv)
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())
        assert got == _outcome(argv)

    def test_builds_the_invoked_subcommand_only(self):
        for name in cli._COMMANDS:
            (action,) = cli.build_parser(name)._subparsers._group_actions
            assert list(action.choices) == [name]
        for command in (None, "tset", "-h"):
            (action,) = cli.build_parser(command)._subparsers._group_actions
            assert list(action.choices) == list(cli._COMMANDS)
