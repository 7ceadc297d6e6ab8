import json
import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats


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

    @pytest.mark.parametrize("gamma_max", ["nan", "inf", "1"])
    @pytest.mark.parametrize("y", [[1, -1, 1, -1], list(range(1, 9))])
    def test_bad_gamma_max_exits_two(self, tmp_path, y, gamma_max):
        # the first sample does not reject at gamma 1, the second does
        path = tmp_path / "y.csv"
        path.write_text("".join(f"{v}\n" for v in y))
        proc = run_cli("changepoint", "--input", path, "--tau", 0, "--gamma-max", gamma_max)
        assert proc.returncode == 2
        assert "gamma_max" in proc.stderr


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
