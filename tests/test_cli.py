"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.slow


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "cpm"
        assert args.budget == 0.8
        assert args.cores == 8

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "magic"])


class TestRunCommand:
    def test_run_and_export(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--scheme", "none",
                "--intervals", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean chip power" in out
        summary = json.loads((tmp_path / "no-management.json").read_text())
        assert summary["n_intervals"] == 20

    def test_run_cpm_policy_selection(self, capsys):
        code = main(
            ["run", "--scheme", "cpm", "--policy", "uniform", "--intervals", "3"]
        )
        assert code == 0
        assert "cpm" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_prints_all_schemes(self, capsys):
        code = main(["compare", "--intervals", "3", "--budget", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("no-management", "cpm", "maxbips", "static-uniform"):
            assert name in out


class TestCalibrateCommand:
    def test_calibrate_prints_gains(self, capsys):
        code = main(["calibrate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "system gain a" in out
        assert "holdout" in out


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        code = main(["experiment", "fig06_power_utilization", "--quick"])
        assert code == 0
        assert "fig06" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "fig99_nonsense"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestNumericValidation:
    """Bad numeric options exit 2 with a usage message, no traceback."""

    @staticmethod
    def assert_usage_error(argv, capsys, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert fragment in err
        assert "Traceback" not in err

    def test_budget_above_one(self, capsys):
        self.assert_usage_error(["run", "--budget", "1.5"], capsys, "(0, 1]")

    def test_zero_intervals(self, capsys):
        self.assert_usage_error(["run", "--intervals", "0"], capsys, "at least 1")

    def test_islands_must_divide_cores(self, capsys):
        self.assert_usage_error(
            ["run", "--cores", "8", "--islands", "3"], capsys, "must divide"
        )

    def test_zero_budget_step(self, capsys):
        self.assert_usage_error(
            ["sweep", "--budgets", "0.8:0.9:0"], capsys, "step must be positive"
        )

    def test_negative_jobs(self, capsys):
        self.assert_usage_error(["sweep", "--jobs", "-3"], capsys, "non-negative")

    def test_valid_values_still_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--budgets", "0.8:0.9:0.05", "--jobs", "all", "--intervals", "2"]
        )
        assert args.budgets == [0.8, 0.85, 0.9]
        assert args.jobs is None
        assert args.intervals == 2
