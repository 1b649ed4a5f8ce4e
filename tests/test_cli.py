"""Experiment-runner tests: scenario parsing, CSV output, exit codes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specsense
from specsense.cli import (
    CSV_HEADER,
    ScenarioFile,
    analytic_columns,
    build_config,
    figure_setups,
    main,
    parse_scenario,
)


def write_scenario(path, **overrides):
    base = {
        "schema": 1, "scheme": "noncoop", "m": 10, "alpha": 0.05,
        "snr_start_db": -4, "snr_stop_db": 0, "snr_step_db": 2,
        "trials": 2000, "seed": 11, "mode": "both",
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


class TestScenarioParsing:
    def test_round_trip(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", scheme="coop", n_users=10,
                              n_vote=1)
        sc = parse_scenario(path)
        assert sc.scheme == "coop" and sc.n_users == 10 and sc.trials == 2000
        assert sc.snr_grid_db == [-4.0, -2.0, 0.0]

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# comment\nschema = 1\n\nscheme = selection  # inline\n"
                     "q = 10\nm = 100\n")
        sc = parse_scenario(str(p))
        assert sc.scheme == "selection" and sc.q == 10

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("schema = 1\nbogus = 3\n")
        with pytest.raises(ValueError):
            parse_scenario(str(p))

    def test_missing_schema_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("scheme = noncoop\n")
        with pytest.raises(ValueError):
            parse_scenario(str(p))

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ScenarioFile(schema=2)
        with pytest.raises(ValueError):
            ScenarioFile(alpha=1.5)
        with pytest.raises(ValueError):
            ScenarioFile(snr_step_db=0.0)
        with pytest.raises(ValueError):
            ScenarioFile(trials=10)


class TestExitCodes:
    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["sweep"]) == 2

    def test_parse_error_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("schema = 1\nscheme = warp\n")
        assert main(["sweep", "--scenario", str(p)]) == 2

    def test_missing_file_is_config_error(self, capsys):
        assert main(["calibrate", "--scenario", "/nonexistent/path.txt"]) == 2

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        from specsense import cli
        from specsense.specfun import ConvergenceError

        def boom(sc):
            raise ConvergenceError("forced divergence")

        monkeypatch.setattr(cli, "cmd_sweep", boom)
        path = write_scenario(tmp_path / "s.txt")
        assert main(["sweep", "--scenario", path]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_switching_overflow_exits_three(self, tmp_path, capsys):
        # avg_pmd_switching overflows math.exp for M = 1000.
        path = write_scenario(tmp_path / "s.txt", scheme="switching", m=1000,
                              q=10, mode="analytic")
        assert main(["sweep", "--scenario", path,
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_single_sample_threshold(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.txt", m=1)
        assert main(["calibrate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        lam = float(out.split("lambda=")[1].split()[0])
        assert lam == pytest.approx(-2.0 * math.log(0.05), rel=1e-9)

    def test_coop_or_rule_local_pf(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.txt", scheme="coop", n_users=10,
                              n_vote=1, m=10)
        assert main(["calibrate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        local_pf = float(out.split("local_pf=")[1].split()[0])
        assert local_pf == pytest.approx(0.0051162, abs=1e-7)

    def test_m100_against_bisection_oracle(self, tmp_path, capsys):
        from scipy import special
        path = write_scenario(tmp_path / "s.txt", m=100)
        assert main(["calibrate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        lam = float(out.split("lambda=")[1].split()[0])
        assert lam == pytest.approx(2.0 * float(special.gammainccinv(100, 0.05)),
                                    rel=1e-9)


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.txt")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.reader(out1.open()))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 1 + 3  # header + 3 grid points

    def test_analytic_columns_recomputable(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", mode="analytic")
        out = tmp_path / "a.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        sc = parse_scenario(path)
        config = build_config(sc)
        for row in rows:
            want_pf, want_pmd = analytic_columns(config, float(row["snr_db"]))
            assert float(row["pf_analytic"]) == pytest.approx(want_pf, rel=1e-9)
            assert float(row["pmd_analytic"]) == pytest.approx(want_pmd, rel=1e-9)
            assert row["pmd_mc"] == ""  # analytic mode leaves MC columns empty

    def test_mc_mode_skips_analytic_columns(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", mode="mc")
        out = tmp_path / "a.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert all(r["pmd_analytic"] == "" for r in rows)
        assert all(r["pmd_mc"] != "" for r in rows)


class TestFigureCommand:
    def test_fig1_has_six_curves(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "--which", "fig1", "--trials", "2000",
                     "--out", str(out), "--seed", "3"]) == 0
        rows = list(csv.DictReader(out.open()))
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"noncoop-nm4", "coop-nm4", "noncoop-nm25",
                           "coop-nm25", "noncoop-nm100", "coop-nm100"}

    def test_fig2_has_four_curves(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--which", "fig2", "--trials", "2000",
                     "--out", str(out), "--seed", "3"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert {r["scheme"] for r in rows} == {"noncoop", "coop", "switching",
                                               "selection"}

    def test_fig3_includes_reduced_budgets(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "--which", "fig3", "--trials", "2000",
                     "--out", str(out), "--seed", "3"]) == 0
        rows = list(csv.DictReader(out.open()))
        schemes = {r["scheme"] for r in rows}
        assert {"selection-m35", "selection-m33", "noncoop", "coop"} == schemes

    def test_figure_setups_alphas(self):
        assert all(sc.alpha == 0.01 for _, sc in figure_setups("fig1"))
        assert all(sc.alpha == 0.05 for _, sc in figure_setups("fig2"))
        assert figure_setups("fig1", alpha=0.2)[0][1].alpha == 0.2


class TestSlopeCommand:
    def test_noncoop_slope_report(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.txt", snr_start_db=25,
                              snr_stop_db=40, snr_step_db=5, trials=100000)
        assert main(["slope", "--scenario", path]) == 0
        out = capsys.readouterr().out
        fitted = float(out.split("fitted_slope=")[1].split()[0])
        analytic = float(out.split("analytic_diversity=")[1].split()[0])
        assert analytic == 1.0
        assert fitted == pytest.approx(1.0, abs=0.12)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", mode="analytic",
                              snr_stop_db=-4)
        out = tmp_path / "cli.csv"
        # The child imports the same specsense as this process, installed or not.
        package_root = str(Path(specsense.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "specsense.cli", "sweep", "--scenario",
             path, "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
