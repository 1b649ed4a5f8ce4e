"""Experiment-runner tests: scenario parsing, CSV output, exit codes."""

import csv
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specsense
from specsense import simkit
from specsense.cli import (
    CSV_HEADER,
    ScenarioFile,
    analytic_columns,
    build_config,
    figure_setups,
    main,
    parse_scenario,
)
from specsense.fusion import gains_coop
from specsense.reconfig import diversity_reconfig
from specsense.simkit import _MAX_TRIALS


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
        ScenarioFile(trials=_MAX_TRIALS)
        with pytest.raises(ValueError, match=r"trials must be in \[1000, 100000000\]"):
            ScenarioFile(trials=_MAX_TRIALS + 1)
        with pytest.raises(ValueError):
            ScenarioFile(snr_stop_db=math.inf)
        with pytest.raises(ValueError):
            ScenarioFile(snr_step_db=math.nan)

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("schema = 1\nm = 10\nm = 100\n")
        with pytest.raises(ValueError, match=r"s\.txt:3: repeated scenario key 'm'"):
            parse_scenario(str(p))

    @pytest.mark.parametrize("start, stop, step, grid", [
        (-20.0, 20.0, 7.0, [-20.0, -13.0, -6.0, 1.0, 8.0, 15.0]),
        (0.0, 1.0, 0.6, [0.0, 0.6]),
        (-20.0, 20.0, 0.5, [-20.0 + 0.5 * i for i in range(81)]),
    ], ids=["step-7", "step-0.6", "step-0.5"])
    def test_grid_stops_at_or_before_the_stop(self, start, stop, step, grid):
        sc = ScenarioFile(snr_start_db=start, snr_stop_db=stop, snr_step_db=step)
        assert sc.snr_grid_db == grid

    def test_default_grid(self):
        assert ScenarioFile().snr_grid_db == [float(x) for x in range(-20, 21)]

    # Only the constructor runs here: none of these builds its grid.
    def test_grid_point_count_is_capped(self):
        ScenarioFile(snr_start_db=0.0, snr_stop_db=99_999.0)  # 10^5 points
        with pytest.raises(ValueError):
            ScenarioFile(snr_start_db=0.0, snr_stop_db=100_000.0)
        with pytest.raises(ValueError):
            ScenarioFile(snr_step_db=1e-300)

    def test_scenario_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ScenarioFile().trials = 10

    def test_readme_lists_exactly_the_scenario_keys(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("Scenario files are flat", 1)[1].split("```")[1]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == [f.name for f in dataclasses.fields(ScenarioFile)]


class TestExitCodes:
    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["sweep"]) == 2

    def test_parse_error_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("schema = 1\nscheme = warp\n")
        assert main(["sweep", "--scenario", str(p)]) == 2

    def test_missing_file_is_config_error(self, capsys):
        assert main(["calibrate", "--scenario", "/nonexistent/path.txt"]) == 2

    # Flags pass the scenario's own validation, and writing the CSV is inside
    # the same error map as parsing.
    @pytest.mark.parametrize("flags, keys", [
        (["--out", "{tmp}/missing/o.csv"], {}),
        (["--trials", "10", "--mode", "analytic"], {}),
        ([], {"snr_stop_db": "inf"}),
        ([], {"mode": "fast"}),
        ([], {"snr_stop_db": -10}),
    ], ids=["unwritable-out", "trials-flag-below-floor", "infinite-grid-bound",
            "mode-outside-choices", "stop-below-start"])
    def test_bad_flag_or_value_is_config_error(self, tmp_path, capsys, flags, keys):
        path = write_scenario(tmp_path / "s.txt", **keys)
        out = tmp_path / "o.csv"
        argv = ["sweep", "--scenario", path, "--out", str(out)]
        assert main(argv + [f.format(tmp=tmp_path) for f in flags]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()

    # A missing bound would have each point plan ~1.5e10 blocks; the spy
    # fails the test at the first plan instead.
    @pytest.mark.parametrize("flags, keys", [
        (["--trials", str(10 ** 15)], {}),
        ([], {"trials": 10 ** 15}),
    ], ids=["flag", "scenario-key"])
    def test_trials_above_the_escalation_cap_is_config_error(
            self, tmp_path, monkeypatch, capsys, flags, keys):
        def refuse(total):
            raise AssertionError(f"planned {total} trials")

        monkeypatch.setattr(simkit, "_block_plan", refuse)
        path = write_scenario(tmp_path / "s.txt", **keys)
        assert main(["sweep", "--scenario", path,
                     "--out", str(tmp_path / "o.csv")] + flags) == 2
        assert "trials must be in [1000, 100000000]" in capsys.readouterr().err

    # Before the check, calibrate printed the threshold and its P_F, then
    # numpy rejected the seed.
    @pytest.mark.parametrize("flags, keys", [
        (["--seed", "-5"], {}),
        ([], {"seed": -5}),
    ], ids=["flag", "scenario-key"])
    def test_negative_seed_is_config_error_before_any_output(
            self, tmp_path, capsys, flags, keys):
        path = write_scenario(tmp_path / "s.txt", **keys)
        assert main(["calibrate", "--scenario", path] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error: seed must be >= 0, got -5" in err

    # The grid is -4, -2, 0 dB.  Without the check, slope ran its whole
    # escalating sweep before the fit found too few points.
    @pytest.mark.parametrize("lo, hi", [(30, 10), (-2, 0)], ids=["reversed", "two-points"])
    def test_slope_window_short_of_three_points_is_config_error(
            self, tmp_path, monkeypatch, capsys, lo, hi):
        from specsense import cli

        def refuse(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(cli, "sweep", refuse)
        path = write_scenario(tmp_path / "s.txt", window_lo_db=lo, window_hi_db=hi)
        assert main(["slope", "--scenario", path]) == 2
        assert "must hold at least 3 grid points" in capsys.readouterr().err

    # calibrate builds no grid, so a missing check fails here without a
    # 4e301-point list.
    @pytest.mark.parametrize("text", ["schema = 1\nm = 10\nm = 100\n",
                                      "schema = 1\nsnr_step_db = 1e-300\n",
                                      "schema = 1\nm 10\n"],
                             ids=["repeated-key", "grid-too-fine", "line-without-equals"])
    def test_rejected_scenario_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "s.txt"
        p.write_text(text)
        assert main(["calibrate", "--scenario", str(p)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        from specsense import cli
        from specsense.specfun import ConvergenceError

        def boom(sc):
            raise ConvergenceError("forced divergence")

        monkeypatch.setattr(cli, "cmd_sweep", boom)
        path = write_scenario(tmp_path / "s.txt")
        assert main(["sweep", "--scenario", path]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_failed_calibration_smoke_check_exits_three(self, tmp_path, monkeypatch, capsys):
        from specsense import cli

        def far_from_alpha(config, hypothesis, trials, seed):
            return simkit.McEstimate(0.5, trials, 0.001)

        monkeypatch.setattr(cli, "estimate_point", far_from_alpha)
        path = write_scenario(tmp_path / "s.txt")
        assert main(["calibrate", "--scenario", path]) == 3
        assert "calibration smoke check FAILED" in capsys.readouterr().err

    def test_switching_overflow_exits_three(self, tmp_path, capsys):
        # For M = 1000 the switching asymptote leaves the double range, and
        # avg_pmd_switching raises ConvergenceError.
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

    @pytest.mark.parametrize("scheme", ["switching", "selection"])
    def test_reconfig_sizes_show_q(self, tmp_path, capsys, scheme):
        path = write_scenario(tmp_path / "s.txt", scheme=scheme, q=10, m=100)
        assert main(["calibrate", "--scenario", path]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"scheme={scheme} Q=10 M=100 alpha=0.05"


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.txt")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with out1.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 1 + 3  # header + 3 grid points

    def test_analytic_columns_recomputable(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", mode="analytic")
        out = tmp_path / "a.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        sc = parse_scenario(path)
        config = build_config(sc)
        for row in rows:
            want_pf, want_pmd = analytic_columns(config, float(row["snr_db"]))
            assert float(row["pf_analytic"]) == pytest.approx(want_pf, rel=1e-9)
            assert float(row["pmd_analytic"]) == pytest.approx(want_pmd, rel=1e-9)
            assert row["pmd_mc"] == ""  # analytic mode leaves MC columns empty

    def test_exact_miss_that_rounds_above_one_reads_one(self, tmp_path, capsys):
        # The fading quadrature gives 1 + 3.7e-12 here; unclamped, the OR
        # rule's binomial tail rejected it as a probability and the run exited 2.
        path = write_scenario(tmp_path / "s.txt", scheme="coop", n_users=1, n_vote=1,
                              m=8090, alpha=2.145e-12, snr_start_db=-37.7,
                              snr_stop_db=-37.7, mode="analytic")
        out = tmp_path / "a.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
        with out.open() as fh:
            (row,) = csv.DictReader(fh)
        assert 0.999 < float(row["pmd_analytic"]) <= 1.0

    def test_mc_mode_skips_analytic_columns(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", mode="mc")
        out = tmp_path / "a.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["pmd_analytic"] == "" for r in rows)
        assert all(r["pmd_mc"] != "" for r in rows)


class TestFigureCommand:
    def test_fig1_has_six_curves(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "--which", "fig1", "--trials", "2000",
                     "--out", str(out), "--seed", "3"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"noncoop-nm4", "coop-nm4", "noncoop-nm25",
                           "coop-nm25", "noncoop-nm100", "coop-nm100"}

    def test_fig2_has_four_curves(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "--which", "fig2", "--trials", "2000",
                     "--out", str(out), "--seed", "3"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["scheme"] for r in rows} == {"noncoop", "coop", "switching",
                                               "selection"}

    def test_fig3_includes_reduced_budgets(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "--which", "fig3", "--trials", "2000",
                     "--out", str(out), "--seed", "3"]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        schemes = {r["scheme"] for r in rows}
        assert {"selection-m35", "selection-m33", "noncoop", "coop"} == schemes

    # The analytic CSV bytes on the default grid: a change of quadrature may
    # move a value's last bits, never the ten digits the CSV prints.
    @pytest.mark.parametrize("which, digest", [
        ("fig1", "67d0fd16aa6d0219ee503cc764bab7a417740ce6ef775dc53de6424d51cde898"),
        ("fig2", "3b8242e87ff635c198aca6a6121b7e2a4f7c46f614fcf11ea3a406f0c757115a"),
        ("fig3", "570eae700e105a8b37b4c65bb6821c74bb3147ae7578a17d4eb00ef9aa3b01ec"),
    ], ids=["fig1", "fig2", "fig3"])
    def test_analytic_csv_bytes(self, tmp_path, capsys, which, digest):
        out = tmp_path / f"{which}.csv"
        assert main(["figure", "--which", which, "--mode", "analytic", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The Monte Carlo CSV bytes at the default seed: every change of the
    # engine that keeps its bits keeps these, whatever it does to scheduling.
    @pytest.mark.parametrize("which, digest, size", [
        ("fig1", "5389c66e9c5552fd432e6ee08280ac304516712c1fa4f8b77d9341abc26a457a", 21059),
        ("fig2", "c4148487e687bdb4c75f108dec00e3afe6005d01a66506b443085b7f005a67b2", 12395),
        ("fig3", "9c85a1902c5d00f215e770d0fc6eb53e83108fb756dbf00637fda03c84ff1426", 13211),
    ], ids=["fig1", "fig2", "fig3"])
    def test_monte_carlo_csv_bytes(self, tmp_path, capsys, which, digest, size):
        out = tmp_path / f"{which}.csv"
        assert main(["figure", "--which", which, "--mode", "both", "--trials", "20000",
                     "--out", str(out)]) == 0
        data = out.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)

    def test_figure_setups_alphas(self):
        assert all(sc.alpha == 0.01 for _, sc in figure_setups("fig1"))
        assert all(sc.alpha == 0.05 for _, sc in figure_setups("fig2"))
        assert figure_setups("fig1", alpha=0.2)[0][1].alpha == 0.2

    def test_unknown_figure_is_rejected(self):
        # The CLI's --which choices keep this from main; the library call checks too.
        with pytest.raises(ValueError, match="unknown figure 'fig4'"):
            figure_setups("fig4")

    # The analytic order that ``specsense slope`` prints beside its fit.
    @pytest.mark.parametrize("label, order", [
        ("noncoop", lambda p: 1.0),
        ("coop", lambda p: gains_coop(p).diversity),
        ("switching", lambda p: diversity_reconfig(p.m, p.q).diversity),
        ("selection", lambda p: diversity_reconfig(p.m, p.q).diversity),
    ], ids=["noncoop", "coop", "switching", "selection"])
    def test_fig2_scheme_diversity_is_the_analytic_order(self, label, order):
        config = build_config(dict(figure_setups("fig2"))[label])
        assert config.scheme.diversity(config.payload) == order(config.payload)


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


def _child_env() -> dict:
    """Environment in which a child imports the same specsense as this process."""
    package_root = str(Path(specsense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


class TestConsoleEntry:
    def test_import_leaves_out_scipy_integrate_and_optimize(self):
        # scipy.integrate alone once took about half of the import time.
        code = ("import sys, specsense, specsense.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_starts_no_thread(self):
        # The block pool is built at import; an executor starts its threads
        # at its first submit.
        code = ("import threading, specsense, specsense.cli; "
                "print(threading.active_count())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_module_invocation(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", mode="analytic",
                              snr_stop_db=-4)
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "specsense.cli", "sweep", "--scenario",
             path, "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
