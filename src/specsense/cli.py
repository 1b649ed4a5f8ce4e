"""Experiment runner: scenario files in, calibration reports and CSV out.

Subcommands
-----------
calibrate   print the NP threshold for a scenario and smoke-check it by MC
figure      reproduce one of the three reference experiments as CSV
sweep       run one scenario's SNR sweep to CSV
slope       fit the high-SNR diversity slope of a scenario and compare with
            the analytic order

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Scenario files are flat ``key = value`` text with a mandatory ``schema = 1``
line; see the README for the full key list.  CSV columns are
``scheme,snr_db,pf_analytic,pmd_analytic,pf_mc,pf_ci,pmd_mc,pmd_ci,trials,seed``
and output is byte-identical for identical scenario + seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import AvgSnr
from .detector import avg_pd_numeric, calibrate_lambda, pf_single
from .fusion import calibrate_local_lambda_global, global_pf, global_pmd
from .reconfig import avg_pmd_selection, avg_pmd_switching, reduced_samples
from .simkit import SchemeConfig, estimate_point, fit_diversity_slope, sweep
from .specfun import ConvergenceError

_SCHEMES = ("noncoop", "coop", "switching", "selection")
_MODES = ("analytic", "mc", "both")
CSV_HEADER = ("scheme", "snr_db", "pf_analytic", "pmd_analytic",
              "pf_mc", "pf_ci", "pmd_mc", "pmd_ci", "trials", "seed")


@dataclass
class ScenarioFile:
    """Parsed flat key-value scenario description."""

    schema: int = 1
    scheme: str = "noncoop"
    n_users: int = 1
    n_vote: int = 1
    m: int = 10
    q: int = 1
    alpha: float = 0.05
    snr_start_db: float = -20.0
    snr_stop_db: float = 20.0
    snr_step_db: float = 1.0
    trials: int = 10_000
    seed: int = 1
    mode: str = "both"
    out: str | None = None
    window_lo_db: float | None = None
    window_hi_db: float | None = None

    def __post_init__(self):
        if self.schema != 1:
            raise ValueError(f"unsupported scenario schema {self.schema!r}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.snr_step_db <= 0.0:
            raise ValueError("snr_step_db must be > 0")
        if self.snr_stop_db < self.snr_start_db:
            raise ValueError("snr_stop_db must be >= snr_start_db")
        if self.trials < 1000:
            raise ValueError("trials must be >= 1000")

    @property
    def snr_grid_db(self) -> list[float]:
        n = int(round((self.snr_stop_db - self.snr_start_db) / self.snr_step_db))
        return [self.snr_start_db + i * self.snr_step_db for i in range(n + 1)]


_INT_KEYS = {"schema", "n_users", "n_vote", "m", "q", "trials", "seed"}
_FLOAT_KEYS = {"alpha", "snr_start_db", "snr_stop_db", "snr_step_db",
               "window_lo_db", "window_hi_db"}
_STR_KEYS = {"scheme", "mode", "out"}


def parse_scenario(path: str) -> ScenarioFile:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ValueError(f"{path}:{lineno}: unknown scenario key {key!r}")
    if "schema" not in values:
        raise ValueError(f"{path}: missing mandatory 'schema' key")
    return ScenarioFile(**values)


def build_config(sc: ScenarioFile, snr_db: float = 0.0) -> SchemeConfig:
    """Calibrated SchemeConfig for a scenario (threshold set from alpha)."""
    avg = AvgSnr.from_db(snr_db)
    if sc.scheme == "noncoop":
        return SchemeConfig.noncoop(sc.m, calibrate_lambda(sc.m, sc.alpha), avg,
                                    alpha=sc.alpha)
    if sc.scheme == "coop":
        lam = calibrate_local_lambda_global(sc.n_users, sc.n_vote, sc.m, sc.alpha)
        return SchemeConfig.coop(sc.n_users, sc.n_vote, sc.m, lam, avg, alpha=sc.alpha)
    lam = calibrate_lambda(sc.m, sc.alpha)
    if sc.scheme == "switching":
        return SchemeConfig.switching(sc.q, sc.m, lam, avg)
    return SchemeConfig.selection(sc.q, sc.m, lam, avg)


def analytic_columns(config: SchemeConfig, snr_db: float) -> tuple[float, float]:
    """(pf, pmd) analytic columns for one scheme at one average SNR.

    The switching column is the averaged small-CDF asymptote (its absolute
    level is only meaningful at high SNR and is clamped into [0, 1]); all
    other schemes are exact quadrature values.
    """
    avg = AvgSnr.from_db(snr_db)
    p = config.payload
    if config.variant == "noncoop":
        return pf_single(p.m, p.lam), 1.0 - avg_pd_numeric(p.m, p.lam, avg)
    if config.variant == "coop":
        return global_pf(p), global_pmd(p, avg)
    if config.variant == "reconfig-switching":
        pmd = min(1.0, avg_pmd_switching(p, avg, method="quadrature"))
        return pf_single(p.m, p.lam), pmd
    return pf_single(p.m, p.lam), avg_pmd_selection(p.m, p.lam, avg, p.q)


def figure_setups(which: str, alpha: float | None = None):
    """(label, scenario-template) list for each reference experiment.

    fig1: matched total sample budget NM in {4, 25, 100}; a single user
          sensing NM samples against sqrt(NM) users with sqrt(NM) samples
          each under the OR rule, at global false-alarm level 0.01.
    fig2: total budget 100 at level 0.05; single user (M=100), cooperative
          (N=10, M=10, OR), state switching and state selection (Q=10, M=100).
    fig3: the fig2 benchmarks plus state selection at the reduced budgets
          M' = 35 (implemented rule) and M' = 33 (reference operating point).
    """
    if which == "fig1":
        a = 0.01 if alpha is None else alpha
        setups = []
        for nm in (4, 25, 100):
            root = int(math.isqrt(nm))
            setups.append((f"noncoop-nm{nm}",
                           ScenarioFile(scheme="noncoop", m=nm, alpha=a)))
            setups.append((f"coop-nm{nm}",
                           ScenarioFile(scheme="coop", n_users=root, n_vote=1,
                                        m=root, alpha=a)))
        return setups
    a = 0.05 if alpha is None else alpha
    if which == "fig2":
        return [
            ("noncoop", ScenarioFile(scheme="noncoop", m=100, alpha=a)),
            ("coop", ScenarioFile(scheme="coop", n_users=10, n_vote=1, m=10, alpha=a)),
            ("switching", ScenarioFile(scheme="switching", q=10, m=100, alpha=a)),
            ("selection", ScenarioFile(scheme="selection", q=10, m=100, alpha=a)),
        ]
    if which == "fig3":
        m_reduced = reduced_samples(100, 10)  # 35 by the implemented rule
        return [
            ("noncoop", ScenarioFile(scheme="noncoop", m=100, alpha=a)),
            ("coop", ScenarioFile(scheme="coop", n_users=10, n_vote=1, m=10, alpha=a)),
            (f"selection-m{m_reduced}",
             ScenarioFile(scheme="selection", q=10, m=m_reduced, alpha=a)),
            ("selection-m33", ScenarioFile(scheme="selection", q=10, m=33, alpha=a)),
        ]
    raise ValueError(f"unknown figure {which!r}; expected fig1, fig2 or fig3")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".10g")


def _write_rows(out, rows) -> None:
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _curve_rows(label: str, sc: ScenarioFile, seed: int):
    """CSV rows for one scheme swept over its scenario grid."""
    config = build_config(sc)
    grid = sc.snr_grid_db
    rows = []
    curve = None
    if sc.mode in ("mc", "both"):
        curve = sweep(config, grid, sc.trials, seed)
    for i, snr_db in enumerate(grid):
        pf_a = pmd_a = None
        if sc.mode in ("analytic", "both"):
            pf_a, pmd_a = analytic_columns(config, snr_db)
        pf_mc = pf_ci = pmd_mc = pmd_ci = trials = None
        if curve is not None:
            pt = curve.points[i]
            pf_mc, pf_ci = pt.pf.value, pt.pf.ci_halfwidth
            pmd_mc, pmd_ci = pt.pmd.value, pt.pmd.ci_halfwidth
            trials = pt.pmd.trials
        rows.append((label, _fmt(snr_db), _fmt(pf_a), _fmt(pmd_a), _fmt(pf_mc),
                     _fmt(pf_ci), _fmt(pmd_mc), _fmt(pmd_ci),
                     _fmt(trials), _fmt(seed)))
    return rows


def cmd_calibrate(sc: ScenarioFile) -> int:
    config = build_config(sc)
    p = config.payload
    if config.variant == "coop":
        lam = p.per_user.lam
        local_pf = pf_single(p.per_user.m, lam)
        print(f"scheme=coop N={p.n_users} n={p.n_vote} M={p.per_user.m} "
              f"alpha={sc.alpha}")
        print(f"lambda={lam:.10g} local_pf={local_pf:.10g} "
              f"global_pf={global_pf(p):.10g}")
    else:
        lam = p.lam
        print(f"scheme={sc.scheme} M={p.m} alpha={sc.alpha}")
        print(f"lambda={lam:.10g} pf={pf_single(p.m, lam):.10g}")
    smoke = estimate_point(config, "H0", 10 ** 5, sc.seed)
    print(f"empirical_pf={smoke.value:.6f} ci99={smoke.ci_halfwidth:.6f} "
          f"trials={smoke.trials}")
    if abs(smoke.value - sc.alpha) > smoke.ci_halfwidth + 2.576 * math.sqrt(
            sc.alpha * (1 - sc.alpha) / smoke.trials):
        print("calibration smoke check FAILED", file=sys.stderr)
        return 3
    print("calibration smoke check OK")
    return 0


def cmd_sweep(sc: ScenarioFile, label: str | None = None) -> int:
    out = sc.out or "sweep.csv"
    _write_rows(out, _curve_rows(label or sc.scheme, sc, sc.seed))
    print(f"wrote {out}")
    return 0


def cmd_figure(which: str, sc: ScenarioFile, alpha: float | None = None) -> int:
    rows = []
    for offset, (label, template) in enumerate(figure_setups(which, alpha)):
        template.snr_start_db = sc.snr_start_db
        template.snr_stop_db = sc.snr_stop_db
        template.snr_step_db = sc.snr_step_db
        template.trials = sc.trials
        template.mode = sc.mode
        rows.extend(_curve_rows(label, template, sc.seed + offset))
    out = sc.out or f"{which}.csv"
    _write_rows(out, rows)
    print(f"wrote {out}")
    return 0


def cmd_slope(sc: ScenarioFile) -> int:
    config = build_config(sc)
    curve = sweep(config, sc.snr_grid_db, sc.trials, sc.seed,
                  min_events=100, max_trials=10 ** 8)
    lo = sc.window_lo_db if sc.window_lo_db is not None else sc.snr_start_db
    hi = sc.window_hi_db if sc.window_hi_db is not None else sc.snr_stop_db
    fitted = fit_diversity_slope(curve, (lo, hi))
    analytic = _analytic_diversity(sc)
    print(f"fitted_slope={fitted:.4f} analytic_diversity={analytic:.4f} "
          f"window=[{lo},{hi}] dB")
    return 0


def _analytic_diversity(sc: ScenarioFile) -> float:
    if sc.scheme == "noncoop":
        return 1.0
    if sc.scheme == "coop":
        return float(sc.n_users - sc.n_vote + 1)
    return float(min(sc.m, sc.q))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsense",
        description="Spectrum sensing experiment runner (see README for the "
                    "scenario file format)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("calibrate", "figure", "sweep", "slope"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", help="path to a scenario file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", type=int, help="override scenario seed")
        p.add_argument("--trials", type=int, help="override scenario trials")
        p.add_argument("--mode", choices=_MODES, help="override scenario mode")
        if name == "figure":
            p.add_argument("--which", required=True,
                           choices=("fig1", "fig2", "fig3"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario_given = bool(args.scenario)
        if scenario_given:
            sc = parse_scenario(args.scenario)
        else:
            if args.command != "figure":
                print("error: --scenario is required", file=sys.stderr)
                return 2
            sc = ScenarioFile()
        if args.out:
            sc.out = args.out
        if args.seed is not None:
            sc.seed = args.seed
        if args.trials is not None:
            sc.trials = args.trials
        if args.mode is not None:
            sc.mode = args.mode
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "calibrate":
            return cmd_calibrate(sc)
        if args.command == "sweep":
            return cmd_sweep(sc)
        if args.command == "figure":
            # A scenario file pins alpha; otherwise each figure keeps its
            # canonical level (0.01 for fig1, 0.05 for fig2/fig3).
            return cmd_figure(args.which, sc,
                              alpha=sc.alpha if scenario_given else None)
        return cmd_slope(sc)
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
