"""Experiment runner: scenario files in, calibration reports and CSV out.

Subcommands
-----------
calibrate   print the NP threshold for a scenario and smoke-check it by MC
figure      reproduce one of the three reference experiments as CSV
sweep       run one scenario's SNR sweep to CSV
slope       fit the high-SNR diversity slope of a scenario and compare with
            the analytic order

The ``--out/--seed/--trials/--mode`` flags replace scenario keys and pass the
same ``ScenarioFile`` validation.  Exit codes: 0 success, 2 configuration
error (a bad key, value or flag, an unreadable scenario, an unwritable
output), 3 numerical failure.

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
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import AvgSnr
from .reconfig import reduced_samples
from .simkit import (_MAX_TRIALS, _MIN_EVENTS, _Z99, SCENARIO_SCHEMES, SchemeConfig,
                     _check_budget, estimate_point, fit_diversity_slope, sweep)
from .specfun import ConvergenceError

_MODES = ("analytic", "mc", "both")
_MAX_GRID_POINTS = 10 ** 5
CSV_HEADER = ("scheme", "snr_db", "pf_analytic", "pmd_analytic",
              "pf_mc", "pf_ci", "pmd_mc", "pmd_ci", "trials", "seed")


@dataclass(frozen=True)
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
        if self.scheme not in SCENARIO_SCHEMES:
            raise ValueError(
                f"scheme must be one of {tuple(SCENARIO_SCHEMES)}, got {self.scheme!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        for name in ("snr_start_db", "snr_stop_db", "snr_step_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.snr_step_db <= 0.0:
            raise ValueError("snr_step_db must be > 0")
        if self.snr_stop_db < self.snr_start_db:
            raise ValueError("snr_stop_db must be >= snr_start_db")
        if self._grid_steps() >= _MAX_GRID_POINTS:  # counted before any point is made
            raise ValueError(f"the SNR grid must have at most {_MAX_GRID_POINTS} points")
        _check_budget(self.trials, None, _MAX_TRIALS)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def _grid_steps(self) -> float:
        # The floor of this is the last grid index; the 1e-9 keeps a stop that
        # is a whole number of steps away when the division lands just below.
        return (self.snr_stop_db - self.snr_start_db) / self.snr_step_db + 1e-9

    @property
    def snr_grid_db(self) -> list[float]:
        return [self.snr_start_db + i * self.snr_step_db
                for i in range(math.floor(self._grid_steps()) + 1)]


# A key's value is read by its field's annotation: int, float or str (or None).
_KEY_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type.split(" | ")[0]]
              for f in fields(ScenarioFile)}


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
            if key not in _KEY_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown scenario key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated scenario key {key!r}")
            values[key] = _KEY_TYPES[key](val)
    if "schema" not in values:
        raise ValueError(f"{path}: missing mandatory 'schema' key")
    return ScenarioFile(**values)


def build_config(sc: ScenarioFile) -> SchemeConfig:
    """Calibrated SchemeConfig for a scenario (threshold set from alpha), at 0 dB."""
    scheme = SCENARIO_SCHEMES[sc.scheme]
    return SchemeConfig(scheme.variant, scheme.payload(sc),
                        AvgSnr(1.0)).with_alpha(sc.alpha)


def analytic_columns(config: SchemeConfig, snr_db: float) -> tuple[float, float]:
    """(pf, pmd) analytic columns for one scheme at one average SNR.

    The switching column is the averaged small-CDF asymptote clamped into
    [0, 1].  The asymptote exceeds 1 wherever the miss probability is not
    small, so for fig2's switching curve (Q = 10, M = 100, alpha = 0.05) the
    column reads 1 at all 41 points of the default -20..20 dB grid.  The
    exact switching values are the Talbot inversions in
    ``tests/reference/acceptance_refs.json``.  The other schemes' pmd is
    ``detector._faded_miss``'s exact fading average, or ConvergenceError.

    The terms that do not depend on the SNR (the pf column, the threshold
    side of the fading rule, the switching prefactor) are computed once per
    operating point and reused at every SNR; each value has the same bits as
    when it is computed afresh.
    """
    return config.scheme.analytic(config.payload, AvgSnr.from_db(snr_db))


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
    fig2 = [("noncoop", ScenarioFile(scheme="noncoop", m=100, alpha=a)),
            ("coop", ScenarioFile(scheme="coop", n_users=10, n_vote=1, m=10, alpha=a)),
            ("switching", ScenarioFile(scheme="switching", q=10, m=100, alpha=a)),
            ("selection", ScenarioFile(scheme="selection", q=10, m=100, alpha=a))]
    if which == "fig2":
        return fig2
    if which == "fig3":  # the fig2 benchmarks; M' = 35 by the implemented rule
        return fig2[:2] + [(f"selection-m{m}",
                            ScenarioFile(scheme="selection", q=10, m=m, alpha=a))
                           for m in (reduced_samples(100, 10), 33)]
    raise ValueError(f"unknown figure {which!r}; expected fig1, fig2 or fig3")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".10g")


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
    sizes, threshold = config.scheme.describe(config.payload)
    print(f"scheme={sc.scheme} {sizes} alpha={sc.alpha}")
    print(threshold)
    smoke = estimate_point(config, "H0", 10 ** 5, sc.seed)
    print(f"empirical_pf={smoke.value:.6f} ci99={smoke.ci_halfwidth:.6f} "
          f"trials={smoke.trials}")
    if abs(smoke.value - sc.alpha) > smoke.ci_halfwidth + _Z99 * math.sqrt(
            sc.alpha * (1 - sc.alpha) / smoke.trials):
        print("calibration smoke check FAILED", file=sys.stderr)
        return 3
    print("calibration smoke check OK")
    return 0


def _write_csv(out: str, curves) -> int:
    """Write each (label, scenario, seed) curve's rows to ``out`` as one CSV.

    Every row is computed before the file is opened, so a failure leaves no
    partial CSV.
    """
    rows = [row for label, sc, seed in curves for row in _curve_rows(label, sc, seed)]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


def cmd_sweep(sc: ScenarioFile) -> int:
    return _write_csv(sc.out or "sweep.csv", [(sc.scheme, sc, sc.seed)])


def cmd_figure(which: str, sc: ScenarioFile, alpha: float | None = None) -> int:
    grid = {k: getattr(sc, k) for k in ("snr_start_db", "snr_stop_db", "snr_step_db")}
    curves = [(label, replace(template, **grid, trials=sc.trials, mode=sc.mode), sc.seed + i)
              for i, (label, template) in enumerate(figure_setups(which, alpha))]
    return _write_csv(sc.out or f"{which}.csv", curves)


def cmd_slope(sc: ScenarioFile) -> int:
    lo = sc.window_lo_db if sc.window_lo_db is not None else sc.snr_start_db
    hi = sc.window_hi_db if sc.window_hi_db is not None else sc.snr_stop_db
    in_window = sum(lo <= s <= hi for s in sc.snr_grid_db)
    if in_window < 3:  # checked before the sweep, which may escalate for minutes
        raise ValueError(
            f"the slope window [{lo}, {hi}] dB must hold at least 3 grid points, "
            f"got {in_window}")
    config = build_config(sc)
    curve = sweep(config, sc.snr_grid_db, sc.trials, sc.seed, min_events=_MIN_EVENTS)
    fitted = fit_diversity_slope(curve, (lo, hi))
    analytic = config.scheme.diversity(config.payload)
    print(f"fitted_slope={fitted:.4f} analytic_diversity={analytic:.4f} "
          f"window=[{lo},{hi}] dB")
    return 0


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
        if args.scenario:
            sc = parse_scenario(args.scenario)
        elif args.command == "figure":
            sc = ScenarioFile()
        else:
            raise ValueError("--scenario is required")
        flags = {k: getattr(args, k) for k in ("out", "seed", "trials", "mode")}
        sc = replace(sc, **{k: v for k, v in flags.items() if v is not None})
        if args.command == "calibrate":
            return cmd_calibrate(sc)
        if args.command == "sweep":
            return cmd_sweep(sc)
        if args.command == "figure":
            # A scenario file pins alpha; otherwise each figure keeps its
            # canonical level (0.01 for fig1, 0.05 for fig2/fig3).
            return cmd_figure(args.which, sc, alpha=sc.alpha if args.scenario else None)
        return cmd_slope(sc)
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
