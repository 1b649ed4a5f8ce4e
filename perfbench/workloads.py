"""The benchmark workloads: inputs from the seed, one timed pass, checks.

Each workload is a closed loop: one caller in one process issues the next
operation only after the previous one returns.  ``setup`` builds the
inputs (the part ``setup_s`` times in a fresh interpreter), ``run_pass``
is the timed region, and ``check`` verifies a pass's outputs outside it.
``check`` returns the operations that fail the run, the operations that
miss their documented accuracy (a superset: it adds ``KNOWN_DEFECTS``), and
details for the run record.  Library calls go through module attributes (``simkit.sweep``,
``cli.main``, ...) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from scipy import special as sp

from specsense import SchemeConfig as SC
from specsense import cli, detector, simkit

HERE = Path(__file__).resolve().parent

#: Per-check false-failure probability of the Monte Carlo checks.  A plain
#: 99% interval would flag about one correct point in a hundred, so a correct
#: program would fail a quarter of mc-fixed runs; at this level the 31 checks
#: of a run flag it about 3e-5 of the time, while a bias of a few standard
#: errors still fails.
MC_CHECK_LEVEL = 1e-6

#: Checked analytic points that miss their documented tolerance in the code
#: this benchmark was defined on, each with the largest error it may show.
#: The miss comes from the knee heuristic of the fading quadrature (ROADMAP,
#: "knee-free, vectorized analytic layer").  Such a point counts against
#: ``ok_share`` on every run, and fails the run only if its error grows past
#: the cap, so a change that makes it worse is still caught.  A point that
#: meets its tolerance passes whether listed or not; drop its entry then.
KNOWN_DEFECTS = {
    ("fig1", "noncoop-nm4", 40.0): 3e-9,  # measured 2.860e-9 against 1e-10
}


@dataclass
class PassResult:
    """What one pass did: operations attempted and raised, work done, outputs.

    ``chunk_s`` times the pass's parts (an operation, a sweep, or the whole
    pass) in the same order on every pass of a run.
    """

    ops: int
    raised: int
    work: float
    fingerprint: str
    chunk_s: list
    outputs: object = None
    counts: dict = field(default_factory=dict)


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _binomial_consistent(k: int, n: int, p: float) -> bool:
    """Exact two-sided binomial test of k successes in n trials at level MC_CHECK_LEVEL."""
    half = MC_CHECK_LEVEL / 2.0
    if sp.bdtr(k, n, p) < half:
        return False
    return k == 0 or sp.bdtrc(k - 1, n, p) >= half


class FiguresAnalytic:
    name = "figures-analytic"
    aliases = {"work_per_s": ("analytic_points_per_s", "points/s")}
    figures = ("fig1", "fig2", "fig3")
    grid_db = tuple(-20.0 + 0.5 * i for i in range(121))
    #: SNR points of every curve checked against the committed mpmath values.
    ref_grid_db = tuple(float(s) for s in range(-20, 41, 5))
    refs_path = HERE / "analytic_refs.json"

    def setup(self, seed: int, workdir: Path):
        # The figures are fixed; the seed has nothing to draw here.
        return [(which, label, cli.build_config(sc))
                for which in self.figures
                for label, sc in cli.figure_setups(which)]

    def run_pass(self, curves) -> PassResult:
        values, chunk_s = {}, []
        raised = 0
        for which, label, config in curves:
            for snr_db in self.grid_db:
                start = time.perf_counter()
                try:
                    values[(which, label, snr_db)] = cli.analytic_columns(config, snr_db)
                except Exception:
                    raised += 1
                chunk_s.append(time.perf_counter() - start)
        ops = len(curves) * len(self.grid_db)
        fingerprint = _sha256(sorted((list(k), [float.hex(v) for v in pair])
                                     for k, pair in values.items()))
        return PassResult(ops=ops, raised=raised, work=ops - raised,
                          fingerprint=fingerprint, chunk_s=chunk_s, outputs=values)

    def check(self, curves, result: PassResult):
        refs = json.loads(self.refs_path.read_text())["points"]
        failed, off_spec, flagged, known = 0, 0, [], []
        for ref in refs:
            key = (ref["figure"], ref["label"], ref["snr_db"])
            if key not in result.outputs:
                continue  # raised: already counted
            err = abs(result.outputs[key][1] - ref["pmd"])
            if err <= ref["tol"]:
                continue
            off_spec += 1
            entry = {"point": list(key), "abs_err": err, "tol": ref["tol"]}
            cap = KNOWN_DEFECTS.get(key)
            if cap is not None and err <= cap:
                known.append(dict(entry, cap=cap))
            else:
                failed += 1
                flagged.append(entry)
        return failed, off_spec, {"checked": len(refs), "flagged": flagged,
                                  "known_defects": known}


class McFixed:
    name = "mc-fixed"
    aliases = {"work_per_s": ("mc_trials_per_s", "trials/s")}
    trials = 10 ** 5
    alpha = 0.05
    checked_schemes = ("noncoop", "coop", "selection")
    checked_snr_db = tuple(float(s) for s in range(-20, 21, 5))

    def setup(self, seed: int, workdir: Path):
        out = workdir / f"mc-fixed-{seed}.csv"
        argv = ["figure", "--which", "fig2", "--mode", "mc",
                "--trials", str(self.trials), "--seed", str(seed), "--out", str(out)]
        configs = {label: cli.build_config(sc) for label, sc in cli.figure_setups("fig2")}
        return {"argv": argv, "out": out, "configs": configs, "analytic": {}}

    def run_pass(self, state) -> PassResult:
        n_curves = len(state["configs"])
        state["out"].unlink(missing_ok=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(state["argv"])
            except Exception:
                code = None
        chunk_s = [time.perf_counter() - start]
        data = state["out"].read_bytes() if state["out"].exists() else b""
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        ops = n_curves + len(rows)  # one H0 estimate per curve plus the H1 points
        if code != 0:
            ops = max(ops, n_curves)
            return PassResult(ops=ops, raised=ops, work=0, fingerprint="", chunk_s=chunk_s,
                              outputs=[])
        # Column 8 is the H1 trial count; each curve's H0 estimate uses the base trials.
        work = sum(int(r[8]) for r in rows) + n_curves * self.trials
        return PassResult(ops=ops, raised=0, work=work,
                          fingerprint=hashlib.sha256(data).hexdigest(), chunk_s=chunk_s,
                          outputs=rows,
                          counts={"cli.rows": len(rows), "cli.csv_bytes": len(data)})

    def check(self, state, result: PassResult):
        failed, flagged = 0, []
        pf_seen = {}
        for row in result.outputs:
            label, snr_db = row[0], float(row[1])
            trials = int(row[8])
            pf_seen[label] = float(row[4])
            if label not in self.checked_schemes or snr_db not in self.checked_snr_db:
                continue
            analytic = state["analytic"].get((label, snr_db))
            if analytic is None:
                analytic = cli.analytic_columns(state["configs"][label], snr_db)[1]
                state["analytic"][(label, snr_db)] = analytic
            misses = round(float(row[6]) * trials)
            if not _binomial_consistent(misses, trials, analytic):
                failed += 1
                flagged.append({"point": [label, snr_db], "pmd_mc": float(row[6]),
                                "pmd_analytic": analytic})
        for label, pf in pf_seen.items():
            if not _binomial_consistent(round(pf * self.trials), self.trials, self.alpha):
                failed += 1
                flagged.append({"point": [label, "H0"], "pf_mc": pf, "alpha": self.alpha})
        return failed, failed, {"checked": len(state["analytic"]) + len(pf_seen),
                                "check_level": MC_CHECK_LEVEL, "flagged": flagged}


class DeepTail:
    name = "deep-tail"
    aliases = {"pass_s": ("tail_s", "s"),
               "simkit.trials_per_100_events": ("tail_trials_per_100_events", "trials")}
    base_trials = 10 ** 5
    min_events = 100
    #: The grids are cut so that no point needs 10^8 trials; the cap keeps a
    #: point whose expected count at 10^7 sits just above the floor (switching
    #: at 14 dB: ~120 events) from a rare 10^8-trial rerun.
    max_trials = 10 ** 7
    alpha = 0.05

    def setup(self, seed: int, workdir: Path):
        lam20 = detector.calibrate_lambda(20, self.alpha)
        return [
            ("noncoop M=10", SC.noncoop(10, 1.0, 1.0, alpha=self.alpha),
             [25.0, 30.0, 35.0, 40.0, 45.0], seed),
            ("coop N=3 n=1 M=8", SC.coop(3, 1, 8, 1.0, 1.0, alpha=self.alpha),
             [8.0, 10.0, 12.0, 14.0, 16.0], seed + 1),
            ("switching Q=4 M=20", SC.switching(4, 20, lam20, 1.0),
             [8.0, 10.0, 12.0, 14.0], seed + 2),
            ("selection Q=4 M=20", SC.selection(4, 20, lam20, 1.0),
             [4.0, 6.0, 8.0, 10.0], seed + 3),
        ]

    def run_pass(self, configs) -> PassResult:
        curves, chunk_s, raised, ops, work = [], [], 0, 0, 0
        for name, template, grid, seed in configs:
            ops += len(grid) + 1
            start = time.perf_counter()
            try:
                curve = simkit.sweep(template, grid, self.base_trials, seed,
                                     min_events=self.min_events, max_trials=self.max_trials)
            except Exception:
                raised += len(grid) + 1
                continue
            finally:
                chunk_s.append(time.perf_counter() - start)
            curves.append((name, curve))
            work += curve.points[0].pf.trials + sum(p.pmd.trials for p in curve.points)
        vector = [[name, curve.points[0].pf.trials, curve.points[0].pf.events]
                  + [[p.pmd.trials, p.pmd.events] for p in curve.points]
                  for name, curve in curves]
        return PassResult(ops=ops, raised=raised, work=work, fingerprint=_sha256(vector),
                          chunk_s=chunk_s, outputs=curves)

    def check(self, configs, result: PassResult):
        failed, flagged, slopes = 0, [], {}
        for name, curve in result.outputs:
            for point in curve.points:
                if point.pmd.events < self.min_events and point.pmd.trials < self.max_trials:
                    failed += 1
                    flagged.append({"curve": name, "snr_db": point.snr_db,
                                    "events": point.pmd.events, "trials": point.pmd.trials})
            for lo, hi in zip(curve.points, curve.points[1:]):
                if hi.pmd.value > lo.pmd.value:
                    failed += 1
                    flagged.append({"curve": name, "snr_db": hi.snr_db,
                                    "pmd_increases": [lo.pmd.value, hi.pmd.value]})
            grid = [p.snr_db for p in curve.points]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    slopes[name] = simkit.fit_diversity_slope(curve, (grid[0], grid[-1]))
                except ValueError as exc:
                    slopes[name] = f"not fitted: {exc}"
        return failed, failed, {"fitted_slopes": slopes, "flagged": flagged}


WORKLOADS = {w.name: w for w in (FiguresAnalytic(), McFixed(), DeepTail())}
