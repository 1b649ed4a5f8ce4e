"""Acceptance criteria, one test (or subtest) per criterion.

Every test prints one ``ACCEPTANCE`` line with the measured numbers so a
``pytest -s`` run doubles as the acceptance report.  All Monte Carlo runs
use fixed seeds and the block-substream engine, so results are bit-exact
reproducible.

Grids, seeds and fixtures stay fixed.  Where a criterion compares the Monte
Carlo curves with a value of the exact model, the value comes from
``tests/reference/acceptance_refs.json``, written by
``tests/reference/make_acceptance_refs.py`` with mpmath alone (no specsense
import); the suite only reads the table.  Four paper claims are checked
where the exact model makes them: the 3 dB single-user advantage in the
deep low-SNR regime (the matched-budget curves cross at P_md ~ 0.48, so
there is no gap at P_md = 0.5), the high-SNR cooperative advantage at
P_md = 0.03 against its exact value, switching against noncoop below -6 dB
against the exact difference of the two curves, and the switching slope
against the exact local slope over the Monte Carlo window plus the
diversity order Q = 10 against the exact slope deep in the tail.  Each of
those report lines prints the Monte Carlo value, the exact reference and
the tolerance.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import specsense as ss
from specsense import AvgSnr
from specsense.cli import build_config, figure_setups
from specsense.detector import avg_pd_closed, avg_pd_numeric, calibrate_lambda
from specsense.reconfig import diversity_reconfig
from specsense.specfun import (
    hypergeom_1f2,
    inv_reg_upper_gamma,
    ln_bessel_k_int,
    ln_gamma,
    reg_lower_gamma,
    reg_upper_gamma,
)

# The gate spends minutes in deep-tail Monte Carlo; `-m "not slow"` skips it.
pytestmark = pytest.mark.slow

Z99 = 2.576
REFS_PATH = Path(__file__).parent / "reference" / "acceptance_refs.json"


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def crossing_db(grid_db, pmds, level):
    """First log-linear crossing of a pmd level along the SNR grid."""
    for i in range(len(grid_db) - 1):
        a, b = pmds[i], pmds[i + 1]
        if a > 0 and b > 0 and (a - level) * (b - level) <= 0 and a != b:
            f = (math.log(level) - math.log(a)) / (math.log(b) - math.log(a))
            return grid_db[i] + f * (grid_db[i + 1] - grid_db[i])
    return None


def must_cross(grid_db, pmds, level, what):
    """crossing_db that fails with a message when the curve misses the level."""
    cross = crossing_db(grid_db, pmds, level)
    assert cross is not None, f"{what} never crosses pmd {level:g} on its grid"
    return cross


def crossing_halfwidth(curve, level):
    """dB half-width of a level crossing from the 99% CI at that level.

    A vertical error ci at pmd p moves the log-linear crossing by
    (ci / p) / |d ln pmd / d dB|; ci is the binomial 99% half-width at
    p = level with the smaller trial count of the two bracketing points.
    """
    pts = curve.points
    for a, b in zip(pts, pts[1:]):
        pa, pb = a.pmd.value, b.pmd.value
        if pa > 0 and pb > 0 and (pa - level) * (pb - level) <= 0 and pa != pb:
            slope = abs(math.log(pb) - math.log(pa)) / (b.snr_db - a.snr_db)
            trials = min(a.pmd.trials, b.pmd.trials)
            return Z99 * math.sqrt((1.0 - level) / (level * trials)) / slope
    raise AssertionError(f"curve never crosses pmd {level:g} on its grid")


def lsq_slope(snr_db, pmds):
    """Negated least-squares slope of log10 pmd against log10 gamma_bar."""
    return -float(np.polyfit(np.array(snr_db) / 10.0, np.log10(pmds), 1)[0])


def curve_values(curve):
    return [p.snr_db for p in curve.points], [p.pmd.value for p in curve.points]


def ref_curve(entry):
    return [float(s) for s in entry["snr_db"]], entry["pmd"]


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def refs():
    """Exact-model references (see tests/reference/make_acceptance_refs.py)."""
    return json.loads(REFS_PATH.read_text())


@pytest.fixture(scope="module")
def fig1_curves():
    """NM = 100 matched-budget curves at alpha = 0.01 (criterion 4)."""
    t0 = time.time()
    nc = ss.sweep(ss.SchemeConfig.noncoop(100, 1.0, 1.0, alpha=0.01),
                  [float(s) for s in range(-16, 13)], 5 * 10 ** 4, seed=101,
                  min_events=100, max_trials=3 * 10 ** 6)
    cp = ss.sweep(ss.SchemeConfig.coop(10, 1, 10, 1.0, 1.0, alpha=0.01),
                  [float(s) for s in range(-16, 5)], 2 * 10 ** 4, seed=102,
                  min_events=100, max_trials=3 * 10 ** 6)
    return nc, cp, time.time() - t0


@pytest.fixture(scope="module")
def fig2_curves():
    """Total-budget-100 curves at alpha = 0.05 (criterion 5)."""
    lam100 = calibrate_lambda(100, 0.05)
    nc = ss.sweep(ss.SchemeConfig.noncoop(100, 1.0, 1.0, alpha=0.05),
                  [float(s) for s in range(-16, 13)], 10 ** 4, seed=201,
                  min_events=100, max_trials=10 ** 7)
    cp = ss.sweep(ss.SchemeConfig.coop(10, 1, 10, 1.0, 1.0, alpha=0.05),
                  [float(s) for s in range(-16, 7)], 10 ** 4, seed=202,
                  min_events=100, max_trials=10 ** 7)
    sw = ss.sweep(ss.SchemeConfig.switching(10, 100, lam100, 1.0),
                  [float(s) for s in range(-16, 5)], 10 ** 4, seed=203,
                  min_events=100, max_trials=10 ** 7)
    sel = ss.sweep(ss.SchemeConfig.selection(10, 100, lam100, 1.0),
                   [float(s) for s in range(-16, 3)], 10 ** 4, seed=204,
                   min_events=100, max_trials=10 ** 7)
    return nc, cp, sw, sel


@pytest.fixture(scope="module")
def fig2_switching_deep():
    """High-SNR switching points for the slope fit (criterion 5c)."""
    lam100 = calibrate_lambda(100, 0.05)
    return ss.sweep(ss.SchemeConfig.switching(10, 100, lam100, 1.0),
                    [1.0, 2.0, 3.0, 4.0], 10 ** 5, seed=205,
                    min_events=100, max_trials=10 ** 8)


@pytest.fixture(scope="module")
def fig3_curves():
    """Reduced-sensing selection vs the fig2 benchmarks (criterion 6)."""
    grid = [float(s) for s in range(-10, 7, 2)]
    out = {}
    for label, sc in figure_setups("fig3"):
        out[label] = ss.sweep(build_config(sc), grid, 2 * 10 ** 4, seed=301,
                              min_events=100, max_trials=10 ** 7)
    return grid, out


# ------------------------------------------------------------- criterion 1

def test_criterion_01_calibration():
    """Empirical P_F over 1e6 H0 trials within the 99% CI of alpha."""
    worst = None
    for which in ("fig1", "fig2", "fig3"):
        for label, sc in figure_setups(which):
            t0 = time.time()
            est = ss.estimate_point(build_config(sc), "H0", 10 ** 6, seed=7)
            elapsed = time.time() - t0
            ci = Z99 * math.sqrt(sc.alpha * (1 - sc.alpha) / 10 ** 6)
            dev = abs(est.value - sc.alpha)
            if worst is None or dev / ci > worst[0]:
                worst = (dev / ci, which, label, est.value, sc.alpha)
            assert dev <= ci, (which, label, est.value, sc.alpha, ci)
            assert elapsed <= 120.0, f"{which}/{label} took {elapsed:.0f}s"
    report(1, True, f"all fig configs within 99% CI of alpha "
                    f"(worst {worst[1]}/{worst[2]}: pf {worst[3]:.6f} "
                    f"vs {worst[4]})")


# ------------------------------------------------------------- criterion 2

def test_criterion_02_closed_form_vs_quadrature():
    """Bessel closed form within 0.3% of the exact average for gb >= 20 dB."""
    worst = 0.0
    for m in (5, 10, 25):
        lam = calibrate_lambda(m, 0.05)
        for gb in (100.0, 1000.0, 10000.0):
            rel = abs(avg_pd_closed(m, lam, gb) / avg_pd_numeric(m, lam, gb) - 1)
            worst = max(worst, rel)
            assert rel <= 3e-3, (m, gb, rel)
    # low-SNR divergence is reported, not asserted
    low = []
    for m in (5, 10, 25):
        lam = calibrate_lambda(m, 0.05)
        for gb in (1.0, 3.0):
            rel = avg_pd_closed(m, lam, gb) / avg_pd_numeric(m, lam, gb) - 1
            low.append(f"M={m},gb={gb}: {rel:+.1e}")
    report(2, True, f"worst rel err {worst:.2e} at gb >= 20 dB; "
                    f"low-SNR divergence (reported only): {'; '.join(low)}")


# ------------------------------------------------------------- criterion 3

def test_criterion_03_fusion_enumeration():
    """global_pf / global_pd equal 2^N brute-force enumeration to 1e-12."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in (2, 3, 5, 8, 10, 12):
        for _ in range(4):
            n_vote = int(rng.integers(1, n + 1))
            p = float(rng.uniform(0.0, 1.0))
            brute = 0.0
            for votes in itertools.product((0, 1), repeat=n):
                k = sum(votes)
                if k >= n_vote:
                    brute += p ** k * (1 - p) ** (n - k)
            err = abs(ss.binom_tail(n, n_vote, p) - brute)
            worst = max(worst, err)
            assert err <= 1e-12, (n, n_vote, p, err)
    report(3, True, f"enumeration agreement to {worst:.1e} for N <= 12")


# ------------------------------------------------------------- criterion 4

def test_criterion_04_runtime_and_crossover(fig1_curves):
    nc, cp, elapsed = fig1_curves
    assert elapsed <= 1200.0, f"fig1 MC took {elapsed:.0f}s (> 20 min)"
    nc_grid, nc_p = curve_values(nc)
    cp_grid, cp_p = curve_values(cp)
    cross = None
    for i, s in enumerate(cp_grid):
        j = nc_grid.index(s)
        if i and (nc_p[j] - cp_p[i]) * (prev_nc - prev_cp) < 0:
            f = (prev_nc - prev_cp) / ((prev_nc - prev_cp) - (nc_p[j] - cp_p[i]))
            cross = cp_grid[i - 1] + f * (s - cp_grid[i - 1])
            break
        prev_nc, prev_cp = nc_p[j], cp_p[i]
    assert cross is not None, "fig1 noncoop and coop curves never cross"
    ok = -7.0 <= cross <= -3.0
    line = report("4/crossover", ok,
                  f"curves cross at {cross:.2f} dB (target -5 +- 2)")
    assert ok, line


def test_criterion_04_low_snr_gap_at_pmd_half(fig1_curves, refs):
    """The 3 dB single-user advantage, where the exact model has it.

    The exact matched-budget curves cross at P_md ~ 0.48, so the horizontal
    gap at P_md = 0.5 is ~0.1 dB; the 3 dB advantage lives in the deep
    low-SNR regime and is measured there, as criterion 5a measures its gap.
    """
    nc, cp, _ = fig1_curves
    ref = refs["fig1"]
    nc_grid, nc_p = curve_values(nc)
    cp_grid, cp_p = curve_values(cp)
    deep = [crossing_db(cp_grid, cp_p, nc_p[i]) - s
            for i, s in enumerate(nc_grid)
            if s <= -12 and crossing_db(cp_grid, cp_p, nc_p[i]) is not None]
    assert deep, "coop curve crosses no noncoop level from <= -12 dB"
    mean_deep = float(np.mean(deep))
    half = (must_cross(cp_grid, cp_p, 0.5, "fig1 coop")
            - must_cross(nc_grid, nc_p, 0.5, "fig1 noncoop"))
    ok = 2.0 <= mean_deep <= 4.0
    line = report(
        "4/low-snr-gap", ok,
        f"deep low-SNR gap (levels from noncoop at <= -12 dB) MC "
        f"{mean_deep:.2f} dB, exact {ref['deep_gap_db']:.2f} dB (target "
        f"3 +- 1); at pmd 0.5 MC {half:+.2f} dB, exact "
        f"{ref['gap_at_pmd_half_db']:+.2f} dB, since the exact curves cross "
        f"at pmd {ref['crossing_pmd']:.3f}")
    assert ok, line


def test_criterion_04_high_snr_cooperative_advantage(fig1_curves, refs):
    """Cooperative advantage at P_md = 0.03 against its exact value.

    The tolerance adds the two crossings' 99% CI half-widths to the error
    the log-linear 1 dB-grid interpolation makes on the exact curves.
    """
    nc, cp, _ = fig1_curves
    ref = refs["fig1"]
    level = 0.03
    adv = (must_cross(*curve_values(nc), level, "fig1 noncoop")
           - must_cross(*curve_values(cp), level, "fig1 coop"))
    exact = ref["advantage_at_pmd_0p03_db"]
    on_grid = (must_cross(*ref_curve(ref["noncoop"]), level, "exact noncoop")
               - must_cross(*ref_curve(ref["coop"]), level, "exact coop"))
    grid_err = abs(on_grid - exact)
    tol = crossing_halfwidth(nc, level) + crossing_halfwidth(cp, level) + grid_err
    ok = abs(adv - exact) <= tol
    line = report("4/high-snr-advantage", ok,
                  f"cooperative advantage at pmd 0.03 MC {adv:.2f} dB, exact "
                  f"{exact:.3f} dB, tol +-{tol:.2f} dB (99% CIs plus "
                  f"{grid_err:.3f} dB 1 dB-grid interpolation)")
    assert ok, line


# ------------------------------------------------------------- criterion 5

def test_criterion_05a_low_snr_noncoop_gain(fig2_curves):
    nc, cp, _, _ = fig2_curves
    nc_grid, nc_p = curve_values(nc)
    cp_grid, cp_p = curve_values(cp)
    gaps = [crossing_db(cp_grid, cp_p, nc_p[i]) - s
            for i, s in enumerate(nc_grid)
            if s <= -12 and crossing_db(cp_grid, cp_p, nc_p[i]) is not None]
    mean_gap = float(np.mean(gaps))
    ok = 1.5 <= mean_gap <= 3.5
    line = report("5a/low-snr-gain", ok,
                  f"single-user gain below -6 dB: {mean_gap:.2f} dB "
                  f"(target 2.5 +- 1, levels from noncoop at <= -12 dB)")
    assert ok, line


def test_criterion_05b_switching_coincides_at_low_snr(fig2_curves, refs):
    """Switching tracks noncoop below -6 dB as the exact model says.

    The exact curves never coincide exactly (they part by -0.1 at -7 dB),
    so the Monte Carlo difference is held to the exact difference, within
    the mutual 99% CI of the two points.
    """
    nc, _, sw, _ = fig2_curves
    ref = refs["fig2"]
    nc_grid, nc_p = curve_values(nc)
    sw_grid, sw_p = curve_values(sw)
    ref_nc = dict(zip(*ref_curve(ref["noncoop_low_snr"])))
    ref_sw = dict(zip(*ref_curve(ref["switching_low_snr"])))
    rows = []
    bad = []
    worst = (0.0, 0.0)
    for i, s in enumerate(sw_grid):
        if s >= -6.0:
            continue
        assert s in ref_nc and s in ref_sw, f"no exact reference at {s} dB"
        j = nc_grid.index(s)
        diff = sw_p[i] - nc_p[j]
        exact = ref_sw[s] - ref_nc[s]
        mutual = sw.points[i].pmd.ci_halfwidth + nc.points[j].pmd.ci_halfwidth
        resid = abs(diff - exact)
        worst = max(worst, (resid, mutual))
        rows.append(f"{s:+.0f}dB:{diff:+.4f}/{exact:+.4f}/{mutual:.4f}")
        if resid > mutual:
            bad.append(s)
    ok = not bad
    line = report("5b/switching-coincidence", ok,
                  f"switching - noncoop below -6 dB, MC/exact/mutual 99% CI "
                  f"({'; '.join(rows)}); largest residual {worst[0]:.4f} "
                  f"against {worst[1]:.4f}; residual exceeds CI at {bad}")
    assert ok, line


def test_criterion_05c_switching_slope(fig2_switching_deep, refs):
    """Switching diversity, measured where each estimate can reach it.

    Diversity Q = 10 is the SNR -> infinity limit; over the Monte Carlo
    window (1-4 dB, pmd down to ~3e-6) the exact local slope is ~7.2.  The
    Monte Carlo slope is held to that exact slope within 2.576 sigma, sigma
    propagated from each point's event count, and the exact slope over
    15-30 dB (pmd ~1e-16 to 1e-31) is held to the diversity order 10 +- 1.
    """
    curve = fig2_switching_deep
    ref = refs["fig2"]
    for p in curve.points:
        print(f"  switching {p.snr_db:+.0f} dB pmd {p.pmd.value:.3e} "
              f"({p.pmd.events} events / {p.pmd.trials} trials)")
    window = (1.0, 4.0)
    slope = ss.fit_diversity_slope(curve, window)
    # The points fit_diversity_slope keeps; var(log10 pmd_hat) is
    # (1 - pmd) / (events ln(10)^2) at each.
    pts = [p for p in curve.points
           if window[0] <= p.snr_db <= window[1] and p.pmd.events >= 100]
    x = np.array([p.snr_db for p in pts]) / 10.0
    w = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
    var = np.array([(1.0 - p.pmd.value) / p.pmd.events for p in pts])
    sigma = math.sqrt(float((w ** 2 * var).sum())) / math.log(10.0)
    ref_deep = dict(zip(*ref_curve(ref["switching_deep"])))
    exact = lsq_slope([p.snr_db for p in pts], [ref_deep[p.snr_db] for p in pts])
    tol = Z99 * sigma
    deep_grid, deep_p = ref_curve(ref["switching_deep_window"])
    deep = lsq_slope(deep_grid, deep_p)
    want = diversity_reconfig(100, 10).diversity
    ok = abs(slope - exact) <= tol and abs(deep - want) <= 1.0
    line = report(
        "5c/switching-slope", ok,
        f"fitted slope over 1-4 dB MC {slope:.2f}, exact {exact:.2f}, tol "
        f"+-{tol:.2f} (2.576 sigma); exact slope over "
        f"{deep_grid[0]:.0f}-{deep_grid[-1]:.0f} dB {deep:.2f} (target "
        f"diversity {want:.0f} +- 1)")
    assert ok, line


def test_criterion_05d_selection_gain_gap(fig2_curves):
    _, _, sw, sel = fig2_curves
    sw_grid, sw_p = curve_values(sw)
    sel_grid, sel_p = curve_values(sel)
    gap = (must_cross(sw_grid, sw_p, 1e-2, "fig2 switching")
           - must_cross(sel_grid, sel_p, 1e-2, "fig2 selection"))
    ok = 4.0 <= gap <= 5.4
    line = report("5d/selection-gain", ok,
                  f"selection sits {gap:.2f} dB left of switching at "
                  f"pmd 1e-2 (target 4.7 +- 0.7)")
    assert ok, line


# ------------------------------------------------------------- criterion 6

def test_criterion_06_reduced_sensing_dominates(fig3_curves):
    grid, curves = fig3_curves
    m_impl = ss.reduced_samples(100, 10)
    assert m_impl == 35
    labels = [f"selection-m{m_impl}", "selection-m33"]
    checked = 0
    for i, s in enumerate(grid):
        bench_floor = min(curves["noncoop"].points[i].pmd.value,
                          curves["coop"].points[i].pmd.value)
        if bench_floor > 0.1:
            continue
        for lab in labels:
            sp = curves[lab].points[i].pmd
            for bench in ("noncoop", "coop"):
                bp = curves[bench].points[i].pmd
                checked += 1
                assert sp.value <= bp.value + sp.ci_halfwidth + bp.ci_halfwidth, (
                    s, lab, bench, sp.value, bp.value)
    report(6, True,
           f"selection at M'=35 (implemented rule) and M'=33 (printed "
           f"reference value) below both benchmarks at all {checked} "
           f"comparisons in the pmd <= 0.1 region")


# ------------------------------------------------------------- criterion 7

def test_criterion_07_diversity_slopes():
    runs = [
        ("noncoop M=10", ss.SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05),
         [25.0, 30.0, 35.0, 40.0, 45.0], 1.0, 0.1),
        ("coop N=3 M=8", ss.SchemeConfig.coop(3, 1, 8, 1.0, 1.0, alpha=0.05),
         [8.0, 10.0, 12.0, 14.0, 16.0, 18.0], 3.0, 0.3),
        ("coop N=5 M=10", ss.SchemeConfig.coop(5, 1, 10, 1.0, 1.0, alpha=0.05),
         [8.0, 9.0, 10.0, 11.0, 12.0], 5.0, 0.5),
        ("switching Q=4 M=20",
         ss.SchemeConfig.switching(4, 20, calibrate_lambda(20, 0.05), 1.0),
         [10.0, 12.0, 14.0, 16.0], 4.0, 0.4),
        ("selection Q=4 M=20",
         ss.SchemeConfig.selection(4, 20, calibrate_lambda(20, 0.05), 1.0),
         [6.0, 8.0, 10.0, 12.0], 4.0, 0.4),
    ]
    summary = []
    for name, template, grid, want, tol in runs:
        curve = ss.sweep(template, grid, 10 ** 5, seed=42, min_events=100,
                         max_trials=10 ** 8)
        slope = ss.fit_diversity_slope(curve, (grid[0], grid[-1]))
        summary.append(f"{name}: {slope:.2f} (want {want} +- {tol})")
        assert abs(slope - want) <= tol, summary[-1]
    report(7, True, "; ".join(summary))


# ------------------------------------------------------------- criterion 8

def test_criterion_08_allocation_optimality():
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    t0 = time.time()
    cases = 0
    for q in range(1, 5):
        for m in range(q, 15):
            best = max(math.prod(l - 1 for l in c) for c in compositions(m, q))
            got = math.prod(l - 1 for l in ss.allocate_samples(m, q))
            assert got == best, (m, q)
            cases += 1
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    report(8, True, f"equal split maximizes prod(l_j - 1) over all {cases} "
                    f"(M <= 14, Q <= 4) cases in {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 9

def test_criterion_09_selection_gain_monte_carlo():
    from specsense.channel import RandomStream, draw_snr
    from specsense.specfun import harmonic
    results = []
    for i, q in enumerate((2, 5, 10, 20)):
        gen = RandomStream(seed=9, stream_id=i).generator()
        ratio = float(draw_snr(AvgSnr(1.0), gen, (10 ** 6, q)).max(axis=1).mean())
        results.append(f"Q={q}: {ratio:.4f} vs H_Q={harmonic(q):.4f}")
        assert ratio == pytest.approx(harmonic(q), rel=0.01), results[-1]
    report(9, True, "; ".join(results))


# ------------------------------------------------------------ criterion 10

def test_criterion_10_kernel_invariants():
    rng = np.random.default_rng(10)
    # complement identity on (0, 50]^2
    for _ in range(500):
        s, x = rng.uniform(1e-3, 50.0), rng.uniform(0.0, 50.0)
        assert reg_upper_gamma(s, x) + reg_lower_gamma(s, x) == pytest.approx(
            1.0, abs=1e-12)
    # inverse round trip
    checked = 0
    for _ in range(300):
        s, x = rng.uniform(0.2, 50.0), rng.uniform(0.1, 40.0)
        p = reg_upper_gamma(s, x)
        if not 1e-280 < p < 1.0 - 1e-10:
            continue
        pdf = math.exp((s - 1.0) * math.log(x) - x - ln_gamma(s))
        if 2.3e-16 * max(p, 1.0 - p) / (pdf * x) > 1e-9:
            continue
        assert inv_reg_upper_gamma(s, p) == pytest.approx(x, rel=1e-8)
        checked += 1
    assert checked > 100
    # Bessel three-term recurrence across M <= 20, x in [0.01, 30]
    for m in range(1, 21):
        for x in np.geomspace(0.01, 30.0, 12):
            low = math.exp(ln_bessel_k_int(m - 1, float(x)))
            mid = math.exp(ln_bessel_k_int(m, float(x)))
            hi = math.exp(ln_bessel_k_int(m + 1, float(x)))
            assert abs(hi - low - (2 * m / x) * mid) <= 1e-8 * hi
    # 1F2 at z = 0 is exactly 1
    for _ in range(100):
        a = rng.uniform(-5.0, 5.0)
        b1, b2 = rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0)
        assert hypergeom_1f2(a, b1, b2, 0.0) == 1.0
    report(10, True, "complement identity, inverse round-trip, Bessel "
                     "recurrence and 1F2(.,0)=1 suites all inside stated "
                     "tolerances")
