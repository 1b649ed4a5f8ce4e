"""The fading rule against its committed mpmath table, and its two guards.

``tests/reference/faded_miss_refs.json`` is written by
``tests/reference/make_faded_miss_refs.py`` from mpmath alone, each value
checked by two independent integral forms.  These tests only read it.

* fig1-fig3 cells and the cells where adaptive quadrature once returned an
  exact 0: within 1e-13 relative, and none raises;
* the input box (M up to 10^4, Q up to 64, -40..70 dB): within 1e-11
  relative or ConvergenceError, and none raises today;
* a true miss below 1e-300 comes back at most 1e-300, without an exception;
* the part of the integral left of the rule's window is negligible, and a
  grid too coarse for a narrow peak raises rather than return a value.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from specsense import AvgSnr, detector
from specsense.detector import DetectorParams, _faded_miss, avg_pd_numeric, calibrate_lambda
from specsense.fusion import FusionParams, global_pmd
from specsense.reconfig import avg_pmd_selection
from specsense.simkit import SCHEMES
from specsense.specfun import ConvergenceError

REFS = json.loads((Path(__file__).parent / "reference" / "faded_miss_refs.json").read_text())
CELLS = REFS["cells"]


def _miss(cell) -> float:
    return _faded_miss(cell["m"], cell["lam"], 10.0 ** (cell["snr_db"] / 10.0), cell["q"])


def _check(cells, rel_tol):
    """(relative errors, raising cells) over cells whose miss is at least 1e-300."""
    errors, raised = [], []
    for cell in cells:
        want = float(cell["pmd"])
        try:
            got = _miss(cell)
        except ConvergenceError:
            raised.append(cell)
            continue
        if want < 1e-300:
            assert got <= 1e-300, cell
            continue
        errors.append((abs(got - want) / want, cell))
    bad = [(e, c) for e, c in errors if not e <= rel_tol]
    assert not bad, bad[:5]
    return errors, raised


def test_the_table_covers_the_documented_cells():
    kinds = [c["kind"] for c in CELLS]
    assert kinds.count("fig") == 11 * 13
    assert kinds.count("zero") == 3
    assert kinds.count("box") == 6 * 3 * 3 * 5
    assert any(float(c["pmd"]) < 1e-300 for c in CELLS)


def test_figure_and_silent_zero_cells_within_1e_13():
    errors, raised = _check([c for c in CELLS if c["kind"] != "box"], 1e-13)
    assert not raised
    assert len(errors) == 11 * 13 + 3


def test_box_cells_within_1e_11_or_raise():
    errors, raised = _check([c for c in CELLS if c["kind"] == "box"], 1e-11)
    # No box cell raises with the rule as it stands; a change that makes
    # some raise must say so here.
    assert [(c["m"], c["alpha"], c["q"], c["snr_db"]) for c in raised] == []


def test_public_entry_points_take_the_rule():
    """Each figure scheme's analytic pmd is the rule's value, not 1 - pd.

    At the M = 100, alpha = 0.9, 70 dB cell the miss is 5.25e-10, where
    1 - avg_pd_numeric keeps only about six digits.
    """
    for cell in CELLS:
        off_grid = cell["kind"] == "fig" and cell["snr_db"] not in (-20, 10, 40)
        if cell["kind"] == "box" or off_grid:
            continue
        avg = AvgSnr.from_db(cell["snr_db"])
        want = float(cell["pmd"])
        detector = DetectorParams(m=cell["m"], lam=cell["lam"])
        if cell["q"] > 1:
            got = avg_pmd_selection(cell["m"], cell["lam"], avg, cell["q"])
        elif cell.get("n_users", 1) > 1:
            fusion = FusionParams(n_users=cell["n_users"], n_vote=1, per_user=detector)
            got = global_pmd(fusion, avg) ** (1.0 / cell["n_users"])
        else:
            got = SCHEMES["noncoop"].analytic(detector, avg)[1]
            assert avg_pd_numeric(cell["m"], cell["lam"], avg) == pytest.approx(
                1.0 - want, rel=1e-12, abs=2e-16)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), cell


def _left_end_drop(m, alpha, q, snr_db):
    """Nats from the x-integrand's peak down to its value at the rule's left end.

    The integrand over x = log(e^u - 1) is written out here from its
    definition; the peak is taken on a fine grid, which can only understate
    the drop.
    """
    x = np.concatenate(([detector._X_SEARCH[0]], np.linspace(-30.0, 120.0, 60001)))
    t = np.exp(x)
    u = np.log1p(t)
    log_g = math.log(calibrate_lambda(m, alpha) / 2.0) - u
    with np.errstate(divide="ignore"):
        fading = q * np.log(-np.expm1(-t / 10.0 ** (snr_db / 10.0)))
    log_h = m * log_g - np.exp(log_g) + fading + x - u
    return log_h.max() - log_h[0]


def test_the_left_end_lies_43_nats_below_the_peak():
    assert detector._X_SEARCH[0] == pytest.approx(math.log(1e-13), abs=1e-12)
    # The worst corner of the box: the most samples, one state, the lowest
    # SNR, at the table's worst level and as alpha -> 1.
    assert 44.59 <= _left_end_drop(10_000, 0.9, 1, -40.0) < 44.64
    assert 43.2 <= _left_end_drop(10_000, 1.0 - 1e-10, 1, -40.0) < 43.25
    assert min(_left_end_drop(c["m"], c["alpha"], c["q"], c["snr_db"])
               for c in CELLS if c["kind"] == "box") >= 44.59


def test_a_grid_too_coarse_for_the_peak_raises(monkeypatch):
    """M = 1, Q = 64 gives the box's narrowest peak; 64 intervals cannot hold it."""
    monkeypatch.setattr(detector, "_K", 64)
    monkeypatch.setattr(detector, "_STEPS", np.linspace(0.0, 1.0, 65))
    with pytest.raises(ConvergenceError, match="fading average error estimate"):
        _faded_miss(1, calibrate_lambda(1, 0.01), 1.0, 64)


# Near the worst low-SNR corner of the box the rule's 1e-10 error can carry
# the miss past 1 (1 + 3.7e-12 and 1 + 6.4e-12 before the clamp).
@pytest.mark.parametrize("m, alpha, q, snr_db", [(8090, 2.145e-12, 1, -37.7),
                                                 (7168, 1.34e-12, 24, -36.8)],
                         ids=["noncoop", "selection"])
def test_a_miss_rounded_above_one_reads_one(m, alpha, q, snr_db):
    assert _faded_miss(m, calibrate_lambda(m, alpha), 10.0 ** (snr_db / 10.0), q) == 1.0
