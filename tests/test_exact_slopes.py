"""Exact local slopes on the grids of acceptance criterion 7.

Criterion 7 holds each Monte Carlo diversity slope within a band of the
diversity order.  The exact miss on the same grids has a local slope of its
own, and for some configurations it sits close to the band's edge: the
Monte Carlo estimate passes only if its noise does not carry it across.
These tests pin the exact slopes of ``cli.analytic_columns`` and print each
one's margin inside the band.  Switching is left out: its analytic column is
an asymptote, not the miss probability.
"""

import numpy as np
import pytest

import specsense as ss
from specsense.cli import analytic_columns
from specsense.detector import calibrate_lambda

# (name, config, criterion 7's grid, diversity order, band, exact slope)
RUNS = [
    ("noncoop M=10", ss.SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05),
     [25.0, 30.0, 35.0, 40.0, 45.0], 1.0, 0.1, 0.9996),
    ("coop N=3 M=8", ss.SchemeConfig.coop(3, 1, 8, 1.0, 1.0, alpha=0.05),
     [8.0, 10.0, 12.0, 14.0, 16.0, 18.0], 3.0, 0.3, 2.8468),
    ("coop N=5 M=10", ss.SchemeConfig.coop(5, 1, 10, 1.0, 1.0, alpha=0.05),
     [8.0, 9.0, 10.0, 11.0, 12.0], 5.0, 0.5, 4.6187),
    ("selection Q=4 M=20",
     ss.SchemeConfig.selection(4, 20, calibrate_lambda(20, 0.05), 1.0),
     [6.0, 8.0, 10.0, 12.0], 4.0, 0.4, 3.6695),
]


def exact_slope(config, grid_db) -> float:
    """Negated least-squares slope of log10 pmd against log10 gamma_bar."""
    pmds = [analytic_columns(config, s)[1] for s in grid_db]
    return -float(np.polyfit(np.array(grid_db) / 10.0, np.log10(pmds), 1)[0])


@pytest.mark.parametrize("name, config, grid, want, band, slope",
                         RUNS, ids=[r[0] for r in RUNS])
def test_exact_slope_on_the_criterion_7_grid(name, config, grid, want, band, slope):
    got = exact_slope(config, grid)
    margin = band - abs(got - want)
    print(f"{name}: exact slope {got:.4f}, band {want} +- {band}, margin {margin:.3f}")
    assert got == pytest.approx(slope, abs=5e-4)
    assert margin > 0.0
