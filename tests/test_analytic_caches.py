"""The per-operating-point caches of the analytic path change no bit.

The terms of an analytic column that do not depend on the SNR are computed
once per operating point (``functools.lru_cache`` helpers in the analytic
modules).  Each value here is computed once with every cache cleared and
once in a sequence over many operating points that leaves the caches warm,
and the two must have the same ``float.hex``.
"""

import json
import sys
from pathlib import Path

import pytest

from specsense import AvgSnr
from specsense.cli import ScenarioFile, analytic_columns, build_config, figure_setups
from specsense.detector import _faded_miss, _threshold_side, calibrate_lambda
from specsense.reconfig import ReconfigParams, avg_pmd_switching
from specsense.specfun import ConvergenceError

GRID_DB = [-20.0 + 0.5 * i for i in range(121)]
REFS = json.loads((Path(__file__).parent / "reference" / "faded_miss_refs.json").read_text())


def caches():
    """Every lru_cache bound at module level in the specsense package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "specsense" or name.startswith("specsense."):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)):
                    found[f"{value.__module__}.{attr}"] = value
    return found


def clear_caches():
    for cache in caches().values():
        cache.cache_clear()


def _hex(values):
    return tuple(float.hex(v) for v in values)


def _cold(fn, *args):
    clear_caches()
    return fn(*args)


def test_the_analytic_path_has_its_three_caches():
    assert set(caches()) == {"specsense.detector._threshold_side",
                             "specsense.reconfig._switching_prefactor",
                             "specsense.simkit._pf_column"}


def test_figure_columns_cold_and_warm_are_the_same_bits():
    cells = [(which, label, build_config(sc), s)
             for which in ("fig1", "fig2", "fig3")
             for label, sc in figure_setups(which) for s in GRID_DB]
    assert len(cells) == 1694
    clear_caches()
    warm = [_hex(analytic_columns(config, s)) for _, _, config, s in cells]
    for (which, label, config, s), want in zip(cells, warm):
        assert _hex(_cold(analytic_columns, config, s)) == want, (which, label, s)


def test_reference_cells_cold_and_warm_are_the_same_bits():
    args = [(c["m"], c["lam"], 10.0 ** (c["snr_db"] / 10.0), c["q"]) for c in REFS["cells"]]
    clear_caches()
    warm = [float.hex(_faded_miss(*a)) for a in args]
    for a, want in zip(args, warm):
        assert float.hex(_cold(_faded_miss, *a)) == want, a


def test_cached_threshold_side_is_read_only():
    _, _, gamma_part, bulk = _threshold_side(10, 20.0)
    for array in (gamma_part, bulk):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_fig2_switching_column_reads_one_at_all_41_default_points():
    config = build_config(dict(figure_setups("fig2"))["switching"])
    grid = ScenarioFile().snr_grid_db
    assert len(grid) == 41
    assert [analytic_columns(config, s)[1] for s in grid] == [1.0] * 41


def test_switching_beyond_double_range_raises_cold_and_warm():
    # The prefactor is cached; the range check is made at every call.
    params = ReconfigParams(q=10, m=1000, lam=calibrate_lambda(1000, 0.05))
    clear_caches()
    for _ in range(2):
        with pytest.raises(ConvergenceError):
            avg_pmd_switching(params, AvgSnr.from_db(0.0))
