"""Spectrum sensing performance analytics for energy detection under fading.

Closed-form and asymptotic operating points for non-cooperative, cooperative
(n-out-of-N fusion), and reconfigurable-antenna (state switching / state
selection) sensing, with a reproducible Monte Carlo engine that validates
every formula, and a CLI experiment runner that reproduces the reference
sweeps as CSV.
"""

from .channel import AvgSnr, RandomStream
from .detector import (
    DetectorParams,
    GainSummary,
    avg_pd_closed,
    avg_pd_numeric,
    calibrate_lambda,
    gains_single,
    pd_single,
    pf_single,
)
from .fusion import (
    FusionParams,
    binom_tail,
    calibrate_local_lambda_global,
    gains_coop,
    global_pf,
    global_pmd,
)
from .reconfig import (
    ReconfigParams,
    allocate_samples,
    avg_pmd_selection,
    avg_pmd_switching,
    diversity_reconfig,
    reduced_samples,
    selection_gain,
)
from .simkit import (
    McEstimate,
    SchemeConfig,
    SweepCurve,
    SweepPoint,
    estimate_point,
    fit_diversity_slope,
    sweep,
)
from .specfun import ConvergenceError

__version__ = "0.1.0"

__all__ = [
    "AvgSnr",
    "ConvergenceError",
    "DetectorParams",
    "FusionParams",
    "GainSummary",
    "McEstimate",
    "RandomStream",
    "ReconfigParams",
    "SchemeConfig",
    "SweepCurve",
    "SweepPoint",
    "allocate_samples",
    "avg_pd_closed",
    "avg_pd_numeric",
    "avg_pmd_selection",
    "avg_pmd_switching",
    "binom_tail",
    "calibrate_lambda",
    "calibrate_local_lambda_global",
    "diversity_reconfig",
    "estimate_point",
    "fit_diversity_slope",
    "gains_coop",
    "gains_single",
    "global_pf",
    "global_pmd",
    "pd_single",
    "pf_single",
    "reduced_samples",
    "selection_gain",
    "sweep",
]
