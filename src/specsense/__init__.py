"""Spectrum sensing performance analytics for energy detection under fading.

Closed-form and asymptotic operating points for non-cooperative, cooperative
(n-out-of-N fusion), and reconfigurable-antenna (state switching / state
selection) sensing, with a reproducible Monte Carlo engine that validates
every formula, and a CLI experiment runner that reproduces the reference
sweeps as CSV.
"""

from .channel import (
    AvgSnr,
    RandomStream,
    max_state_pdf_dominant,
    max_state_pdf_exact,
)
from .detector import (
    DetectorParams,
    GainSummary,
    asymptotic_pmd_single,
    avg_pd_closed,
    avg_pd_numeric,
    calibrate_lambda,
    gains_single,
    pd_single,
    pf_single,
)
from .fusion import (
    FusionParams,
    asymptotic_pmd_coop,
    binom_tail,
    calibrate_local_lambda_global,
    gains_coop,
    global_pd,
    global_pf,
    global_pmd,
)
from .reconfig import (
    ReconfigParams,
    WeightedChiSqSpec,
    allocate_samples,
    avg_pmd_selection,
    avg_pmd_switching,
    diversity_reconfig,
    pmd_selection_conditional,
    pmd_switching_asymptotic_conditional,
    pmd_switching_conditional,
    reduced_samples,
    selection_gain,
    selection_gain_large_q,
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
    "WeightedChiSqSpec",
    "allocate_samples",
    "asymptotic_pmd_coop",
    "asymptotic_pmd_single",
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
    "global_pd",
    "global_pf",
    "global_pmd",
    "max_state_pdf_dominant",
    "max_state_pdf_exact",
    "pd_single",
    "pf_single",
    "pmd_selection_conditional",
    "pmd_switching_asymptotic_conditional",
    "pmd_switching_conditional",
    "reduced_samples",
    "selection_gain",
    "selection_gain_large_q",
    "sweep",
]
