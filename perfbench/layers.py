"""Traced functions of each specsense module and the per-layer metrics built from them.

Layers are named after the modules: specfun, channel, detector, fusion,
reconfig, simkit, cli.  Counts and times are per traced pass.
"""

from __future__ import annotations

import math
import statistics

from .trace import Target


def _samples(counters, args, kwargs, result):
    counters["channel.draw_snr.samples"] += result.size


def _block_trials(counters, args, kwargs, result):
    # _batch_decisions(config, hypothesis, gen, n): the trials one block drew.
    counters["simkit.trials_drawn"] += args[3] if len(args) > 3 else kwargs["n"]


def _estimate(counters, args, kwargs, est):
    hypothesis = args[1] if len(args) > 1 else kwargs["hypothesis"]
    requested = args[2] if len(args) > 2 else kwargs["trials"]
    counters["simkit.trials_counted"] += est.trials
    # Tenfold escalation steps (the last one may be cut short by max_trials).
    counters["simkit.escalations"] += math.ceil(math.log10(est.trials / requested) - 1e-9)
    if hypothesis == "H1":
        counters["simkit.events"] += est.trials - est.events  # missed detections


TARGETS = (
    Target("specsense.specfun", "reg_upper_gamma", "specfun.reg_gamma"),
    Target("specsense.specfun", "reg_lower_gamma", "specfun.reg_gamma"),
    Target("specsense.specfun", "inv_reg_upper_gamma", "specfun.inv_gamma"),
    Target("specsense.specfun", "log_binom", "specfun.log_binom"),
    Target("specsense.channel.RandomStream", "generator", "channel.generator"),
    Target("specsense.channel", "draw_snr", "channel.draw_snr", _samples),
    Target("specsense.detector", "avg_pd_numeric", "detector.avg_pd"),
    Target("specsense.detector", "calibrate_lambda", "detector.calibrate"),
    Target("specsense.fusion", "calibrate_local_lambda_global", "fusion.calibrate"),
    Target("specsense.fusion", "binom_tail", "fusion.binom_tail"),
    Target("specsense.fusion", "global_pmd", "fusion.global_pmd"),
    Target("specsense.reconfig", "avg_pmd_selection", "reconfig.selection"),
    Target("specsense.reconfig", "avg_pmd_switching", "reconfig.switching"),
    Target("specsense.simkit", "estimate_point", "simkit.estimate_point", _estimate),
    Target("specsense.simkit", "sweep", "simkit.sweep"),
    Target("specsense.simkit", "_batch_decisions", None, _block_trials),
    Target("specsense.cli", "main", "cli.main"),
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("specfun.reg_gamma.calls", "count", "lower"),
    ("specfun.reg_gamma.self_s", "s", "lower"),
    ("specfun.reg_gamma.us_per_call", "us", "lower"),
    ("specfun.inv_gamma.calls", "count", "lower"),
    ("specfun.inv_gamma.self_s", "s", "lower"),
    ("specfun.inv_gamma.evals_per_call", "count", "lower"),
    ("specfun.log_binom.calls", "count", "lower"),
    ("specfun.log_binom.self_s", "s", "lower"),
    ("channel.blocks", "count", "lower"),
    ("channel.generator.self_s", "s", "lower"),
    ("channel.draw_snr.calls", "count", "lower"),
    ("channel.draw_snr.samples", "count", "lower"),
    ("channel.draw_snr.self_s", "s", "lower"),
    ("channel.draw_snr.ns_per_sample", "ns", "lower"),
    ("detector.avg_pd.calls", "count", "lower"),
    ("detector.avg_pd.self_s", "s", "lower"),
    ("detector.avg_pd.ms_p50", "ms", "lower"),
    ("detector.avg_pd.ms_p99", "ms", "lower"),
    ("detector.avg_pd.evals_per_call", "count", "lower"),
    ("detector.calibrate.calls", "count", "lower"),
    ("detector.calibrate.self_s", "s", "lower"),
    ("fusion.calibrate.calls", "count", "lower"),
    ("fusion.calibrate.self_s", "s", "lower"),
    ("fusion.calibrate.ms_p50", "ms", "lower"),
    ("fusion.calibrate.ms_p99", "ms", "lower"),
    ("fusion.binom_tail.calls", "count", "lower"),
    ("fusion.binom_tail.self_s", "s", "lower"),
    ("fusion.binom_tail_per_calibration", "count", "lower"),
    ("fusion.global_pmd.calls", "count", "lower"),
    ("fusion.global_pmd.self_s", "s", "lower"),
    ("reconfig.selection.calls", "count", "lower"),
    ("reconfig.selection.self_s", "s", "lower"),
    ("reconfig.selection.ms_p50", "ms", "lower"),
    ("reconfig.selection.evals_per_call", "count", "lower"),
    ("reconfig.switching.calls", "count", "lower"),
    ("reconfig.switching.self_s", "s", "lower"),
    ("simkit.estimate_point.calls", "count", "lower"),
    ("simkit.estimate_point.self_s", "s", "lower"),
    ("simkit.trials_counted", "count", "higher"),
    ("simkit.trials_drawn", "count", "lower"),
    ("simkit.useful_ratio", "fraction", "higher"),
    ("simkit.escalations", "count", "lower"),
    ("simkit.events", "count", "higher"),
    ("simkit.trials_per_100_events", "count", "lower"),
    ("simkit.calibrations_per_curve", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(durations, q: int) -> float:
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


_COUNTED_SPANS = ("specfun.reg_gamma", "specfun.inv_gamma", "specfun.log_binom",
                  "channel.draw_snr", "detector.avg_pd", "detector.calibrate",
                  "fusion.calibrate", "fusion.binom_tail", "fusion.global_pmd",
                  "reconfig.selection", "reconfig.switching", "simkit.estimate_point")


def layer_metrics(tracer, passes: int, pass_counts: dict, overhead_s: float):
    """Per-layer metric values per traced pass, and notes on why some read 0."""
    notes: dict = {}
    stats, edges, counters = tracer.stats, tracer.edges, tracer.counters

    def calls(span):
        return stats[span].calls if span in stats else 0

    def self_s(span):
        return stats[span].self_s if span in stats else 0.0

    def durations(span):
        return stats[span].durations if span in stats else []

    values = {}
    for span in _COUNTED_SPANS:
        values[f"{span}.calls"] = calls(span) / passes
        values[f"{span}.self_s"] = self_s(span) / passes
        if not calls(span):
            notes[span] = "no calls on this workload"
    values["specfun.reg_gamma.us_per_call"] = 1e6 * _ratio(
        self_s("specfun.reg_gamma"), calls("specfun.reg_gamma"))
    values["specfun.inv_gamma.evals_per_call"] = _ratio(
        edges[("specfun.inv_gamma", "specfun.reg_gamma")], calls("specfun.inv_gamma"))
    values["channel.blocks"] = calls("channel.generator") / passes
    values["channel.generator.self_s"] = self_s("channel.generator") / passes
    samples = counters["channel.draw_snr.samples"]
    values["channel.draw_snr.samples"] = samples / passes
    values["channel.draw_snr.ns_per_sample"] = 1e9 * _ratio(self_s("channel.draw_snr"), samples)
    for span in ("detector.avg_pd", "fusion.calibrate", "reconfig.selection"):
        values[f"{span}.ms_p50"] = _percentile_ms(durations(span), 50)
    for span in ("detector.avg_pd", "fusion.calibrate"):
        values[f"{span}.ms_p99"] = _percentile_ms(durations(span), 99)
    # Quadrature nodes and solver iterations: kernel calls made directly inside a span.
    values["detector.avg_pd.evals_per_call"] = _ratio(
        edges[("detector.avg_pd", "specfun.reg_gamma")], calls("detector.avg_pd"))
    values["reconfig.selection.evals_per_call"] = _ratio(
        edges[("reconfig.selection", "specfun.reg_gamma")], calls("reconfig.selection"))
    values["fusion.binom_tail_per_calibration"] = _ratio(
        edges[("fusion.calibrate", "fusion.binom_tail")], calls("fusion.calibrate"))

    drawn, counted = counters["simkit.trials_drawn"], counters["simkit.trials_counted"]
    values["simkit.trials_counted"] = counted / passes
    values["simkit.trials_drawn"] = drawn / passes
    values["simkit.useful_ratio"] = _ratio(counted, drawn)
    values["simkit.escalations"] = counters["simkit.escalations"] / passes
    values["simkit.events"] = counters["simkit.events"] / passes
    values["simkit.trials_per_100_events"] = 100 * _ratio(drawn, counters["simkit.events"])
    # A calibration that calls another (fusion with N = 1) counts once.
    calibrations = (calls("fusion.calibrate") + calls("detector.calibrate")
                    - edges[("fusion.calibrate", "detector.calibrate")])
    values["simkit.calibrations_per_curve"] = _ratio(calibrations, calls("simkit.sweep"))
    if not calls("simkit.sweep"):
        notes["simkit.sweep"] = "no Monte Carlo curve on this workload"

    values["cli.self_s"] = self_s("cli.main") / passes
    values["cli.rows"] = pass_counts.get("cli.rows", 0)
    values["cli.csv_bytes"] = pass_counts.get("cli.csv_bytes", 0)
    if not calls("cli.main"):
        notes["cli.main"] = "the workload does not go through the CLI"
    values["trace.overhead_s"] = overhead_s
    for missing in tracer.missing:
        notes[missing] = "not found, so not traced"
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}, notes
