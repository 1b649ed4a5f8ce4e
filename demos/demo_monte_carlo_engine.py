"""The Monte Carlo engine: reproducibility, confidence intervals, slope fits.

Estimates are built from 65536-trial blocks, each drawn from a counter-based
Philox substream keyed by (seed, point, block).  That makes every number
bit-exact reproducible and lets deep-tail points escalate their trial count
without disturbing anything else.  The blocks of a point run on a thread pool
sized to the CPU affinity, and each escalation step reuses the complete blocks
already counted; the estimates keep the same bits either way.

Run:  python demos/demo_monte_carlo_engine.py
"""

import specsense as ss
from specsense import AvgSnr, RandomStream

lam = ss.calibrate_lambda(10, 0.05)
cfg = ss.SchemeConfig.noncoop(10, lam, AvgSnr.from_db(5.0))

print("1. Determinism: same seed -> bit-identical estimate")
a = ss.estimate_point(cfg, "H1", 200_000, seed=123)
b = ss.estimate_point(cfg, "H1", 200_000, seed=123)
c = ss.estimate_point(cfg, "H1", 200_000, seed=124)
print(f"   seed 123: {a.value:.6f} +- {a.ci_halfwidth:.6f} (99% CI)")
print(f"   seed 123: {b.value:.6f}  identical: {a == b}")
print(f"   seed 124: {c.value:.6f}  (different stream, same physics)\n")

print("2. Cross-check against the analytic average")
want = 1.0 - ss.avg_pd_numeric(10, lam, AvgSnr.from_db(5.0))
print(f"   quadrature pmd {want:.6f}, MC {1 - a.value:.6f}, "
      f"|diff| {abs(1 - a.value - want):.6f} < CI {a.ci_halfwidth:.6f}\n")

print("3. Deep-tail escalation: trials grow tenfold until 100 misses")
deep = ss.estimate_point(cfg.with_snr(AvgSnr.from_db(30.0)), "H1", 1000,
                         seed=5, min_events=100, max_trials=10 ** 7)
misses = deep.trials - deep.events
print(f"   started at 1000 trials, settled at {deep.trials} with "
      f"{misses} misses (pmd {1 - deep.value:.3e})\n")

print("4. Diversity slope from a sweep (single user -> slope 1)")
curve = ss.sweep(ss.SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05),
                 [25.0, 30.0, 35.0, 40.0], 100_000, seed=58,
                 min_events=100, max_trials=10 ** 7)
for p in curve.points:
    print(f"   {p.snr_db:+.0f} dB  pmd {p.pmd.value:.3e} "
          f"({p.pmd.events} events / {p.pmd.trials} trials)")
print(f"   fitted slope: {ss.fit_diversity_slope(curve, (25, 40)):.3f}\n")

print("5. Raw substreams for custom experiments")
stream = RandomStream(seed=2024, stream_id=3)
gen = stream.generator()
print(f"   first three uniforms of (seed=2024, stream=3): {gen.random(3)}")
print("   ...and the same stream again:                   "
      f"{stream.generator().random(3)}")
