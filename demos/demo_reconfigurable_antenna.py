"""Reconfigurable-antenna sensing: diversity for one user, one antenna.

Cycling the antenna through Q radiation states inside a sensing window makes
the slow-fading channel look fast-faded, so a single user collects diversity
order min(M, Q) without any cooperation.  With channel knowledge the user
senses on the best state instead and pockets the harmonic-number selection
gain on top.

Monte Carlo here uses modest trial counts (about a second); the analytic
columns come from the library's quadrature forms.

Run:  python demos/demo_reconfigurable_antenna.py
"""

import specsense as ss
from specsense import AvgSnr

ALPHA = 0.05
Q, M = 10, 100
TRIALS = 20_000

lam = ss.calibrate_lambda(M, ALPHA)
alloc = ss.allocate_samples(M, Q)
print(f"Q={Q} antenna states, M={M} samples, alpha={ALPHA}")
print(f"threshold lambda={lam:.2f}, dwell allocation {alloc}")
print(f"diversity order: {ss.diversity_reconfig(M, Q).diversity:.0f} "
      f"(= min(M, Q))")
linear, db = ss.selection_gain(Q)
print(f"selection gain with CSI: H_{Q} = {linear:.4f} = {db:.2f} dB\n")

grid = list(range(-12, 3, 2))
schemes = {
    "noncoop": ss.SchemeConfig.noncoop(M, 1.0, 1.0, alpha=ALPHA),
    "coop N=10": ss.SchemeConfig.coop(10, 1, 10, 1.0, 1.0, alpha=ALPHA),
    "switching": ss.SchemeConfig.switching(Q, M, lam, 1.0),
    "selection": ss.SchemeConfig.selection(Q, M, lam, 1.0),
}
print(f"simulating {len(grid)}-point sweeps at {TRIALS} trials per point...")
curves = {name: ss.sweep(cfg, grid, TRIALS, seed=77, min_events=50,
                         max_trials=2 * 10 ** 6)
          for name, cfg in schemes.items()}

header = f"{'SNR dB':>7}" + "".join(f"{name:>14}" for name in curves)
print("\nmissed detection probability (Monte Carlo)")
print(header)
for i, s in enumerate(grid):
    row = f"{s:>+7.0f}"
    for name in curves:
        row += f"{curves[name].points[i].pmd.value:>14.4e}"
    print(row)

print("\nanalytic selection average for comparison:")
for s in grid[-3:]:
    print(f"  {s:+d} dB: {ss.avg_pmd_selection(M, lam, AvgSnr.from_db(s), Q):.4e}")

print("\nreading the table: switching tracks the single user at low SNR, "
      "then dives with the network-grade slope; selection sits a further "
      f"~{db:.1f} dB to the left.")
