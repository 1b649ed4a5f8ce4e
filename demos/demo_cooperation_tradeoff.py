"""To cooperate or not: matched-budget comparison of fusion vs a single user.

With the total sample budget fixed at N*M, a single user sensing all N*M
samples buys coding gain, while an OR-rule network of N users buys diversity
order N.  The curves cross: below the crossover SNR it is better not to
cooperate.  Everything here is analytic (quadrature), so it runs in seconds.

Run:  python demos/demo_cooperation_tradeoff.py
"""

import math

import numpy as np

import specsense as ss
from specsense import AvgSnr

ALPHA = 0.01
GRID_DB = np.arange(-16.0, 13.0, 1.0)


def curves_for_budget(nm):
    root = int(math.isqrt(nm))
    lam_su = ss.calibrate_lambda(nm, ALPHA)
    lam_mu = ss.calibrate_local_lambda_global(root, 1, root, ALPHA)
    coop = ss.FusionParams(
        n_users=root, n_vote=1,
        per_user=ss.DetectorParams(m=root, lam=lam_mu))
    single = [1.0 - ss.avg_pd_numeric(nm, lam_su, AvgSnr.from_db(s))
              for s in GRID_DB]
    network = [ss.global_pmd(coop, AvgSnr.from_db(s)) for s in GRID_DB]
    return single, network


def crossover_db(single, network):
    diff = np.asarray(single) - np.asarray(network)
    for i in range(len(diff) - 1):
        if diff[i] * diff[i + 1] < 0:
            f = diff[i] / (diff[i] - diff[i + 1])
            return GRID_DB[i] + f * (GRID_DB[i + 1] - GRID_DB[i])
    return None


print(f"OR-rule fusion vs single user at global alpha = {ALPHA}")
results = {}
for nm in (4, 25, 100):
    single, network = curves_for_budget(nm)
    results[nm] = (single, network)
    x = crossover_db(single, network)
    print(f"  budget NM={nm:3d}: crossover at "
          f"{'none in range' if x is None else f'{x:+.2f} dB'}"
          f" - cooperate only above it")

single, network = results[100]
print("\nNM=100 detail (missed detection):")
print(f"{'SNR dB':>7} {'single user':>12} {'OR network':>12}")
for s, a, b in zip(GRID_DB[::4], single[::4], network[::4]):
    print(f"{s:>+7.0f} {a:>12.4e} {b:>12.4e}")

g_su = ss.gains_single(100, ss.calibrate_lambda(100, ALPHA))
lam_mu = ss.calibrate_local_lambda_global(10, 1, 10, ALPHA)
g_mu = ss.gains_coop(ss.FusionParams(
    n_users=10, n_vote=1,
    per_user=ss.DetectorParams(m=10, lam=lam_mu)))
print(f"\nGain summary at NM=100: single user d={g_su.diversity:.0f}, "
      f"A={g_su.coding_gain:.3f}; network d={g_mu.diversity:.0f}, "
      f"A={g_mu.coding_gain:.3f}")
print(f"coding-gain ratio {g_su.coding_gain / g_mu.coding_gain:.2f}x = "
      f"{10 * math.log10(g_su.coding_gain / g_mu.coding_gain):.1f} dB in "
      f"favour of the single user; diversity 10x in favour of the network")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 5))
    for nm, style in ((4, ":"), (25, "--"), (100, "-")):
        single, network = results[nm]
        ax.semilogy(GRID_DB, single, "C0" + style, label=f"single, NM={nm}")
        ax.semilogy(GRID_DB, network, "C1" + style, label=f"OR fusion, NM={nm}")
    ax.set_xlabel("average SNR (dB)")
    ax.set_ylabel("missed detection probability")
    ax.set_ylim(1e-6, 1.0)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo_cooperation_tradeoff.png", dpi=120)
    print("\nwrote demo_cooperation_tradeoff.png")
