"""
Type-I error and power across a mean-shift grid
===============================================

Runs the built-in experiment driver over a grid of group-2 mean shifts,
comparing the graph-aware statistics against Hotelling's T^2 and the two
high-dimensional baselines, and puts the simulated power next to the
asymptotic lower bound computed from each replicate's true model.

Runs in a few seconds with the settings below.
"""

from dataclasses import replace

import numpy as np

from dagtest import (
    SimConfig,
    gen_dataset,
    power_lower_bound,
    run_delta_grid,
)

METHODS = ("t2dag_chi2", "t2dag_z", "hotelling", "bai_saranadasa", "chen_qin")
BASE = SimConfig(n1=30, n2=30, p=20, replicates=400, seed=5)
GRID = (0.0, 0.1, 0.2, 0.3)

# ---------------------------------------------------------------------------
# Rejection rates per method, one table per grid point. Every grid point sees
# the same replicates (graphs, coefficients, noise), each drawn once.
# ---------------------------------------------------------------------------
tables = run_delta_grid(BASE, GRID, METHODS, threads=4)

print(f"{'delta':>6}" + "".join(f"{m:>16}" for m in METHODS))
for d, table in zip(GRID, tables):
    rates = {row.method: row.rate for row in table.rows}
    print(f"{d:>6.2f}" + "".join(f"{rates[m]:>16.3f}" for m in METHODS))

# ---------------------------------------------------------------------------
# The theoretical lower bound on the standardized test's power, averaged
# over the replicates' randomly drawn graphs and coefficients.
# ---------------------------------------------------------------------------
print()
print(f"{'delta':>6}{'simulated z power':>20}{'mean lower bound':>18}")
for d, table in zip(GRID, tables):
    cfg = replace(BASE, delta=d)
    bounds = []
    for rep in range(cfg.replicates):
        _, _, _, model = gen_dataset(cfg, rep)
        bounds.append(power_lower_bound(model, cfg.n1, cfg.n2, cfg.p, cfg.alpha))
    z_rate = {row.method: row.rate for row in table.rows}["t2dag_z"]
    print(f"{d:>6.2f}{z_rate:>20.3f}{np.mean(bounds):>18.3f}")

print()
print("The bound is asymptotic in the effective sample size: it is exactly")
print("zero until the separation clears the critical value and saturates at")
print("strong signals. At modest n it can land on either side of the")
print("simulated curve mid-transition (it ignores both the alternative's")
print("variance inflation and the noise in the fitted precision), so treat")
print("it as a planning guide, not a finite-sample guarantee.")
