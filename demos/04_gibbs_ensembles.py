"""Interacting bridge ensembles under the exponential interaction penalty.

The Boltzmann weight reweights independent bridges; its mean is the
acceptance probability, which prices exact rejection sampling.  It is
computed exactly by one transfer sweep and checked here against the Monte
Carlo mean of the weight over free bridges.  Raising the bottom boundary
curve squeezes the ensemble and lowers the acceptance rate.
"""

import math

import numpy as np

from gibbslines import gibbs as gb
from gibbslines.bridge import HrwSpec

hrw = HrwSpec.log_gamma(1.0)
rng = np.random.default_rng(1)
T, k = 8, 2
x = [0.0, -2.0]

spec = gb.EnsembleSpec.make(1, k, 0, T, x, x, hrw, gb.InteractionSpec.exp(0, T))
zero = gb.EnsembleSpec.make(1, k, 0, T, x, x, hrw, gb.InteractionSpec.zero(0, T))
z = gb.acceptance_probability(spec)
n_mc = 4000
free, _ = gb.sample_ensembles_rejection(zero, n_mc, rng)  # free bridges: every draw accepted
w = np.array([gb.boltzmann_weight(spec, curves) for curves in free])
print(f"Two curves, {T} steps, exponential interaction:")
print(f"  acceptance probability Z = {z:.6f} (transfer sweep, 256-point grid)")
print(f"  Monte Carlo check: {w.mean():.4f} +- {w.std(ddof=1) / math.sqrt(n_mc):.4f} "
      f"({n_mc} free-bridge ensembles)")

ens, attempts = gb.sample_ensemble_rejection(spec, rng)
print(f"  one exact draw took {attempts} proposals (expect ~{1/z:.1f})")
print("  curve 1:", np.array2string(ens.curve(1), precision=2))
print("  curve 2:", np.array2string(ens.curve(2), precision=2))

print("\nZero interaction is the free case: weight identically 1, first draw accepted:")
print(f"  Z = {gb.acceptance_probability(zero)} exactly")

print("\nRaising the bottom boundary lowers Z:")
for height in (-6.0, -3.0, -1.5, -0.5):
    g_spec = gb.EnsembleSpec.make(
        1, 1, 0, 6, [0.0], [0.0], hrw, gb.InteractionSpec.exp(0, 6), g=[height] * 7
    )
    print(f"  bottom at {height:5.1f}: Z = {gb.acceptance_probability(g_spec):.4f}")

print("\nResampling invariance (the defining conditional property):")
spec3 = gb.EnsembleSpec.make(
    1, 3, 0, 6, [0.0, -2.0, -4.0], [0.0, -2.0, -4.0], hrw, gb.InteractionSpec.exp(0, 6)
)
report = gb.gibbs_invariance_check(spec3, (1, 2, 1, 5), 2000, rng)
print(f"  worst probe KS {report['ks_max'][0]:.4f}  "
      f"(1% critical {report['ks_critical_1pct'][0]:.4f})")
