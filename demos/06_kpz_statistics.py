"""KPZ-scaled statistics of the polymer: one-point fluctuations against a GUE
edge oracle, and the parabolic shape of the mean profile.

Sizes here are trimmed for a quick run; the acceptance suite runs the full
2000-sample version.
"""

import numpy as np

from gibbslines import polymer as pm
from gibbslines import stats as st
from gibbslines.special import scaling_constants

theta, N = 1.0, 32
consts = scaling_constants(theta)
print(f"theta = {theta}, N = {N}: slope p = {consts.p:.4f}, curvature lam = {consts.lam:.4f}")

curves = pm.sample_top_curves(theta, N, 800, seed=123)
tw = st.tw_statistics_from_values(curves[:, N], consts, N, 0)
print(f"\n800 centered free energies, edge-rescaled:")
print(f"  mean {tw.mean():+.3f}, std {tw.std(ddof=1):.3f}")

gue = st.gue_tw_oracle(150, 800, np.random.default_rng(9))
print(f"GUE largest-eigenvalue oracle (tridiagonal beta = 2 model, M = 150): mean {gue.mean():+.3f}")
print(f"KS distance polymer vs GUE edge: {st.ks_distance(st.EmpiricalCDF(tw), gue):.4f}")

n_values = np.arange(-2, 3)
profile, errs = st.profile_points(curves, -N, consts, N, n_values)
fit = st.parabola_fit(n_values, profile, errs)
print("\nMean tilted profile across the window (should bend like -lam n^2):")
for n, v, e in zip(n_values, profile, errs):
    print(f"  n = {n:+d}: {v:+.3f} +- {e:.3f}")
print(f"fitted curvature {fit.lam_hat:.4f} vs lam = {consts.lam:.4f}")

scaled = st.kpz_scale(
    pm.polymer_line_ensemble(theta, 8, 2, seed=77), consts, 8
)
w = st.modulus_of_continuity(scaled.s_grid, scaled.values[0], 0.25)
print(f"\nModulus of continuity of a scaled top curve at delta = 0.25: {w:.3f}")
