"""How the KPZ scaling constants are assembled from the digamma family.

Walks through the slope bijection g_theta, its inverse, the shape function
h_theta, and the full constant set (slope, curvature, diffusive and
fluctuation scales) for a range of theta.
"""

import numpy as np

from gibbslines import special as sp

print("The slope bijection g_theta maps (0, theta) onto (0, inf),")
print("with g_theta(theta/2) = 1 by symmetry of the trigamma series:\n")
theta = 1.0
for z in (0.1, 0.25, 0.5, 0.75, 0.9):
    print(f"  g_1({z:4.2f}) = {sp.g_theta(theta, z):10.5f}")

print("\nRound trip through the bisection inverse:")
for x in (0.1, 1.0, 10.0):
    z = sp.g_theta_inv(theta, x)
    print(f"  g^-1(1, {x:5.2f}) = {z:.10f}   g(g^-1) = {sp.g_theta(theta, z):.10f}")

print("\nThe shape function h collapses at x = 1: h(1) = 2 psi(theta/2):")
print(f"  h_1(1)          = {sp.h_theta(theta, 1.0):.10f}")
print(f"  2 psi(1/2)      = {2 * sp.digamma(0.5):.10f}")

print("\nFull constant sets (alpha = 2/3 throughout):")
print(f"{'theta':>6} {'p':>10} {'lambda':>10} {'sigma_p':>10} {'d(1)':>10} {'h(1)':>10}")
for th in (0.25, 0.5, 1.0, 2.0, 5.0):
    c = sp.scaling_constants(th)
    print(
        f"{th:6.2f} {c.p:10.5f} {c.lam:10.5f} {c.sigma_p:10.5f} "
        f"{c.d_theta_1:10.5f} {c.h_theta_1:10.5f}"
    )

print("\nCurvature is always positive: lam = psi'(theta/2)^2 / (16 sum_n (n+theta/2)^-3)")
print("is a ratio of positive series, whatever the disorder strength.")
