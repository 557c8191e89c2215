"""Four routes to the multi-path polymer partition function.

On a small inverse-gamma environment we compute tau_{k,l}(n) by brute-force
enumeration of vertex-disjoint path tuples, by the determinant of single-path
partition functions, by the geometric RSK pass the library runs on, and (for
one path) by the lattice dynamic program -- then build the centered line
ensemble from the telescoping ratios.
"""

import numpy as np

from gibbslines import polymer as pm
from gibbslines.special import scaling_constants

theta = 1.0
field = pm.sample_weight_field(theta, n_max=5, n_rows=4, seed=7)
print("A 5 x 4 inverse-gamma environment (theta = 1):")
print(np.array2string(field.entries.T[::-1], precision=3))
print()

print("log tau_{k,l}(n): enumeration vs determinant vs gRSK vs dynamic program")
print(f"{'(k,l,n)':>10} {'enumeration':>14} {'determinant':>14} {'gRSK':>14} {'DP (l=1)':>14}")
for (k, l, n) in [(2, 1, 3), (3, 2, 4), (4, 2, 5), (4, 3, 5), (4, 4, 4)]:
    brute = pm.tau_bruteforce(field, k, l, n)
    det = pm.tau_lgv(field, k, l, n)
    grsk = pm.build_partition_table(field, k, l, [n]).value(l, n)
    dp = pm.single_path_partition(field, n, k)[-1, -1] if l == 1 else float("nan")
    print(f"  ({k},{l},{n})  {brute:14.9f} {det:14.9f} {grsk:14.9f} {dp:14.9f}")

print("\nEmpty families vanish by convention: tau_{3,3}(2) ->", pm.tau_bruteforce(field, 3, 3, 2))

print("\nTelescoping ratios z pick the partition functions apart:")
table = pm.build_partition_table(field, k=4, l_max=3, n_values=[4, 5])
z = pm.z_array(table, 4, [4, 5])
print("log z_{4,l}(n) for l = 1,2,3 and n = 4,5:")
print(np.array2string(z, precision=5))
print("column sums reproduce log tau exactly:", np.allclose(z.sum(axis=0), table.log_tau[3]))

print("\nThe centered line ensemble at N = 4 (top two curves):")
ens = pm.polymer_line_ensemble(theta, N=4, k_top=2, seed=11)
c = scaling_constants(theta)
print("centering shift 2N h_theta(1) =", 8 * c.h_theta_1)
for i in (1, 2):
    vals = " ".join(f"{ens.value(i, j):8.3f}" for j in range(-4, 5))
    print(f"  curve {i}: {vals}")
print("curve 1 dominates curve 2 pointwise:", bool(np.all(ens.curves[0] > ens.curves[1])))
