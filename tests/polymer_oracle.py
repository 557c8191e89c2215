"""Exact multi-path polymer partition functions: the independent oracle that
the gRSK pass of ``gibbslines.polymer`` is checked against.

The single-path dynamic program

    Z_r(i, j) = d_{i,j} (Z_r(i-1, j) + Z_r(i, j-1)),   Z_r(1, r) = d_{1,r},

runs on the raw weights in ``mpmath`` at ``DPS`` significant digits, one
table per start row r, and tau_{k,l}(n) is the Lindstrom-Gessel-Viennot
determinant det[Z_r(n, k + s - l)]_{r,s=1..l}.  Nothing is rounded to double
before the final logarithm, so the determinant's cancellation (which costs
the double route every digit at N = 32) stays far below the tolerances.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from gibbslines.polymer import sample_weight_field

DPS = 60


def _path_tables(entries: np.ndarray, n_start_rows: int) -> list:
    """tables[r][i][j] = Z_{r+1}(i+1, j+1), zero where unreachable."""
    n_max, n_rows = entries.shape
    d = [[mp.mpf(float(v)) for v in row] for row in entries]
    tables = []
    for r in range(n_start_rows):
        z = [[mp.mpf(0)] * n_rows for _ in range(n_max)]
        for i in range(n_max):
            for j in range(r, n_rows):
                if i == 0 and j == r:
                    z[i][j] = d[i][j]
                else:
                    left = z[i - 1][j] if i else 0
                    below = z[i][j - 1] if j > r else 0
                    z[i][j] = d[i][j] * (left + below)
        tables.append(z)
    return tables


def _log_tau(tables, k: int, l: int, n: int):
    mat = mp.matrix([[tables[r][n - 1][k + s - l] for s in range(l)] for r in range(l)])
    det = mp.det(mat)
    if not det > 0:
        raise ArithmeticError(f"determinant {mp.nstr(det, 5)} <= 0 at {DPS} digits")
    return mp.log(det)


def log_tau(entries: np.ndarray, k: int, l: int, n: int) -> float:
    """log tau_{k,l}(n) of a raw weight matrix (n >= l), rounded to double at the end."""
    with mp.workdps(DPS):
        return float(_log_tau(_path_tables(np.asarray(entries, dtype=float), l), k, l, n))


def polymer_log_z(theta: float, N: int, k_top: int, seed) -> np.ndarray:
    """log z_{2N,l}(n) for l = 1..k_top and n = N..3N, shape (k_top, 2N + 1),
    on the environment ``polymer_line_ensemble(theta, N, k_top, seed)`` draws."""
    field = sample_weight_field(theta, 3 * N, 2 * N, seed)
    out = np.empty((k_top, 2 * N + 1))
    with mp.workdps(DPS):
        tables = _path_tables(field.entries, k_top)
        for col, n in enumerate(range(N, 3 * N + 1)):
            prev = mp.mpf(0)
            for l in range(1, k_top + 1):
                cur = _log_tau(tables, 2 * N, l, n)
                out[l - 1, col] = float(cur - prev)
                prev = cur
    return out
