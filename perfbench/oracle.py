"""Exact polymer oracle: 60-digit partition functions for the line ensemble.

The weights are redrawn with the program's public ``sample_weight_field``
(same seed, same field), the up-right dynamic program runs on the raw
weights in ``mpmath`` arithmetic, one table per start row, and tau_{k,l}(n)
is the l x l Lindstrom-Gessel-Viennot determinant of single-path partition
functions.  Nothing here is rounded to double before the final logarithm,
so cancellation in the determinant cannot go unnoticed.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

DPS = 60
ZERO = mp.mpf(0)
ONE = mp.mpf(1)


class OracleError(ArithmeticError):
    """A determinant that must be positive came out <= 0 at oracle precision."""


def _path_tables(entries: np.ndarray, n_start_rows: int) -> list[list[list]]:
    """tables[r][i][j] = sum over up-right paths (1, r+1) -> (i+1, j+1) of the
    product of weights on the path (0 where unreachable)."""
    n_max, n_rows = entries.shape
    d = [[mp.mpf(float(v)) for v in row] for row in entries]
    tables = []
    for r in range(n_start_rows):
        z = [[ZERO] * n_rows for _ in range(n_max)]
        for i in range(n_max):
            for j in range(r, n_rows):
                if i == 0 and j == r:
                    acc = ONE
                else:
                    acc = (z[i - 1][j] if i else ZERO) + (z[i][j - 1] if j > r else ZERO)
                z[i][j] = d[i][j] * acc
        tables.append(z)
    return tables


def _log_tau(tables, k: int, l: int, n: int):
    """log tau_{k,l}(n): determinant over starts (1, r) and ends (n, k + s - l)."""
    mat = mp.matrix(l, l)
    for r in range(l):
        for s in range(l):
            mat[r, s] = tables[r][n - 1][k + s - l]
    det = mp.det(mat)
    if not det > 0:
        raise OracleError(f"determinant {mp.nstr(det, 5)} <= 0 for tau_(k={k}, l={l})({n})")
    return mp.log(det)


def log_tau(entries: np.ndarray, k: int, l: int, n: int) -> float:
    """log tau_{k,l}(n) of a raw weight matrix, rounded to double at the end."""
    with mp.workdps(DPS):
        return float(_log_tau(_path_tables(np.asarray(entries, dtype=float), l), k, l, n))


def polymer_log_z(sample_weight_field, theta: float, N: int, k_top: int, seed) -> np.ndarray:
    """log z_{2N,l}(n) for l = 1..k_top and n = N..3N, shape (k_top, 2N + 1).

    ``sample_weight_field`` is the program's public field sampler, passed in
    so that the oracle redraws exactly the environment the program used.
    """
    field = sample_weight_field(theta, 3 * N, 2 * N, seed)
    k = 2 * N
    out = np.empty((k_top, 2 * N + 1))
    with mp.workdps(DPS):
        tables = _path_tables(field.entries, k_top)
        for col, n in enumerate(range(N, 3 * N + 1)):
            prev = ZERO
            for l in range(1, k_top + 1):
                cur = _log_tau(tables, k, l, n)
                out[l - 1, col] = float(cur - prev)
                prev = cur
    return out
