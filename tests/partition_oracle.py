"""Frozen reference for ``coupling.log_partition``: its earlier route, a
column loop of its own beside the coupling engine's, kept verbatim with the
helpers it calls.  The runtime sweep must reproduce it bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from gibbslines import gibbs as gb
from gibbslines.errors import PrecisionError

TINY = 1e-150
BLOCK_ROWS = 4


def _padded_range(vals, T, hrw, pad_sigmas=8.0):
    vals = np.asarray(vals, dtype=float)
    vals = vals[np.isfinite(vals)]
    mu = hrw.increment_mean()
    sig = np.sqrt(hrw.increment_var())
    pad = abs(mu) * T + pad_sigmas * sig * np.sqrt(T) + 4.0 * sig
    return float(vals.min() - pad), float(vals.max() + pad)


def _flush(x):
    peak = x.reshape(x.shape[0], -1).max(axis=1)
    np.copyto(x, 0.0, where=x < TINY * peak.reshape((-1,) + (1,) * (x.ndim - 1)))
    return x


def _increment_matrix(hrw, grid):
    with np.errstate(under="ignore"):
        return _flush(np.exp(hrw.log_g(grid[None, :] - grid[:, None]))[None])[0]


def _row_products(rows, mat):
    n, size = rows.shape
    padded = np.zeros((-(-n // BLOCK_ROWS) * BLOCK_ROWS, size))
    padded[:n] = rows
    return (padded.reshape(-1, BLOCK_ROWS, size) @ mat).reshape(padded.shape[0], -1)[:n]


def _contract(x, mat, axis):
    x = _flush(x)
    n_draws, dims = x.shape[0], x.shape[1:]
    m = dims[axis]
    if len(dims) == 1:
        return _row_products(x, mat)
    if axis == len(dims) - 1:
        return (x.reshape(n_draws, -1, m) @ mat).reshape(x.shape)
    lead = int(np.prod(dims[:axis]))
    return (mat.T @ x.reshape(n_draws, lead, m, -1)).reshape(x.shape)


def _on_axes(mat, axis, n_axes):
    return mat.reshape((1,) * (axis + 1) + mat.shape + (1,) * (n_axes - axis - 2))


def log_partition(spec, m=256):
    T = spec.b - spec.a
    grid = np.linspace(*_padded_range(spec.x_vec + spec.y_vec + spec.f + spec.g, T, spec.hrw), m)
    gmat = _increment_matrix(spec.hrw, grid)
    rows = range(spec.n_curves)
    if all(spec.interaction.bond(j).kind == "zero" for j in range(spec.a, spec.b)):
        return float(sum(_log_sweep(spec, grid, gmat, [i]) for i in rows))
    return _log_sweep(spec, grid, gmat, list(rows))


def _log_sweep(spec, grid, gmat, rows):
    x = np.asarray(spec.x_vec)[rows]
    y = np.asarray(spec.y_vec)[rows]
    f = np.asarray(spec.f, dtype=float)
    g = np.asarray(spec.g, dtype=float)
    k, T, m = x.size, spec.b - spec.a, grid.size

    def weight(j, arg):
        with np.errstate(under="ignore"):
            return np.exp(spec.interaction.bond(spec.a + j).log_weight(arg))

    def density(arg):
        with np.errstate(under="ignore"):
            return np.exp(spec.hrw.log_g(arg))

    def checked_log(value):
        if not value > 0.0:
            raise PrecisionError("partition sweep underflowed to zero mass")
        return math.log(value)

    if T == 1:
        bonds = weight(0, np.append(y, g[1]) - np.concatenate([[f[0]], x]))
        return float(spec.hrw.log_g(y - x).sum()) + checked_log(float(np.prod(bonds)))

    def on_axis(vec, i):
        return vec.reshape((1,) * (i + 1) + (m,) + (1,) * (k - 1 - i))

    log_z = k * (T - 1) * math.log(grid[1] - grid[0])
    emats = {}
    alpha = np.full((1,) + (m,) * k, weight(0, g[1] - x[-1]))
    for i in range(k):
        above = f[0] if i == 0 else x[i - 1]
        alpha *= on_axis(density(grid - x[i]) * weight(0, grid - above), i)
    for j in range(1, T):
        peak = alpha.max()
        log_z += checked_log(peak)
        alpha /= peak
        if j == T - 1:
            break
        h = spec.interaction.bond(spec.a + j)
        if k > 1 and h not in emats:
            emats[h] = weight(j, grid[None, :] - grid[:, None])
        alpha = alpha * on_axis(weight(j, g[j + 1] - grid), k - 1)
        for i in range(k - 1, -1, -1):
            alpha = _contract(alpha, gmat, i)
            alpha *= _on_axes(emats[h], i - 1, k) if i else on_axis(weight(j, grid - f[j]), 0)
    total = alpha[0]
    for i in range(k - 1, -1, -1):
        below = y[i + 1] if i < k - 1 else g[T]
        total = total @ (density(y[i] - grid) * weight(T - 1, below - grid))
    return log_z + checked_log(float(total) * float(weight(T - 1, y[0] - f[T - 1])))


def acceptance_probability(spec, m=256):
    free = replace(spec, interaction=gb.InteractionSpec.zero(spec.a, spec.b))
    return math.exp(log_partition(spec, m) - log_partition(free, m))
