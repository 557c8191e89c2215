"""The untrimmed forward transfer sweep: every column held over the whole
grid (m,)^k and every contraction a full ``matmul``, as the runtime sweep
ran before it kept a one-draw stack on its nonzero box.  It is a drop-in
for ``coupling._Transfer.forward`` (same arguments, same yields, the box
always the whole grid), so the engine and ``log_partition`` run on it
unchanged; at m = 256 they must agree with the runtime sweep bit for bit.
"""

import numpy as np

TINY = 1e-150
BLOCK_ROWS = 4


def _flush(x):
    peak = x.reshape(x.shape[0], -1).max(axis=1)
    np.copyto(x, 0.0, where=x < TINY * peak.reshape((-1,) + (1,) * (x.ndim - 1)))
    return x


def _rescaled(arr):
    peak = arr.reshape(arr.shape[0], -1).max(axis=1)
    assert np.all(peak > 0.0), "transfer function underflowed to zero mass"
    return _flush(arr / peak.reshape((-1,) + (1,) * (arr.ndim - 1))), peak


def _row_products(rows, mat):
    n, size = rows.shape
    padded = np.zeros((-(-n // BLOCK_ROWS) * BLOCK_ROWS, size))
    padded[:n] = rows
    return (padded.reshape(-1, BLOCK_ROWS, size) @ mat).reshape(padded.shape[0], -1)[:n]


def contract(x, mat, axis):
    """sum_a x[.., a, ..] mat[a, A] over grid axis ``axis``, over the whole grid."""
    n_draws, dims = x.shape[0], x.shape[1:]
    if len(dims) == 1:
        return _row_products(x, mat)
    if axis == len(dims) - 1:
        return (x.reshape(n_draws, -1, dims[axis]) @ mat).reshape(x.shape)
    lead = int(np.prod(dims[:axis]))
    return (mat.T @ x.reshape(n_draws, lead, dims[axis], -1)).reshape(x.shape)


def forward(sweep, x, bonds, above=None, scale=1.0):
    """``coupling._Transfer.forward`` over the whole grid: yields
    (alpha_j, box, peaks) with ``box`` the whole grid."""
    grid, p = sweep.grid, len(x)
    alpha = sweep._g(grid - x[0])
    if above is not None and above[0] != np.inf:
        alpha = alpha * sweep._w(0, grid - above[0])
    alpha = alpha * scale
    for i in range(1, p):
        alpha = np.multiply.outer(alpha, sweep._g(grid - x[i]) * sweep._w(0, grid - x[i - 1]))
    alpha = alpha[None]
    box = (slice(None),) * (p + 1)
    n = len(bonds)
    for j in range(1, n + 1):
        alpha, peaks = _rescaled(alpha)
        yield alpha, box, peaks
        if j == n:
            return
        alpha = alpha * bonds[j - 1].reshape((-1,) + (1,) * (p - 1) + grid.shape)
        for i in range(p - 1, -1, -1):
            alpha = contract(_flush(alpha), sweep.gmat, i)
            if i:
                alpha *= sweep._emat(j).reshape((1,) * i + grid.shape * 2 + (1,) * (p - i - 1))
            elif above is not None and above[j] != np.inf:
                alpha *= sweep._w(j, grid - above[j]).reshape((1, -1) + (1,) * (p - 1))


def untrimmed(monkeypatch, coupling):
    """Run every transfer sweep of ``coupling`` on the whole grid."""
    monkeypatch.setattr(coupling._Transfer, "forward", forward)
