"""Log-gamma polymer: i.i.d. inverse-gamma environment, multi-path partition
functions tau_{k,l}(n) over non-intersecting up-right path families, their
telescoping ratios z_{k,l}(n), and the centered discrete line ensemble built
from them.

All partition arithmetic is carried in log-space.  The runtime route to tau
is one pass of geometric RSK local moves over the log-weights
(O'Connell-Seppalainen-Zygouras 2014, Noumi-Yamada 2004): every move forms
sums, products and quotients of positive numbers only, so nothing cancels,
and one pass yields tau_{k,l}(n) for every l <= l_max and every n.  Direct
tuple enumeration, the determinant of single-path partition functions over
the ordered start/end points, and -- at l = 1 -- the lattice dynamic program
are independent oracles that no runtime code calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ensembles import DiscreteLineEnsemble
from .errors import PrecisionError, ResourceLimitError
from .special import scaling_constants

__all__ = [
    "WeightField",
    "sample_weight_field",
    "single_path_partition",
    "tau_bruteforce",
    "tau_lgv",
    "PartitionTable",
    "build_partition_table",
    "z_array",
    "polymer_line_ensemble",
    "sample_top_curves",
]

NEG_INF = float("-inf")
LGV_TOLERANCE = 1e-8  # largest first-order error bound tau_lgv returns a value under
DRAW_CHUNK_BYTES = 1 << 20  # sample_top_curves draws in chunks; they read the stream as one draw


@dataclass(frozen=True)
class WeightField:
    """The polymer environment: strictly positive weights d_{i,j}.

    ``entries[i-1, j-1]`` is the weight at column i (time direction,
    1..n_max) and row j (1..n_rows).
    """

    entries: np.ndarray
    theta: float
    seed: int | None = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a non-empty 2-d matrix")
        if not np.all(entries > 0.0):
            raise ValueError("all environment weights must be strictly positive")

    @property
    def n_max(self) -> int:
        return self.entries.shape[0]

    @property
    def n_rows(self) -> int:
        return self.entries.shape[1]

    @property
    def log_entries(self) -> np.ndarray:
        return np.log(self.entries)


def sample_weight_field(theta: float, n_max: int, n_rows: int, seed) -> WeightField:
    """Draw an i.i.d. inverse-gamma(theta) environment, deterministic in ``seed``.

    Inverse-gamma variates are generated as reciprocals of Gamma(theta, 1)
    draws (an exact change of variables).
    """
    if not (theta > 0.0 and np.isfinite(theta)):  # nan compares False
        raise ValueError(f"theta must be positive and finite, got {theta!r}")
    if n_max < 1 or n_rows < 1:
        raise ValueError("field dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    gammas = rng.gamma(shape=theta, scale=1.0, size=(n_max, n_rows))
    return WeightField(entries=1.0 / gammas, theta=float(theta), seed=seed)


def _dp_log_table(log_d: np.ndarray, start_row: int) -> np.ndarray:
    """All single-path log partition functions from (1, start_row).

    Returns T with T[i-1, j-1] = log sum over up-right paths from
    (1, start_row) to (i, j) of the product of weights on the path
    (-inf where unreachable).
    """
    n_max, n_rows = log_d.shape
    table = np.full((n_max, n_rows), NEG_INF)
    r = start_row - 1
    table[0, r] = log_d[0, r]
    for j in range(r + 1, n_rows):
        table[0, j] = log_d[0, j] + table[0, j - 1]
    for i in range(1, n_max):
        table[i, r] = log_d[i, r] + table[i - 1, r]
        for j in range(r + 1, n_rows):
            table[i, j] = log_d[i, j] + np.logaddexp(table[i - 1, j], table[i, j - 1])
    return table


def single_path_partition(d: WeightField, n: int, k: int) -> np.ndarray:
    """Dynamic-programming table of log Z(i, j) for paths (1,1) -> (i,j).

    Z(i,j) = d_{i,j} (Z(i-1,j) + Z(i,j-1)) with out-of-grid terms zero, so
    the bottom-right entry log Z(n, k) equals log tau_{k,1}(n).
    """
    if not (1 <= n <= d.n_max and 1 <= k <= d.n_rows):
        raise ValueError(f"(n={n}, k={k}) outside field of shape {d.entries.shape}")
    return _dp_log_table(d.log_entries[:n, :k], start_row=1)


def _paths(n: int, start_row: int, end_row: int):
    """All up-right vertex sequences from (1, start_row) to (n, end_row)."""
    rights = n - 1
    ups = end_row - start_row
    if ups < 0:
        return
    for up_positions in itertools.combinations(range(rights + ups), ups):
        i, j = 1, start_row
        verts = [(i, j)]
        ups_set = set(up_positions)
        for step in range(rights + ups):
            if step in ups_set:
                j += 1
            else:
                i += 1
            verts.append((i, j))
        yield tuple(verts)


def tau_bruteforce(d: WeightField, k: int, l: int, n: int, max_tuples: int = 10**7) -> float:
    """log tau_{k,l}(n) by exhaustive enumeration of vertex-disjoint path tuples.

    This is the oracle route: path r runs from (1, r) to (n, k + r - l) and
    tuples sharing any vertex are discarded.  Returns -inf when n < l (the
    empty-family convention).  Raises ``ResourceLimitError`` if the raw
    tuple count exceeds ``max_tuples``.
    """
    if not (1 <= l <= k <= d.n_rows):
        raise ValueError(f"need 1 <= l <= k <= n_rows, got l={l}, k={k}")
    if n < 0 or n > d.n_max:
        raise ValueError(f"n={n} outside [0, {d.n_max}]")
    if n < l:
        return NEG_INF
    import math as _math

    counts = [_math.comb(n - 1 + (k - l), k - l) for _ in range(l)]
    total = 1
    for c in counts:
        total *= c
    if total > max_tuples:
        raise ResourceLimitError(f"{total} path tuples exceed the {max_tuples} guard")

    log_d = d.log_entries
    per_route = []
    for r in range(1, l + 1):
        route = []
        for verts in _paths(n, r, k + r - l):
            w = sum(log_d[i - 1, j - 1] for (i, j) in verts)
            route.append((frozenset(verts), w))
        per_route.append(route)

    log_terms = []
    for combo in itertools.product(*per_route):
        union = set()
        size = 0
        for verts, _ in combo:
            union |= verts
            size += len(verts)
        if len(union) == size:  # pairwise vertex-disjoint
            log_terms.append(sum(w for _, w in combo))
    if not log_terms:
        return NEG_INF
    arr = np.array(log_terms)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def _lgv_log_matrix(d: WeightField, k: int, l: int, n: int) -> np.ndarray:
    """log single-path partition functions between the ordered boundary points."""
    log_d = d.log_entries[:n, :]
    mat = np.full((l, l), NEG_INF)
    for r in range(1, l + 1):
        table = _dp_log_table(log_d, start_row=r)
        for s in range(1, l + 1):
            end = k + s - l
            if end >= r:
                mat[r - 1, s - 1] = table[n - 1, end - 1]
    return mat


def tau_lgv(d: WeightField, k: int, l: int, n: int) -> float:
    """log tau_{k,l}(n) as an l x l determinant of single-path partition
    functions: an oracle for small or well-conditioned fields.

    Each row is rescaled by its maximal log entry before elimination.  The
    entries carry relative errors of about (n + k) ulps, which the
    determinant amplifies by kappa = sum_ij |M_ij (M^-1)_ji|.  Raises
    ``PrecisionError`` when the determinant is nonpositive or that
    first-order error bound on log tau exceeds ``LGV_TOLERANCE``: an
    ill-conditioned matrix gives no value rather than a wrong one.
    """
    if not (1 <= l <= k <= d.n_rows):
        raise ValueError(f"need 1 <= l <= k <= n_rows, got l={l}, k={k}")
    if n < 0 or n > d.n_max:
        raise ValueError(f"n={n} outside [0, {d.n_max}]")
    if n < l:
        return NEG_INF
    mat = _lgv_log_matrix(d, k, l, n)
    row_max = mat.max(axis=1)
    scaled = np.exp(mat - row_max[:, None])
    det = float(np.linalg.det(scaled))
    if not det > 0.0:
        raise PrecisionError(f"nonpositive determinant ({det}) for tau_(k={k}, l={l})({n})")
    kappa = float(np.abs(scaled * np.linalg.inv(scaled).T).sum())
    bound = kappa * (n + k) * np.finfo(float).eps
    if bound > LGV_TOLERANCE:
        raise PrecisionError(
            f"ill-conditioned determinant for tau_(k={k}, l={l})({n}): error bound {bound:.1e}"
        )
    return float(row_max.sum() + np.log(det))


def _grsk_log_tau(w: np.ndarray, l_max: int) -> np.ndarray:
    """log tau_{k,l}(n) for l = 1..l_max and n = 1..n_max, batched over B fields.

    ``w`` holds log-weights laid out as (n_max, k, B), contiguous over B, and
    is overwritten by geometric RSK local moves.  Time row i is inserted cell
    by cell; each cell starts a chain of moves down its diagonal, cut at
    depth l_max (deeper moves never reach the entries read below).  After
    row i, log tau_{k,l}(i + 1) is the sum of the l corner entries
    w[i - q, k - 1 - q], q < l.  Returns shape (l_max, n_max, B), -inf where
    n < l.
    """
    n_max, k, n_fields = w.shape
    log_tau = np.full((l_max, n_max, n_fields), NEG_INF)
    rows = [list(row) for row in w]  # rows[i][j] is the (B,) view w[i, j]
    s = np.empty(n_fields)
    for i in range(n_max):
        for j in range(k):
            for q in range(min(i, j, l_max - 1) + 1):
                ii, jj = i - q, j - q
                cell = rows[ii][jj]
                if ii == 0:
                    if jj:
                        np.add(cell, rows[0][jj - 1], out=cell)
                elif jj == 0:
                    np.add(cell, rows[ii - 1][0], out=cell)
                else:
                    b, c = rows[ii - 1][jj], rows[ii][jj - 1]
                    np.logaddexp(b, c, out=s)
                    np.add(cell, s, out=cell)
                    if q + 1 < l_max:  # at the cut depth this entry is never read again
                        a = rows[ii - 1][jj - 1]
                        np.subtract(b + c, a, out=a)
                        np.subtract(a, s, out=a)
        q = np.arange(min(l_max, i + 1))
        np.cumsum(w[i - q, k - 1 - q], axis=0, out=log_tau[: q.size, i])
    return log_tau


@dataclass(frozen=True)
class PartitionTable:
    """log tau_{k,l}(n) over l = 0..l_max and a contiguous range of n.

    Row l = 0 is identically 0 (tau_{k,0} = 1 by the empty-product
    convention); entries with n < l are -inf.
    """

    k: int
    n_values: np.ndarray
    log_tau: np.ndarray  # shape (l_max + 1, len(n_values))

    @property
    def l_max(self) -> int:
        return self.log_tau.shape[0] - 1

    def value(self, l: int, n: int) -> float:
        if not 0 <= l <= self.l_max:
            raise ValueError(f"l={l} outside [0, {self.l_max}]")
        idx = np.searchsorted(self.n_values, n)
        if idx >= len(self.n_values) or self.n_values[idx] != n:
            raise ValueError(f"n={n} not tabulated")
        return float(self.log_tau[l, idx])


def build_partition_table(d: WeightField, k: int, l_max: int, n_values) -> PartitionTable:
    """Tabulate log tau_{k,l}(n) for l <= l_max over ``n_values`` in one gRSK pass."""
    n_values = np.asarray(sorted(n_values), dtype=int)
    if not (1 <= k <= d.n_rows and 0 <= l_max <= k):
        raise ValueError(f"need 0 <= l_max <= k <= n_rows, got l_max={l_max}, k={k}")
    if n_values.size and (n_values[0] < 0 or n_values[-1] > d.n_max):
        raise ValueError(f"n values outside [0, {d.n_max}]")
    n_hi = int(n_values[-1]) if n_values.size else 0
    padded = np.full((l_max + 1, n_hi + 1), NEG_INF)
    padded[0] = 0.0
    padded[1:, 1:] = _grsk_log_tau(np.log(d.entries[:n_hi, :k])[..., None], l_max)[..., 0]
    return PartitionTable(k=k, n_values=n_values, log_tau=padded[:, n_values])


def z_array(tau: PartitionTable, k: int, n_range) -> np.ndarray:
    """log z_{k,l}(n) = log tau_{k,l}(n) - log tau_{k,l-1}(n) for l = 1..l_max.

    Only defined for l <= min(k, n); requesting a column with n < l_max is a
    domain error.
    """
    if k != tau.k:
        raise ValueError(f"table was built for k={tau.k}, requested k={k}")
    n_range = np.asarray(list(n_range), dtype=int)
    if np.any(n_range < tau.l_max) or tau.l_max > k:
        raise ValueError(
            f"z_(k,l)(n) undefined for l > min(k, n); l_max={tau.l_max}, "
            f"min n={n_range.min()}, k={k}"
        )
    cols = np.searchsorted(tau.n_values, n_range)
    if np.any(cols >= len(tau.n_values)) or np.any(tau.n_values[cols] != n_range):
        raise ValueError("requested n values not tabulated")
    block = tau.log_tau[:, cols]
    return block[1:] - block[:-1]


def polymer_line_ensemble(theta: float, N: int, k_top: int, seed) -> DiscreteLineEnsemble:
    """The centered polymer line ensemble: k_top curves on times [-N, N].

    Curve i at time j is log z_{2N,i}(2N + j) plus the 2N h_theta(1)
    centering, built from a fresh environment drawn deterministically from
    ``seed``.
    """
    if not 1 <= k_top <= N:
        raise ValueError(f"need 1 <= k_top <= N, got k_top={k_top}, N={N}")
    d = sample_weight_field(theta, n_max=3 * N, n_rows=2 * N, seed=seed)
    table = build_partition_table(d, k=2 * N, l_max=k_top, n_values=range(N, 3 * N + 1))
    log_z = z_array(table, 2 * N, range(N, 3 * N + 1))
    center = 2.0 * N * scaling_constants(theta).h_theta_1
    return DiscreteLineEnsemble(curves=log_z + center, t0=-N, t1=N)


def sample_top_curves(theta: float, N: int, n_samples: int, seed) -> np.ndarray:
    """Batched top-curve sampler: rows are independent draws of the centered
    curve  log tau_{2N,1}(2N + j) + 2N h_theta(1)  for j in [-N, N].

    The depth-1 gRSK pass over all samples at once: the workhorse for
    one-point fluctuation and profile statistics at scale.  Sample b reads
    the b-th field of the ``seed`` stream, so a smaller batch is a prefix.
    """
    if N < 1 or n_samples < 1:
        raise ValueError("need N >= 1 and n_samples >= 1")
    center = 2.0 * N * scaling_constants(theta).h_theta_1  # rejects a bad theta before any draw
    rng = np.random.default_rng(seed)
    log_d = np.empty((3 * N, 2 * N, n_samples))
    chunk = max(1, DRAW_CHUNK_BYTES // log_d[..., 0].nbytes)
    for lo in range(0, n_samples, chunk):
        g = rng.gamma(shape=theta, scale=1.0, size=(min(chunk, n_samples - lo), 3 * N, 2 * N))
        np.log(g, out=g)
        np.negative(g, out=g)
        log_d[..., lo : lo + len(g)] = g.transpose(1, 2, 0)
    return _grsk_log_tau(log_d, 1)[0, N - 1 :].T + center
