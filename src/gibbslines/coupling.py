"""Grand monotone coupling of Gibbs bridge ensembles on common uniforms.

All boundary data (entrance/exit vectors and a bottom curve, with the top
boundary at +inf) are coupled on the single probability space
(0,1)^(k(T-2)): interior points are filled in reverse lexicographic order by
inverting the conditional CDF of each point given the already-assigned ones,
with the not-yet-assigned block integrated out.

The integration exploits the nearest-neighbor product structure: all
conditionals are obtained from transfer sweeps that carry a (<= k)-dimensional
grid function across time columns, never forming the full-dimensional
integral.  Raising the boundary data pointwise raises every conditional
quantile, so outputs driven by common uniforms are ordered pathwise; this and
the continuity of the construction are exposed as empirical check routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .bridge import HrwSpec
from .ensembles import DiscreteLineEnsemble
from .errors import PrecisionError, ResourceLimitError
from .gibbs import EnsembleSpec, Hamiltonian, InteractionSpec
from .grids import inverse_cdf_rows
from .reports import StatReport

__all__ = [
    "BoundaryTriple",
    "GrandCouplingEngine",
    "grand_coupling_sample",
    "monotonicity_check",
    "continuity_check",
    "coupled_gaps",
    "default_window",
    "log_partition",
]

DEFAULT_COUPLING_GRID_M = 256
MAX_SWEEP_STATES = 2**21  # joint grid states m^k of one partition sweep (16 MB per array)
TINY = 1e-150  # operand entries below TINY times their peak are zeroed: products stay normal
PAD_SIGMAS = 8.0  # free-walk standard deviations padding a grid window
BLOCK_ROWS = 4  # rows per gemm of a vector x matrix product: the fastest of 2-32 at m = 256
BOX_QUANTUM = 16  # nonzero boxes start and end on multiples of this, as the full gemm's tiles do
BAND_COLS = 32  # output columns per banded product: the fastest of 32-128 at m = 256
WHOLE = ((slice(None), slice(None)),)  # the band of a dense matrix: one block, every row


@dataclass(frozen=True)
class BoundaryTriple:
    """Entrance/exit vectors (length k, top to bottom) and the bottom curve
    on times 0..T-1 (-inf entries switch the bottom interaction off)."""

    x_vec: tuple
    y_vec: tuple
    z_vec: tuple

    def __post_init__(self):
        x = tuple(float(v) for v in self.x_vec)
        y = tuple(float(v) for v in self.y_vec)
        z = tuple(float(v) for v in self.z_vec)
        if len(x) != len(y):
            raise ValueError("x_vec and y_vec must have equal length")
        if not all(np.isfinite(x)) or not all(np.isfinite(y)):
            raise ValueError("entrance/exit values must be finite")
        if any(v == np.inf or (v != v) for v in z):
            raise ValueError("bottom curve must be < +inf")
        object.__setattr__(self, "x_vec", x)
        object.__setattr__(self, "y_vec", y)
        object.__setattr__(self, "z_vec", z)

    @property
    def k(self) -> int:
        return len(self.x_vec)

    def shifted(self, c: float) -> "BoundaryTriple":
        return BoundaryTriple(
            tuple(v + c for v in self.x_vec),
            tuple(v + c for v in self.y_vec),
            tuple(v + c for v in self.z_vec),
        )


def default_window(boundaries, T: int, hrw: HrwSpec) -> tuple[float, float]:
    """A grid window wide enough for every transfer function of the given
    boundary data: finite data range padded by the free-walk spread."""
    vals = []
    for b in boundaries:
        vals.extend(b.x_vec)
        vals.extend(b.y_vec)
        vals.extend(b.z_vec)
    return _padded_range(vals, T, hrw)


def _padded_range(vals, T: int, hrw: HrwSpec) -> tuple[float, float]:
    """Range of the finite ``vals`` padded by the free-walk spread over T
    steps: ``PAD_SIGMAS`` standard deviations beyond the drift."""
    vals = np.asarray(vals, dtype=float)
    vals = vals[np.isfinite(vals)]
    mu = hrw.increment_mean()
    sig = np.sqrt(hrw.increment_var())
    pad = abs(mu) * T + PAD_SIGMAS * sig * np.sqrt(T) + 4.0 * sig
    return float(vals.min() - pad), float(vals.max() + pad)


def _flush(x: np.ndarray) -> np.ndarray:
    """Zero in place the entries of ``x`` below ``TINY`` times their draw's
    peak (leading axis), and return ``x``.  A product of two flushed operands
    then never forms a subnormal number, which costs the arithmetic a slow
    path; a dropped term is below 1e-147 of the product's peak.  Flushing
    twice changes nothing."""
    peak = x.reshape(x.shape[0], -1).max(axis=1)
    np.copyto(x, 0.0, where=x < TINY * peak.reshape((-1,) + (1,) * (x.ndim - 1)))
    return x


def _increment_matrix(hrw: HrwSpec, grid: np.ndarray) -> np.ndarray:
    """gmat[a, b] = G(grid_b - grid_a), flushed below ``TINY`` of its peak."""
    with np.errstate(under="ignore"):
        return _flush(np.exp(hrw.log_g(grid[None, :] - grid[:, None]))[None])[0]


def _row_products(rows: np.ndarray, mat: np.ndarray, band=WHOLE) -> np.ndarray:
    """rows (n, K) @ mat (K, N) as gemms of ``BLOCK_ROWS`` rows, the last block
    padded with zero rows, one per block of ``band`` (``_band``) over its
    rows.  Every call has the same shapes whatever n, so a row's result does
    not depend on the rows beside it (a stacked (n, 1, K) @ (K, N) would be n
    gemv calls; one (n, K) gemm would change its blocking with n)."""
    n, size = rows.shape
    padded = np.zeros((-(-n // BLOCK_ROWS), BLOCK_ROWS, size))
    padded.reshape(-1, size)[:n] = rows
    out = np.empty(padded.shape[:2] + mat.shape[1:])
    for cols, kept in band:
        np.matmul(padded[..., kept], mat[kept, cols], out=out[..., cols])
    return out.reshape(-1, mat.shape[1])[:n]


def _band(nonzero: np.ndarray, width: int = BAND_COLS) -> list[tuple[slice, slice]]:
    """The band of a matrix whose nonzero entries are ``nonzero``: for each
    block of ``width`` columns, (its columns, the ``_span`` of the rows
    holding its nonzeros, empty if none does).  A product over each block's
    rows only skips exact zeros of the matrix."""
    m = nonzero.shape[1]
    held = (nonzero[:, c : c + width].any(axis=1) for c in range(0, m, width))
    return _merged(
        (slice(c, min(c + width, m)), _span(rows) if rows.any() else slice(0, 0))
        for c, rows in zip(range(0, m, width), held)
    )


def _bands(mat: np.ndarray) -> tuple[list, list, list]:
    """The ``_band`` of ``mat`` and of ``mat.T``, and the reach of ``mat``:
    the ``_span`` of the columns that each ``BOX_QUANTUM`` rows hold."""
    nonzero = mat != 0.0
    return _band(nonzero), _band(nonzero.T), _band(nonzero.T, BOX_QUANTUM)


def _merged(blocks) -> list[tuple[slice, slice]]:
    """(columns, rows) blocks with each run of neighbours over the same rows
    joined into one: one product where a split would only repeat its work."""
    out = []
    for cols, rows in blocks:
        if out and out[-1][1] == rows:
            cols = slice(out.pop()[0].start, cols.stop)
        out.append((cols, rows))
    return out


def _span(nonzero: np.ndarray, start: int = 0) -> slice:
    """Grid indices of the True entries of a mask of the points from ``start``
    on (a multiple of ``BOX_QUANTUM``), their ends rounded out to it."""
    idx = np.flatnonzero(nonzero)
    lo, hi = (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 1)
    return slice(start + lo - lo % BOX_QUANTUM, start + min(hi - hi % -BOX_QUANTUM, nonzero.size))


def _site_span(dens: np.ndarray) -> slice:
    """Grid columns holding the nonzero values of the site densities ``dens``
    (draws x m) and one zero column beyond them on each side, where the grid
    has one, with ends on ``BOX_QUANTUM``.  The trapezoid CDF is 0 up to the
    first of them and the total from the last on, so an inverse-CDF draw
    over them (on the whole grid's step) is the whole grid's, bit for bit."""
    nonzero = dens.any(axis=0)
    nonzero[1:] |= nonzero[:-1]
    nonzero[:-1] |= nonzero[1:]
    return _span(nonzero)


def _buffer(bufs: list | None, shape: tuple) -> np.ndarray:
    """A ``shape`` view at the front of the other of two reused flat buffers,
    which never holds the input; a fresh array without buffers."""
    if bufs is None:
        return np.empty(shape)
    bufs.reverse()
    return bufs[0][: math.prod(shape)].reshape(shape)


def _contract(x: np.ndarray, mat: np.ndarray, axis: int, band=WHOLE, bufs=None) -> np.ndarray:
    """out[.., A, ..] = sum_a x[.., a, ..] mat[a, A] over grid axis ``axis``
    of a stack of grid functions (draws first), which callers ``_flush``:
    one product per block of ``band`` (``_band``; all of ``mat`` by default)
    over its rows.

    A stack with one grid axis is a ``_row_products`` call; on more axes every
    product is a per-draw ``matmul`` of the same shape, into ``_buffer(bufs)``.
    Either way a draw's result does not depend on which other draws share its
    stack.
    """
    n_draws, dims = x.shape[0], x.shape[1:]
    shape = x.shape[: axis + 1] + mat.shape[1:] + x.shape[axis + 2 :]
    if len(dims) == 1:
        return _row_products(x, mat, band)
    if axis == len(dims) - 1:
        rows = x.reshape(n_draws, -1, dims[axis])
        out = _buffer(bufs, rows.shape[:2] + mat.shape[1:])
        for cols, kept in band:
            np.matmul(rows[..., kept], mat[kept, cols], out=out[..., cols])
        return out.reshape(shape)
    rows = x.reshape(n_draws, math.prod(dims[:axis]), dims[axis], -1)
    out = _buffer(bufs, rows.shape[:2] + mat.shape[1:] + rows.shape[3:])
    for cols, kept in band:
        np.matmul(mat[kept, cols].T, rows[:, :, kept], out=out[:, :, cols])
    return out.reshape(shape)


def _within(s: slice, span: slice) -> slice:
    """The part of ``s`` inside ``span``, counted from ``span.start``; empty
    when they do not meet (an empty contraction is a zero product)."""
    lo = min(max(s.start, span.start), span.stop)
    return slice(lo - span.start, max(min(s.stop, span.stop), lo) - span.start)


def _contract_box(x: np.ndarray, box: tuple, mat: np.ndarray, bands: tuple, axis: int, bufs):
    """``_contract`` of a one-draw stack that holds the grid ``box`` (slices,
    draws first) and is zero elsewhere, skipping exact zeros: each grid axis
    over its nonzero ``_span``, and the contracted one into the columns of
    the square ``mat`` that the span reaches, one product per block of the
    band of ``mat`` over the rows of the span that the block holds.
    ``bands`` is ``_bands(mat)``.  Returns the product and its box."""
    nonzero, axes = x[0] != 0.0, range(x.ndim - 1)
    spans = [_span(nonzero.any(tuple(a for a in axes if a != i)), box[i + 1].start) for i in axes]
    inner = tuple(slice(s.start - b.start, s.stop - b.start) for s, b in zip(spans, box[1:]))
    rows = spans[axis]
    reach = [r for c, r in bands[2] if c.start < rows.stop and rows.start < c.stop and r.stop > 0]
    reach = reach or [slice(0, BOX_QUANTUM)]  # no nonzero reached: a zero product
    out = spans[axis] = slice(min(r.start for r in reach), max(r.stop for r in reach))
    sizes = [s.stop - s.start for s in spans]
    if math.prod(sizes[:axis] if axis == len(sizes) - 1 else sizes[axis + 1 :]) > mat.shape[0]:
        # each gemm's other operand spans more than one grid axis (the outer
        # axes of three): a product per block would pack it once per block
        band = WHOLE
    else:  # the blocks within the reach, relative to the operands' spans
        band = _merged(
            (_within(c, out), _within(r, rows))
            for c, r in bands[0]
            if c.start < out.stop and out.start < c.stop
        )
    prod = _contract(x[(slice(None),) + inner], mat[rows, out], axis, band, bufs)
    return prod, (slice(None), *spans)


def _expanded(alpha: np.ndarray, box: tuple, m: int) -> np.ndarray:
    """The whole-grid stack of a stack held over ``box``, zero outside it."""
    full = np.zeros(alpha.shape[:1] + (m,) * (alpha.ndim - 1))
    full[box] = alpha
    return full


def _on_axes(mat: np.ndarray, axis: int, n_axes: int) -> np.ndarray:
    """View of an (m, m) matrix broadcasting over grid axes ``axis`` and
    ``axis + 1`` of a stack with ``n_axes`` grid axes."""
    return mat.reshape((1,) * (axis + 1) + mat.shape + (1,) * (n_axes - axis - 2))


def _on_last_axis(rows: np.ndarray, n_axes: int) -> np.ndarray:
    """View of (draws, m) rows, or one (m,) row, broadcasting over the last grid axis."""
    return rows.reshape((-1,) + (1,) * (n_axes - 1) + rows.shape[-1:])


def _checked_log(value: float) -> float:
    if not value > 0.0:
        raise PrecisionError("partition sweep underflowed to zero mass")
    return math.log(value)


def _rescaled(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each draw's grid function divided by its own peak and flushed below
    ``TINY``, with the peaks: stored transfer functions enter products as
    they are."""
    peak = arr.reshape(arr.shape[0], -1).max(axis=1)
    if not np.all(peak > 0.0):
        raise PrecisionError("transfer function underflowed to zero mass")
    arr = arr / peak.reshape((-1,) + (1,) * (arr.ndim - 1))
    np.copyto(arr, 0.0, where=arr < TINY)  # ``_flush``: each draw's peak is now exactly 1
    return arr, peak


class _Transfer:
    """The forward transfer sweep of free rows on a uniform grid, shared by
    the partition function and the grand coupling.  Bond j,
    ``interaction.bond(a + j)``, pairs row i+1 at column j+1 with row i at
    column j, as in ``gibbs.log_boltzmann_weight``."""

    def __init__(self, hrw: HrwSpec, interaction: InteractionSpec, grid: np.ndarray, a: int):
        self.hrw = hrw
        self.interaction = interaction
        self.grid = grid
        self.a = a
        self._emats: dict[Hamiltonian, np.ndarray] = {}  # one matrix per distinct H_j

    @cached_property
    def gmat(self) -> np.ndarray:
        return _increment_matrix(self.hrw, self.grid)

    @cached_property
    def bands(self) -> tuple[list, list, list]:
        """``_bands(gmat)``; engines on one window share it with ``gmat``."""
        return _bands(self.gmat)

    def _g(self, x) -> np.ndarray:
        """Increment density G(x)."""
        with np.errstate(under="ignore"):
            return np.exp(self.hrw.log_g(x))

    def _w(self, j: int, x) -> np.ndarray:
        """Bond weight exp(-H_j(x)) of the bond from column j to j+1."""
        with np.errstate(under="ignore"):
            return np.exp(self.interaction.bond(self.a + j).log_weight(x))

    def _emat(self, j: int) -> np.ndarray:
        """exp(-H_j(grid_b - grid_a)) for adjacent free rows."""
        h = self.interaction.bond(self.a + j)
        if h not in self._emats:
            self._emats[h] = self._w(j, self.grid[None, :] - self.grid[:, None])
        return self._emats[h]

    def _bonds(self, below: np.ndarray) -> list[np.ndarray]:
        """Bond weights exp(-H_j(below_{j+1} - grid)), j = 1..n, to a row pinned
        at ``below`` (n+2 values for every draw, or draws x (n+2); -inf allowed)."""
        grid = self.grid
        return [self._w(j, below[..., j + 1, None] - grid) for j in range(1, below.shape[-1] - 1)]

    def forward(self, x, bonds: list, above=None, scale=1.0):
        """Yield (alpha_j, box, peaks) for the interior columns j = 1..n of
        the free rows entering at ``x`` (top to bottom): alpha_j, a stack over
        draws of grid functions (m,)*len(x) divided by its per-draw ``peaks``
        and flushed below ``TINY``, holds the grid ``box`` (slices, draws
        first) and is zero elsewhere: a one-draw stack (shared ``bonds``) on
        two or more grid axes keeps only its nonzero box, in two reused
        buffers.  Products with ``gmat`` run over its band (``bands``),
        except on one shared row.  ``bonds`` (``_bonds``) pins the row under
        the free rows, ``above`` (n+2 values; +inf entries, whose bond factor
        is exactly 1, skipped) the row over them.  The bond-0 factor to the
        row below has a constant argument, so it drops out of every
        normalized conditional; the partition function passes it as
        ``scale``, a factor of column 1.
        """
        grid, p, m, n = self.grid, len(x), self.grid.size, len(bonds)
        shared = n and bonds[0].ndim == 1
        bufs = [np.empty(m**p), np.empty(m**p)] if p > 1 and shared else None
        top = self._g(grid - x[0])
        if above is not None and above[0] != np.inf:
            top = top * self._w(0, grid - above[0])
        factors = [top * scale]
        factors += [self._g(grid - x[i]) * self._w(0, grid - x[i - 1]) for i in range(1, p)]
        box = (slice(None),) + tuple(_span(f != 0.0) if bufs else slice(0, m) for f in factors)
        alpha = reduce(np.multiply.outer, [f[span] for f, span in zip(factors, box[1:])])[None]
        for j in range(1, n + 1):
            alpha, peaks = _rescaled(alpha)
            yield alpha, box, peaks
            if j == n:
                return
            w = _on_last_axis(bonds[j - 1][..., box[-1]], p)
            if bufs is None:
                alpha = alpha * w
            else:
                alpha = np.multiply(alpha, w, out=_buffer(bufs, alpha.shape))
            for i in range(p - 1, -1, -1):
                if bufs is None:  # one shared row is one gemm: a gemm per band block costs more
                    band = WHOLE if shared else self.bands[0]
                    alpha = _contract(_flush(alpha), self.gmat, i, band)
                else:
                    alpha, box = _contract_box(
                        _flush(alpha), box, self.gmat, self.bands, i, bufs
                    )
                if i:
                    alpha *= _on_axes(self._emat(j)[box[i], box[i + 1]], i - 1, p)
                elif above is not None and above[j] != np.inf:
                    alpha *= self._w(j, grid[box[1]] - above[j]).reshape((1, -1) + (1,) * (p - 1))


def log_partition(spec: EnsembleSpec, m: int = DEFAULT_COUPLING_GRID_M) -> float:
    """log of the partition function of ``spec``: the integral over the
    interior points of the free increment densities times the Boltzmann
    weight, by the forward transfer sweep on a uniform m-point grid (a
    Riemann sum, rescaled by its peak at every column).

    The sweep carries the joint grid function (m,)^k of the free curves
    across the columns; finite ``f``/``g`` rows enter as the top and bottom
    bonds.  The grid spans the boundary data padded by the free-walk spread,
    as in ``default_window``.  With every bond switched off the curves are
    independent and each is swept on its own.  A joint sweep holds m^k
    states and costs k m^(k+1) multiply-adds per column; more than
    ``MAX_SWEEP_STATES`` states raise ``ResourceLimitError``.
    """
    return _log_partitions([spec], m)[0]


def _log_partitions(specs: list, m: int) -> list[float]:
    """``log_partition`` of each of ``specs``, which differ in their
    interactions only, on the grid of the first, all sweeps sharing one
    increment matrix."""
    if m < 2:
        raise ValueError("grid resolution must be >= 2")
    spec = specs[0]
    T = spec.b - spec.a
    grid = np.linspace(*_padded_range(spec.x_vec + spec.y_vec + spec.f + spec.g, T, spec.hrw), m)
    sweeps = _on_one_grid(_Transfer(s.hrw, s.interaction, grid, s.a) for s in specs)
    return [_log_partition(s, sweep) for s, sweep in zip(specs, sweeps)]


def _log_partition(spec: EnsembleSpec, sweep: _Transfer) -> float:
    rows = range(spec.n_curves)
    if all(spec.interaction.bond(j).kind == "zero" for j in range(spec.a, spec.b)):
        return float(sum(_log_sweep(spec, sweep, [i]) for i in rows))
    return _log_sweep(spec, sweep, list(rows))


def _log_sweep(spec: EnsembleSpec, sweep: _Transfer, rows: list) -> float:
    """``log_partition`` of the curves ``rows`` of ``spec`` swept jointly, with
    the curves above and below them as in ``spec`` (exact only when ``rows``
    are all the curves or every bond is off)."""
    x = np.asarray(spec.x_vec)[rows]
    y = np.asarray(spec.y_vec)[rows]
    f = np.asarray(spec.f, dtype=float)
    g = np.asarray(spec.g, dtype=float)
    k, T, grid = x.size, spec.b - spec.a, sweep.grid
    if T == 1:  # no interior point: the weight of the endpoint configuration
        bonds = sweep._w(0, np.append(y, g[1]) - np.concatenate([[f[0]], x]))
        return float(spec.hrw.log_g(y - x).sum()) + _checked_log(float(np.prod(bonds)))
    if grid.size**k > MAX_SWEEP_STATES:
        raise ResourceLimitError(
            f"partition sweep over {grid.size}^{k} grid states exceeds {MAX_SWEEP_STATES}"
        )
    log_z = k * (T - 1) * math.log(grid[1] - grid[0])
    columns = sweep.forward(x, sweep._bonds(g), f, sweep._w(0, g[1] - x[-1]))
    for _ in range(T - 2):  # hold no column while the sweep builds the next one
        log_z += math.log(next(columns)[2][0])
    alpha, box, peak = next(columns)
    log_z += math.log(peak[0])
    # exit column T, pinned at y, through bond T - 1, over the whole grid
    total = _expanded(alpha, box, grid.size)[0]
    for i in range(k - 1, -1, -1):
        below = y[i + 1] if i < k - 1 else g[T]
        total = total @ (sweep._g(y[i] - grid) * sweep._w(T - 1, below - grid))
    return log_z + _checked_log(float(total) * float(sweep._w(T - 1, y[0] - f[T - 1])))


class GrandCouplingEngine(_Transfer):
    """Transfer-sweep machinery for one boundary datum on a fixed grid.

    Rows are processed bottom-to-top; within the active row p1 the forward
    functions alpha_j (rows 1..p1 free) and the backward functions (rows
    1..p1-1 free, row p1 pinned at its already-drawn values) meet at the
    site being drawn.  Transfer functions are stacks over draws (leading
    axis; length 1 when shared by all draws).  The bottom-row alphas depend
    only on the boundary and are computed once per engine.
    """

    def __init__(
        self,
        boundary: BoundaryTriple,
        T: int,
        hrw: HrwSpec,
        interaction: InteractionSpec | None = None,
        m: int = DEFAULT_COUPLING_GRID_M,
        window: tuple[float, float] | None = None,
    ):
        if T < 2:
            raise ValueError("need T >= 2")
        if m < 256:
            raise ValueError("grid resolution must be >= 256")
        if len(boundary.z_vec) != T:
            raise ValueError(f"bottom curve must have {T} values")
        self.boundary = boundary
        self.k = boundary.k
        self.T = T
        self.n = T - 2
        interaction = interaction if interaction is not None else InteractionSpec.exp(0, T - 1)
        if interaction.a > 0 or interaction.b < T - 1:
            raise ValueError("interaction must cover bonds 0..T-2")
        if window is None:
            window = default_window([boundary], T, hrw)
        self.lo, self.hi = window
        self.m = m
        super().__init__(hrw, interaction, np.linspace(self.lo, self.hi, m), 0)
        self._bottom_alphas: list[tuple] | None = None

    def _alphas(self, p1: int, bonds: list) -> list[tuple]:
        """(alpha_j, box) for j = 1..n as ``forward`` yields them, with rows
        1..p1 free over the row whose bond weights are ``bonds``."""
        return [(alpha, box) for alpha, box, _ in self.forward(self.boundary.x_vec[:p1], bonds)]

    def bottom_alphas(self) -> list[tuple]:
        """The bottom row's (alpha_j, box), shared by every draw, each stored over its box."""
        if self._bottom_alphas is None:
            self._bottom_alphas = self._alphas(self.k, self._bonds(np.asarray(self.boundary.z_vec)))
        return self._bottom_alphas

    # -- backward (pinned-row) transfer functions --------------------------
    def _beta_init(self, p1: int) -> np.ndarray:
        """beta at column n for p1 >= 2: everything to the right is the exit
        vector; shape (1,) + (m,)*(p1-1)."""
        y = self.boundary.y_vec
        j = self.n  # bond n couples column n to column n+1 = T-1
        beta = self._g(y[0] - self.grid) * self._w(j, y[1] - self.grid)
        for i in range(1, p1 - 1):
            beta = np.multiply.outer(
                beta, self._g(y[i] - self.grid) * self._w(j, y[i + 1] - self.grid)
            )
        return _rescaled(beta[None])[0]

    def _beta_step(self, beta: np.ndarray, j: int, bond: np.ndarray) -> np.ndarray:
        """beta_j from beta_{j+1}: rows 1..p1-1 free, row p1 pinned at its
        values at column j+1, whose bond-j weights (draws x m) are ``bond``."""
        q = beta.ndim - 1
        nxt = beta
        for i in range(q):
            if i:
                nxt = nxt * _on_axes(self._emat(j), i - 1, q)
            nxt = _contract(_flush(nxt), self.gmat.T, i, self.bands[1])
        return _rescaled(nxt * _on_last_axis(bond, q))[0]

    # -- site conditionals --------------------------------------------------
    def _site_values(
        self, p1: int, p2: int, alpha, box, beta, s_right: np.ndarray, bond: np.ndarray
    ) -> np.ndarray:
        """Unnormalized conditional densities (draws x m) of the point
        (p1, p2) on the grid, peak 1 per draw.

        ``alpha``, ``box`` -- alpha_{p2} of row p1 and the grid box it holds
        (shared by every draw for p1 = k)
        ``beta``   -- backward function at column p2 (None for p1 = 1)
        ``s_right``  -- values of row p1 at column p2+1 (exit value if p2 = n)
        ``bond`` -- weights of bond p2 to row p1+1 at column p2+1 (the bottom
        curve for the lowest row): (m,) or draws x m
        """
        u = self._g(s_right[:, None] - self.grid) * bond
        if beta is None:
            vals = alpha * u
        else:
            rows = beta.reshape(beta.shape[0], -1)
            if p1 == 2 == self.k:  # the shared alpha over its box
                joint = np.zeros((rows.shape[0], self.m))
                joint[:, box[2]] = _row_products(rows[:, box[1]], alpha[0])
            elif p1 == self.k:  # a sum over m^2 entries spans BLAS blocks: the whole grid
                joint = _row_products(rows, _expanded(alpha, box, self.m).reshape(-1, self.m))
            else:
                joint = (rows[:, None] @ alpha.reshape(alpha.shape[0], rows.shape[1], -1))[:, 0]
            vals = joint * u
        peak = vals.max(axis=1)
        if not np.all(peak > 0.0):
            raise PrecisionError("site conditional underflowed on the grid")
        return vals / peak[:, None]

    # -- sampling -----------------------------------------------------------
    def sample(self, omega: np.ndarray) -> np.ndarray:
        """Evaluate the coupling at one sample point or a batch of them.

        ``omega`` has shape (k(T-2),) or (B, k(T-2)) with entries in (0, 1);
        omega[..., (i-1)(T-2) + (j-1)] drives the interior point (i, j), and
        the points are filled in reverse lexicographic order.  Returns the
        (k, T) value array, or (B, k, T) for a batch.  Each draw's output is
        bit-identical whatever batch it is drawn in.
        """
        k, T, n = self.k, self.T, self.n
        omega = np.asarray(omega, dtype=float)
        if omega.ndim not in (1, 2) or omega.shape[-1] != k * n:
            raise ValueError(
                f"omega must have shape (k(T-2),) or (B, k(T-2)) with k(T-2) = {k * n}"
            )
        if not np.all((omega > 0.0) & (omega < 1.0)):
            raise ValueError("uniforms must lie strictly in (0, 1)")
        draws = omega if omega.ndim == 2 else omega[None]
        vals = np.empty((draws.shape[0], k, T))
        vals[:, :, 0] = self.boundary.x_vec
        vals[:, :, -1] = self.boundary.y_vec
        # at most m draws at a time: no stacked array outgrows one bottom-row
        # transfer function (m^k entries)
        for start in range(0, draws.shape[0] if n else 0, self.m):
            self._fill(vals[start : start + self.m], draws[start : start + self.m])
        return vals if omega.ndim == 2 else vals[0]

    def _fill(self, vals: np.ndarray, omega: np.ndarray) -> None:
        n, grid, bonds = self.n, self.grid, self._bonds(np.asarray(self.boundary.z_vec))
        step = grid[1] - grid[0]  # the whole grid's: linspace differences differ in the last bit
        for p1 in range(self.k, 0, -1):
            alphas = self.bottom_alphas() if p1 == self.k else self._alphas(p1, bonds)
            beta = self._beta_init(p1) if p1 > 1 else None
            # ``_bonds`` of this row for the row above, each built once, when its value is drawn
            drawn = [None] * (n - 1) + [self._w(n, vals[:, p1 - 1, n + 1, None] - grid)]
            for p2 in range(n, 0, -1):
                dens = self._site_values(
                    p1, p2, *alphas[p2 - 1], beta, vals[:, p1 - 1, p2 + 1], bonds[p2 - 1]
                )
                u = omega[:, (p1 - 1) * n + p2 - 1]
                cols = _site_span(dens)
                vals[:, p1 - 1, p2] = inverse_cdf_rows(grid[cols], dens[:, cols], u, step=step)
                if beta is not None and p2 > 1:
                    drawn[p2 - 2] = self._w(p2 - 1, vals[:, p1 - 1, p2, None] - grid)
                    beta = self._beta_step(beta, p2 - 1, drawn[p2 - 2])
            bonds = drawn


def grand_coupling_sample(
    boundary: BoundaryTriple,
    omega: np.ndarray,
    k: int,
    T: int,
    hrw: HrwSpec,
    interaction: InteractionSpec | None = None,
    m: int = DEFAULT_COUPLING_GRID_M,
    window: tuple[float, float] | None = None,
) -> DiscreteLineEnsemble:
    """One coupled draw: the Gibbs ensemble for ``boundary`` evaluated at the
    sample point omega in (0,1)^(k(T-2)).  T = 2 returns the deterministic
    endpoint configuration."""
    if boundary.k != k:
        raise ValueError("boundary has wrong number of curves")
    engine = GrandCouplingEngine(boundary, T, hrw, interaction, m, window)
    return DiscreteLineEnsemble(curves=engine.sample(omega), t0=0, t1=T - 1)


def _on_one_grid(sweeps):
    """``sweeps`` on one grid, each after the first sharing its increment
    matrix, band tables and bond matrices (keyed by Hamiltonian)."""
    sweeps = iter(sweeps)
    first = next(sweeps)
    yield first
    for sweep in sweeps:
        sweep.gmat, sweep.bands, sweep._emats = first.gmat, first.bands, first._emats
        yield sweep


def _engines(boundaries, T, hrw, interaction, m, window):
    """Engines for ``boundaries`` on one window, sharing one increment matrix and bond matrices."""
    return _on_one_grid(GrandCouplingEngine(b, T, hrw, interaction, m, window) for b in boundaries)


def coupled_gaps(
    b_low: BoundaryTriple,
    b_high: BoundaryTriple,
    omega: np.ndarray,
    T: int,
    hrw: HrwSpec,
    interaction: InteractionSpec | None,
    m: int,
) -> tuple[np.ndarray, float]:
    """Both boundary data evaluated on each sample point of ``omega`` (B x
    k(T-2)), on one grid spanning both: the per-draw worst violation
    max(low - high) over all lattice points, and ``eps_grid``, 1e-8 of the
    grid width, the tolerance a violation is measured against.  Boundary
    data that are not ordered raise ``ValueError``."""
    for name in ("x_vec", "y_vec", "z_vec"):
        lo_v = np.asarray(getattr(b_low, name))
        hi_v = np.asarray(getattr(b_high, name))
        if not np.all(lo_v <= hi_v):
            raise ValueError(f"boundary data not ordered in {name}")
    window = default_window([b_low, b_high], T, hrw)
    eng_lo, eng_hi = _engines([b_low, b_high], T, hrw, interaction, m, window)
    gaps = (eng_lo.sample(omega) - eng_hi.sample(omega)).max(axis=(1, 2))
    return gaps, 1e-8 * (window[1] - window[0])


def monotonicity_check(
    b_low: BoundaryTriple,
    b_high: BoundaryTriple,
    n_draws: int,
    k: int,
    T: int,
    rng: np.random.Generator,
    hrw: HrwSpec,
    interaction: InteractionSpec | None = None,
    m: int = DEFAULT_COUPLING_GRID_M,
) -> StatReport:
    """Pathwise-ordering check under common uniforms.

    Draws ``n_draws`` omegas, evaluates both boundary data on each, and
    records the worst violation of low <= high over all lattice points; a
    violation beyond ``eps_grid`` (1e-8 of the grid width) is counted, not
    raised.
    """
    omega = rng.uniform(size=(n_draws, k * (T - 2)))
    gaps, eps_grid = coupled_gaps(b_low, b_high, omega, T, hrw, interaction, m)
    report = StatReport(
        meta={"n_draws": n_draws, "grid_m": m, "eps_grid": eps_grid, "k": k, "T": T}
    )
    report.add("max_violation", float(gaps.max(initial=0.0)))
    report.add("n_violations", float(np.count_nonzero(gaps > eps_grid)))
    return report


def continuity_check(
    boundary: BoundaryTriple,
    delta: float,
    omega: np.ndarray,
    k: int,
    T: int,
    hrw: HrwSpec,
    interaction: InteractionSpec | None = None,
    m: int = DEFAULT_COUPLING_GRID_M,
    halvings: int = 3,
) -> StatReport:
    """Output response to shrinking boundary perturbations at fixed omega.

    The boundary is shifted up by delta, delta/2, ... (finite entries only)
    and the sup-norm output change is recorded for each step; under the
    continuous coupling these changes shrink with delta (within grid
    interpolation error).
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    deltas = [delta / 2**i for i in range(halvings + 1)]
    window = default_window([boundary, boundary.shifted(delta)], T, hrw)
    engines = _engines([boundary, *map(boundary.shifted, deltas)], T, hrw, interaction, m, window)
    base = next(engines).sample(omega)
    report = StatReport(meta={"grid_m": m, "k": k, "T": T})
    for i, (d, engine) in enumerate(zip(deltas, engines)):
        report.add(f"sup_change_delta_{i}", float(np.abs(engine.sample(omega) - base).max()))
        report.meta[f"delta_{i}"] = d
    return report
