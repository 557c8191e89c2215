"""Tabulated densities on truncated uniform grids and inverse-CDF sampling.

This is the quadrature backbone shared by the bridge, Gibbs and coupling
modules: trapezoid mass, cumulative CDFs, and monotone linear-interpolation
inverses, in both single-row and batched (samples x grid) form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError

__all__ = ["GridDensity", "trapezoid_cdf", "inverse_cdf_rows"]


def trapezoid_cdf(values: np.ndarray, step: float) -> np.ndarray:
    """Cumulative trapezoid integral along the last axis, starting at 0."""
    inner = 0.5 * (values[..., 1:] + values[..., :-1]) * step
    out = np.zeros(values.shape)
    np.cumsum(inner, axis=-1, out=out[..., 1:])
    return out


def inverse_cdf_rows(
    x_rows: np.ndarray, pdf_rows: np.ndarray, u: np.ndarray, *, step: float | None = None
) -> np.ndarray:
    """Row-wise inverse-CDF draw: one uniform per row of tabulated pdf values.

    ``x_rows`` may be a single shared grid (1-d) or per-row grids (2-d with
    uniform spacing per row).  ``step`` is the spacing of every row when
    ``x_rows`` is a slice of a longer grid, whose own step may differ from
    ``x_rows[1] - x_rows[0]`` in the last bit.  Zero-mass rows raise
    ``PrecisionError``.
    """
    pdf_rows = np.atleast_2d(pdf_rows)
    x_rows = np.atleast_2d(x_rows)
    n_rows, n = pdf_rows.shape
    step = x_rows[:, 1] - x_rows[:, 0] if step is None else np.full(x_rows.shape[0], step)
    # the trapezoid CDF on unit spacing, then scaled by each row's step
    cdf = np.empty((n_rows, n))
    cdf[:, 0] = 0.0
    inner = np.add(pdf_rows[:, 1:], pdf_rows[:, :-1], out=cdf[:, 1:])
    inner *= 0.5
    np.cumsum(inner, axis=1, out=inner)
    cdf *= step[:, None]
    total = cdf[:, -1]
    if np.count_nonzero((total > 0.0) & (total < np.inf)) < n_rows:
        raise PrecisionError("conditional density has zero or non-finite mass on its grid")
    target = np.asarray(u) * total
    k = np.count_nonzero(cdf < target[:, None], axis=1)
    np.maximum(k, 1, out=k)
    np.minimum(k, n - 1, out=k)
    rows = np.arange(n_rows)
    c_lo = cdf[rows, k - 1]
    c_hi = cdf[rows, k]
    frac = np.where(c_hi > c_lo, (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0)
    grid_rows = np.minimum(rows, x_rows.shape[0] - 1)
    return x_rows[grid_rows, k - 1] + frac * step[grid_rows]


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative values tabulated on the uniform grid [lo, hi].  For a
    probability density the trapezoid mass must be within 1e-6 of 1."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("values must be a 1-d array with at least 4 points")
        if not self.hi > self.lo:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if np.any(values < 0.0) or np.any(~np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))

    def normalized(self) -> "GridDensity":
        total = np.trapezoid(self.values, dx=self.step)
        if not total > 0.0:
            raise PrecisionError("cannot normalize a zero-mass density")
        return GridDensity(self.lo, self.hi, self.values / total)

    def log_pdf(self, x) -> np.ndarray:
        """log of the linear interpolation of the table, -inf outside
        [lo, hi] and where the table is 0.

        ``np.interp`` reads only the nodes that bracket a query, so the log
        is taken of the slice of nodes spanning the queries (one node of
        margin on each side against rounding of the index) and interpolated
        there: the values equal those of interpolating the full log table.
        """
        x = np.asarray(x, dtype=float)
        last = self.m - 1
        i0, i1 = 0, last
        if x.size:
            with np.errstate(invalid="ignore", over="ignore"):
                span = np.floor((np.array([x.min(), x.max()]) - self.lo) / self.step)
            # a NaN bound fails both tests and keeps the full table
            if span[0] > 1.0:
                i0 = int(min(span[0] - 1.0, last))
            if span[1] < last - 2.0:
                i1 = int(max(span[1] + 2.0, 0.0))
        nodes = self._nodes(i0, i1)
        with np.errstate(divide="ignore"):
            logv = np.log(self.values[i0 : i1 + 1])
        return np.interp(x, nodes, logv, left=-np.inf, right=-np.inf)

    def _nodes(self, i0: int, i1: int) -> np.ndarray:
        """``self.x[i0 : i1 + 1]`` with the arithmetic of ``np.linspace``
        (node i is i * step + lo, the last node is hi exactly)."""
        nodes = np.arange(i0, i1 + 1, dtype=float)
        nodes *= self.step
        nodes += self.lo
        if i1 == self.m - 1:
            nodes[-1] = self.hi
        return nodes

    def cdf_values(self) -> np.ndarray:
        c = trapezoid_cdf(self.values, self.step)
        return c / c[-1]

    def ppf(self, u) -> np.ndarray:
        """Inverse CDF by monotone linear interpolation."""
        return np.interp(u, self.cdf_values(), self.x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.ppf(rng.uniform(size=size))

    def mean(self) -> float:
        d = self.normalized()
        return float(np.trapezoid(d.x * d.values, dx=d.step))

    def var(self) -> float:
        d = self.normalized()
        mu = d.mean()
        return float(np.trapezoid((d.x - mu) ** 2 * d.values, dx=d.step))
