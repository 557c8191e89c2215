"""Random-walk bridges for a log-convex increment density G = exp(-H_rw).

Provides the increment-law specification (log-gamma, a Gaussian test law, or
a user-tabulated density), its tabulation on a truncated grid, n-step laws by
FFT self-convolution, and two independent bridge samplers: the sequential
(exact) conditional sampler and a single-site Gibbs sweep sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc, ndtri

from .errors import PrecisionError, ResourceLimitError
from .grids import GridDensity, inverse_cdf_rows
from .special import trigamma, digamma

__all__ = [
    "HrwSpec",
    "BridgeSpec",
    "hrw_density",
    "n_step_density",
    "sample_bridge_sequential",
    "sample_bridges_sequential",
    "sample_bridges_mcmc",
]

DEFAULT_GRID_M = 4096
SAMPLER_GRID_M = 512
TRUNCATION_EPS = 1e-12


@dataclass(frozen=True)
class HrwSpec:
    """Specification of the increment Hamiltonian H_rw (G = exp(-H_rw)).

    kind "log-gamma": H_rw(x) = theta x + exp(-x) + log Gamma(theta); the
    increment is -log of a Gamma(theta, 1) variate.
    kind "zero-interaction-test": a standard normal increment, handy for
    closed-form cross-checks.
    kind "tabulated": density values given on a grid; normalized at
    construction (a non-normalizable table is a domain error).
    """

    kind: str
    theta: float | None = None
    table_x: tuple | None = None
    table_values: tuple | None = None

    def __post_init__(self):
        if self.kind == "log-gamma":
            if self.theta is None or self.theta <= 0.0:
                raise ValueError("log-gamma kind needs theta > 0")
        elif self.kind == "zero-interaction-test":
            pass
        elif self.kind == "tabulated":
            if self.table_x is None or self.table_values is None:
                raise ValueError("tabulated kind needs table_x and table_values")
            v = np.asarray(self.table_values, dtype=float)
            x = np.asarray(self.table_x, dtype=float)
            if np.any(v < 0) or not np.all(np.isfinite(v)) or v.max() <= 0:
                raise ValueError("tabulated density must be nonnegative, finite, not all zero")
            mass = np.trapezoid(v, x)
            if not (np.isfinite(mass) and mass > 0):
                raise ValueError("tabulated density is not normalizable")
        else:
            raise ValueError(f"unknown H_rw kind {self.kind!r}")

    @classmethod
    def log_gamma(cls, theta: float) -> "HrwSpec":
        return cls(kind="log-gamma", theta=float(theta))

    @classmethod
    def gaussian_test(cls) -> "HrwSpec":
        return cls(kind="zero-interaction-test")

    @classmethod
    def tabulated(cls, x, values) -> "HrwSpec":
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        mass = np.trapezoid(values, x)
        return cls(kind="tabulated", table_x=tuple(x), table_values=tuple(values / mass))

    def log_g(self, x):
        """log density of one increment, vectorized; -inf outside the support."""
        x = np.asarray(x, dtype=float)
        if self.kind == "log-gamma":
            th = self.theta
            with np.errstate(over="ignore"):
                return -th * x - np.exp(-x) - math.lgamma(th)
        if self.kind == "zero-interaction-test":
            return -0.5 * x**2 - 0.5 * math.log(2.0 * math.pi)
        tx = np.asarray(self.table_x)
        with np.errstate(divide="ignore"):
            logv = np.log(np.asarray(self.table_values))
        return np.interp(x, tx, logv, left=-np.inf, right=-np.inf)

    def increment_mean(self) -> float:
        if self.kind == "log-gamma":
            return -digamma(self.theta)
        if self.kind == "zero-interaction-test":
            return 0.0
        x = np.asarray(self.table_x)
        v = np.asarray(self.table_values)
        return float(np.trapezoid(x * v, x))

    def increment_var(self) -> float:
        if self.kind == "log-gamma":
            return trigamma(self.theta)
        if self.kind == "zero-interaction-test":
            return 1.0
        x = np.asarray(self.table_x)
        v = np.asarray(self.table_values)
        mu = self.increment_mean()
        return float(np.trapezoid((x - mu) ** 2 * v, x))

    def support(self) -> tuple[float, float]:
        """An interval outside of which the increment mass is <= ``TRUNCATION_EPS``."""
        if self.kind == "log-gamma":
            th = self.theta
            # mass above W: P(theta, e^-W) ~ e^(-W theta)/Gamma(theta+1)
            right = (math.log(2.0 / TRUNCATION_EPS) - math.lgamma(th + 1.0)) / th + 1.0
            # mass below -a: Q(theta, e^a); bracket a in [0, 60]
            lo_a, hi_a = 0.0, 60.0
            for _ in range(80):
                mid = 0.5 * (lo_a + hi_a)
                if gammaincc(th, math.exp(mid)) > TRUNCATION_EPS / 2.0:
                    lo_a = mid
                else:
                    hi_a = mid
            return (-hi_a, right)
        if self.kind == "zero-interaction-test":
            w = float(ndtri(1.0 - TRUNCATION_EPS / 2.0)) + 0.5
            return (-w, w)
        return (float(self.table_x[0]), float(self.table_x[-1]))


@dataclass(frozen=True)
class BridgeSpec:
    """A random walk bridge pinned to (t0, x) and (t1, y)."""

    t0: int
    t1: int
    x: float
    y: float
    hrw: HrwSpec

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")

    @property
    def steps(self) -> int:
        return self.t1 - self.t0


def hrw_density(hrw: HrwSpec, m: int = DEFAULT_GRID_M) -> GridDensity:
    """Tabulate the increment density on [mu - W, mu + W], truncated mass
    <= ``TRUNCATION_EPS``, and normalize."""
    mu = hrw.increment_mean()
    s_lo, s_hi = hrw.support()
    w = max(mu - s_lo, s_hi - mu)
    grid = np.linspace(mu - w, mu + w, m)
    with np.errstate(under="ignore"):
        values = np.exp(hrw.log_g(grid))
    dens = GridDensity(lo=mu - w, hi=mu + w, values=values).normalized()
    if abs(dens.mass() - 1.0) > 1e-6:
        raise ValueError("increment density failed to normalize on its grid")
    return dens


def _convolve(a: GridDensity, b: GridDensity) -> GridDensity:
    from scipy.fft import irfft, next_fast_len, rfft  # loaded by the first n-step table

    if abs(a.step - b.step) > 1e-12 * a.step:
        raise ValueError("convolution requires identical grid spacing")
    # the full linear convolution by real FFT, zero-padded to a fast length
    n = a.values.size + b.values.size - 1
    size = next_fast_len(n, True)
    vals = irfft(rfft(a.values, size) * rfft(b.values, size), size)[:n] * a.step
    vals = np.clip(vals, 0.0, None)
    lo = a.lo + b.lo
    # trim negligible tails to keep grids compact
    keep = np.nonzero(vals > vals.max() * 1e-17)[0]
    i0, i1 = int(keep[0]), int(keep[-1])
    i1 = max(i1, i0 + 3)
    return GridDensity(lo=lo + i0 * a.step, hi=lo + i1 * a.step, values=vals[i0 : i1 + 1])


def _step_powers(power: GridDensity, unit: GridDensity, max_width: float = 2.0e4):
    """Yield (power, density) for one more increment at a time: the
    unnormalised ``power`` convolved once more with ``unit`` by FFT on the
    widening grid, and that power normalised.  A total support beyond
    ``max_width`` is a resource error."""
    while True:
        power = _convolve(power, unit)
        if power.hi - power.lo > max_width:
            raise ResourceLimitError(
                f"n-step grid grew beyond max_width={max_width}; increase the cap"
            )
        mass = power.mass()
        if abs(mass - 1.0) > 1e-6:
            raise PrecisionError(f"n-step mass drifted to {mass}")
        yield power, power.normalized()


def n_step_density(g: GridDensity, n: int, max_width: float = 2.0e4) -> GridDensity:
    """Density of the sum of n independent increments, by repeated FFT
    self-convolution on the widening grid.  Exceeding ``max_width`` of total
    support is a resource error."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dens = g.normalized()
    powers = _step_powers(dens, dens, max_width)
    for _ in range(n - 1):
        _, dens = next(powers)
    return dens


class _StepDensities:
    """The n-step densities of one increment law on one grid size: density n
    continues ``_step_powers`` from the unnormalised (n-1)-fold power, the
    only power kept.  n = 1 is the tabulated density itself."""

    def __init__(self, hrw: HrwSpec, m: int):
        self.dens = [hrw_density(hrw, m)]
        self.unit = self.power = self.dens[0].normalized()

    def get(self, n: int) -> GridDensity:
        powers = _step_powers(self.power, self.unit)
        while len(self.dens) < n:
            self.power, dens = next(powers)
            self.dens.append(dens)
        return self.dens[n - 1]


@lru_cache(maxsize=64)
def _step_densities(hrw: HrwSpec, m: int) -> _StepDensities:
    return _StepDensities(hrw, m)


def _step_density_cached(hrw: HrwSpec, n: int, m: int) -> GridDensity:
    return _step_densities(hrw, m).get(n)


@lru_cache(maxsize=64)
def _support(hrw: HrwSpec) -> tuple[float, float]:
    """``hrw.support()``, computed once per law."""
    return hrw.support()


@lru_cache(maxsize=16)
def _unit_grid(m: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, m)
    t.flags.writeable = False
    return t


def _streams(rng, n_samples: int):
    """One Generator as is, or a sequence of ``n_samples`` per-sample Generators."""
    if isinstance(rng, np.random.Generator):
        return rng
    rngs = list(rng)
    if len(rngs) != n_samples:
        raise ValueError(f"need one Generator per sample: {n_samples}, got {len(rngs)}")
    return rngs


def _uniforms(rng, d: int, rows) -> np.ndarray:
    """Uniforms (d, len(rows)), column j for sample ``rows[j]``: one Generator
    gives d successive draws of len(rows) values, per-sample ones d values each."""
    if isinstance(rng, np.random.Generator):
        return rng.uniform(size=(d, len(rows)))
    return np.array([rng[i].uniform(size=d) for i in rows]).reshape(len(rows), d).T


def _conditional_grid(lo1, hi1, lo2, hi2, m):
    """Per-row uniform grids over the intersection [lo1,hi1] & [lo2,hi2]."""
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    if np.any(hi <= lo):
        raise PrecisionError("conditional density support is empty on the grid")
    grids = _unit_grid(m)[None, :] * (hi - lo)[:, None]
    grids += lo[:, None]
    return grids


def _draw_sites(grids: np.ndarray, log_pdf: np.ndarray, u: np.ndarray, error: str) -> np.ndarray:
    """The site kernel of every grid sampler: one inverse-CDF draw per row
    from log-density values on per-row grids, driven by one uniform per row.
    A row whose log-density is -inf everywhere raises ``PrecisionError(error)``.
    ``log_pdf`` is overwritten with the pdf values."""
    peak = log_pdf.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise PrecisionError(error)
    log_pdf -= peak
    with np.errstate(under="ignore"):
        pdf = np.exp(log_pdf, out=log_pdf)
    return inverse_cdf_rows(grids, pdf, u)


def _sequential_paths(
    hrw: HrwSpec, T: int, x: np.ndarray, y: np.ndarray, u: np.ndarray, m: int
) -> np.ndarray:
    """Bridge paths from per-sample endpoints x, y (S,), shape (S, T+1).

    The interior point at step j is drawn by ``u[j-1]`` (u has shape
    (T-1, S)) from the exact conditional G(u - prev) * G_{T-j}(y - u).
    """
    paths = np.empty((x.size, T + 1))
    paths[:, 0] = x
    paths[:, T] = y
    if T == 1:
        return paths
    s_lo, s_hi = _support(hrw)
    prev = paths[:, 0]
    for j in range(1, T):
        g_rem = _step_density_cached(hrw, T - j, m)
        grids = _conditional_grid(prev + s_lo, prev + s_hi, y - g_rem.hi, y - g_rem.lo, m)
        log_pdf = hrw.log_g(grids - prev[:, None])
        log_pdf += g_rem.log_pdf(y[:, None] - grids)
        prev = _draw_sites(grids, log_pdf, u[j - 1], "sequential conditional underflowed")
        paths[:, j] = prev
    return paths


def sample_bridges_sequential(
    spec: BridgeSpec, n_samples: int, rng, m: int = SAMPLER_GRID_M
) -> np.ndarray:
    """n_samples independent bridge paths, shape (n_samples, t1 - t0 + 1).

    The endpoints are pinned exactly; the interior point at step j is drawn
    from the exact conditional  G(u - prev) * G_{T-j}(y - u)  by grid
    inverse-CDF with linear interpolation.  ``rng`` is one Generator (read
    as T-1 successive draws of n_samples uniforms) or a sequence of
    n_samples Generators, sample i reading T-1 uniforms from ``rng[i]``.
    """
    rng = _streams(rng, n_samples)
    x, y = np.full(n_samples, float(spec.x)), np.full(n_samples, float(spec.y))
    u = _uniforms(rng, spec.steps - 1, range(n_samples))
    return _sequential_paths(spec.hrw, spec.steps, x, y, u, m)


def sample_bridge_sequential(
    spec: BridgeSpec, rng: np.random.Generator, m: int = SAMPLER_GRID_M
) -> np.ndarray:
    """A single bridge path (values at t0..t1) from the sequential sampler."""
    return sample_bridges_sequential(spec, 1, rng, m)[0]


def sample_bridges_mcmc(
    spec: BridgeSpec,
    n_samples: int,
    sweeps: int,
    rng,
    m: int = SAMPLER_GRID_M,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """n_samples parallel single-site Gibbs chains, each updated ``sweeps`` times.

    Every interior site is resampled from its exact full conditional
    G(u - left) * G(right - u); endpoints never move.  Initialized from the
    linear chord unless ``init`` paths are supplied.  This is
    ``gibbs.sample_ensembles_mcmc`` with one curve and every bond switched off.
    """
    from .gibbs import EnsembleSpec, InteractionSpec, sample_ensembles_mcmc

    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (n_samples, spec.steps + 1):
            raise ValueError("init has wrong shape")
        init = init[:, None, :]
    zero = InteractionSpec.zero(spec.t0, spec.t1)
    ens = EnsembleSpec.make(1, 1, spec.t0, spec.t1, [spec.x], [spec.y], spec.hrw, zero)
    return sample_ensembles_mcmc(ens, n_samples, sweeps, rng, init, m)[:, 0, :]
