"""Gibbs measures on interacting bridge ensembles: the Boltzmann reweighting
of independent random-walk bridges by nearest-neighbor interaction penalties.

The normalizing constant of the reweighting (the acceptance probability,
computed exactly by a transfer sweep) doubles as the accept rate of the exact
rejection sampler; a single-site Gibbs sweep sampler provides an independent
route to the same law, and the resampling-invariance check probes the
defining conditional property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bridge import (
    SAMPLER_GRID_M,
    HrwSpec,
    _conditional_grid,
    _draw_sites,
    _sequential_paths,
    _support,
    _streams,
    _uniforms,
)
from .ensembles import DiscreteLineEnsemble
from .errors import ResourceLimitError
# unused here; perfbench/test_bench.py checks that its tracer rebinds this name in gibbs
from .grids import inverse_cdf_rows  # noqa: F401
from .reports import EmpiricalCDF, StatReport, ks_distance, ks_two_sample_critical

__all__ = [
    "Hamiltonian",
    "InteractionSpec",
    "EnsembleSpec",
    "boltzmann_weight",
    "log_boltzmann_weight",
    "acceptance_probability",
    "sample_ensemble_rejection",
    "sample_ensembles_rejection",
    "sample_ensemble_mcmc",
    "sample_ensembles_mcmc",
    "gibbs_invariance_check",
    "window_spec_from_ensemble",
]


@dataclass(frozen=True)
class Hamiltonian:
    """A nonnegative continuous interaction penalty with H(-inf) = 0.

    Kinds: "exp" is H(x) = e^x (increasing, convex); "zero" switches a bond
    off; "tabulated" interpolates given convex increasing values (zero at and
    left of the first node, linearly extrapolated on the right).
    """

    kind: str
    table_x: tuple | None = None
    table_values: tuple | None = None

    def __post_init__(self):
        if self.kind in ("exp", "zero"):
            return
        if self.kind != "tabulated":
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        x = np.asarray(self.table_x, dtype=float)
        v = np.asarray(self.table_values, dtype=float)
        if x.ndim != 1 or x.size < 3 or v.shape != x.shape:
            raise ValueError("tabulated Hamiltonian needs matching 1-d tables (>= 3 nodes)")
        if abs(v[0]) > 1e-12:
            raise ValueError("tabulated Hamiltonian must start at 0 (H(-inf) = 0)")
        if np.any(v < -1e-12) or np.any(np.diff(v) < -1e-12):
            raise ValueError("tabulated Hamiltonian must be nonnegative and nondecreasing")
        slopes = np.diff(v) / np.diff(x)
        if np.any(np.diff(slopes) < -1e-9):
            raise ValueError("tabulated Hamiltonian must be convex")
        object.__setattr__(self, "table_x", tuple(x.tolist()))  # hashable: engines key on H
        object.__setattr__(self, "table_values", tuple(v.tolist()))

    def log_weight(self, x) -> np.ndarray:
        """-H(x), vectorized; arguments of -inf contribute 0."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "exp":
            with np.errstate(over="ignore"):
                return -np.exp(x)
        tx = np.asarray(self.table_x)
        tv = np.asarray(self.table_values)
        h = np.interp(x, tx, tv, left=0.0)
        slope = (tv[-1] - tv[-2]) / (tx[-1] - tx[-2])
        h = np.where(x > tx[-1], tv[-1] + slope * (x - tx[-1]), h)
        return -h


@dataclass(frozen=True)
class InteractionSpec:
    """Per-bond Hamiltonians H_m for the bonds m = a .. b-1."""

    a: int
    b: int
    hamiltonians: tuple

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError("need a < b")
        if len(self.hamiltonians) != self.b - self.a:
            raise ValueError(
                f"need one Hamiltonian per bond: {self.b - self.a}, got {len(self.hamiltonians)}"
            )

    @classmethod
    def exp(cls, a: int, b: int) -> "InteractionSpec":
        return cls(a=a, b=b, hamiltonians=tuple(Hamiltonian("exp") for _ in range(b - a)))

    @classmethod
    def zero(cls, a: int, b: int) -> "InteractionSpec":
        return cls(a=a, b=b, hamiltonians=tuple(Hamiltonian("zero") for _ in range(b - a)))

    def bond(self, m: int) -> Hamiltonian:
        if not self.a <= m < self.b:
            raise ValueError(f"bond {m} outside [{self.a}, {self.b - 1}]")
        return self.hamiltonians[m - self.a]

    def restricted(self, a: int, b: int) -> "InteractionSpec":
        if not (self.a <= a < b <= self.b):
            raise ValueError("restriction outside the original range")
        return InteractionSpec(a=a, b=b, hamiltonians=self.hamiltonians[a - self.a : b - self.a])


@dataclass(frozen=True)
class EnsembleSpec:
    """Boundary data and Hamiltonians of one Gibbs measure on curves k1..k2
    over times [a, b].

    ``f`` (top) may contain +inf and ``g`` (bottom) -inf entries; entrance
    and exit vectors are indexed top to bottom.
    """

    k1: int
    k2: int
    a: int
    b: int
    x_vec: tuple
    y_vec: tuple
    f: tuple
    g: tuple
    hrw: HrwSpec
    interaction: InteractionSpec

    def __post_init__(self):
        if self.a >= self.b:
            raise ValueError("need a < b")
        if self.k2 < self.k1:
            raise ValueError("need k1 <= k2")
        k = self.n_curves
        if len(self.x_vec) != k or len(self.y_vec) != k:
            raise ValueError("entrance/exit vectors must have one entry per curve")
        if len(self.f) != self.n_times or len(self.g) != self.n_times:
            raise ValueError("boundary curves f, g must cover [a, b]")
        if self.interaction.a > self.a or self.interaction.b < self.b:
            raise ValueError("interaction must cover the bonds of [a, b]")

    @classmethod
    def make(cls, k1, k2, a, b, x_vec, y_vec, hrw, interaction, f=None, g=None):
        n = b - a + 1
        f = tuple(f) if f is not None else (math.inf,) * n
        g = tuple(g) if g is not None else (-math.inf,) * n
        return cls(
            k1=k1, k2=k2, a=a, b=b,
            x_vec=tuple(float(v) for v in x_vec),
            y_vec=tuple(float(v) for v in y_vec),
            f=f, g=g, hrw=hrw, interaction=interaction,
        )

    @property
    def n_curves(self) -> int:
        return self.k2 - self.k1 + 1

    @property
    def n_times(self) -> int:
        return self.b - self.a + 1


def _log_weight_batch(
    interaction: InteractionSpec,
    a: int,
    b: int,
    curves: np.ndarray,
    f_rows: np.ndarray,
    g_rows: np.ndarray,
) -> np.ndarray:
    """log Boltzmann weight for a batch: curves (S, k, T+1), f/g (S, T+1) or (T+1,)."""
    S = curves.shape[0]
    f_rows = np.broadcast_to(f_rows, (S, curves.shape[2]))
    g_rows = np.broadcast_to(g_rows, (S, curves.shape[2]))
    rows = np.concatenate([f_rows[:, None, :], curves, g_rows[:, None, :]], axis=1)
    args = rows[:, 1:, 1:] - rows[:, :-1, :-1]  # (S, k+1, T)
    out = np.zeros(S)
    for m in range(a, b):
        out += interaction.bond(m).log_weight(args[:, :, m - a]).sum(axis=1)
    return out


def log_boltzmann_weight(spec: EnsembleSpec, ensemble) -> float:
    """log of the Boltzmann weight of a configuration under ``spec``."""
    curves = _coerce_curves(spec, ensemble)
    return float(
        _log_weight_batch(
            spec.interaction, spec.a, spec.b, curves[None],
            np.asarray(spec.f, dtype=float), np.asarray(spec.g, dtype=float),
        )[0]
    )


def boltzmann_weight(spec: EnsembleSpec, ensemble) -> float:
    """The Boltzmann weight in (0, 1]: exp of minus the summed bond penalties,
    with the boundary curves f, g standing in above and below."""
    return float(np.exp(log_boltzmann_weight(spec, ensemble)))


def _coerce_curves(spec: EnsembleSpec, ensemble) -> np.ndarray:
    if isinstance(ensemble, DiscreteLineEnsemble):
        if ensemble.t0 != spec.a or ensemble.t1 != spec.b or ensemble.k != spec.n_curves:
            raise ValueError("ensemble dimensions do not match the spec")
        return ensemble.curves
    curves = np.asarray(ensemble, dtype=float)
    if curves.shape != (spec.n_curves, spec.n_times):
        raise ValueError(
            f"expected curves of shape {(spec.n_curves, spec.n_times)}, got {curves.shape}"
        )
    return curves


def _free_bridge_batch(
    hrw: HrwSpec, a: int, b: int, x, y, u: np.ndarray, m: int
) -> np.ndarray:
    """Independent bridges for each curve: returns (S, k, T+1).

    ``x``/``y`` may be (k,) vectors shared by all samples or (S, k) arrays of
    per-sample endpoints; ``u[i]`` of shape (T-1, S) drives curve i.  All k*S
    rows go through one sequential pass, curve-major, so each site is one
    kernel call.
    """
    k, n_steps, n_samples = u.shape
    x = np.broadcast_to(np.asarray(x, dtype=float), (n_samples, k))
    y = np.broadcast_to(np.asarray(y, dtype=float), (n_samples, k))
    rows_u = u.transpose(1, 0, 2).reshape(n_steps, k * n_samples)
    paths = _sequential_paths(hrw, b - a, x.T.ravel(), y.T.ravel(), rows_u, m)
    return paths.reshape(k, n_samples, b - a + 1).transpose(1, 0, 2)


def acceptance_probability(spec: EnsembleSpec, m: int | None = None) -> float:
    """The acceptance probability Z in (0, 1]: the mean Boltzmann weight of
    independent free bridges, exp(log Z_H - log Z_0).

    Both partition functions come from ``coupling.log_partition`` on the same
    m-point grid (default ``coupling.DEFAULT_COUPLING_GRID_M``) and one
    increment matrix, Z_0 with every bond switched off, so a zero interaction
    gives exactly 1.0.  Raises ``ResourceLimitError`` when the sweep would
    hold more than ``coupling.MAX_SWEEP_STATES`` joint grid states (m^k).
    """
    from .coupling import DEFAULT_COUPLING_GRID_M, _log_partitions

    m = DEFAULT_COUPLING_GRID_M if m is None else m
    free = replace(spec, interaction=InteractionSpec.zero(spec.a, spec.b))
    log_z, log_z0 = _log_partitions([spec, free], m)
    return math.exp(log_z - log_z0)


def sample_ensembles_rejection(
    spec: EnsembleSpec,
    n_samples: int,
    rng,
    max_attempts: int = 10**6,
    m: int = SAMPLER_GRID_M,
    _xy_rows: tuple | None = None,
    _fg_rows: tuple | None = None,
) -> tuple[np.ndarray, int]:
    """Exact draws from the Gibbs measure by rejection: propose free bridges,
    accept with probability equal to the Boltzmann weight.

    Returns (curves of shape (n_samples, k, T+1), total attempt count).
    Raises ``ResourceLimitError`` once ``max_attempts`` proposals in total
    have been spent; vanishing acceptance probabilities are the caller's
    lookout.  Each round reads k(T-1)+1 uniforms per pending sample, the
    proposal's in (curve, time) order and then the accept draw: from one
    Generator as k(T-1)+1 successive draws of one value per pending sample,
    or from each pending sample's own Generator in a sequence of n_samples.
    """
    rng = _streams(rng, n_samples)
    k, T = spec.n_curves, spec.b - spec.a
    x_rows, y_rows = (np.asarray(r, dtype=float) for r in _xy_rows or (spec.x_vec, spec.y_vec))
    f_rows, g_rows = (np.asarray(r, dtype=float) for r in _fg_rows or (spec.f, spec.g))

    out = np.empty((n_samples, spec.n_curves, spec.n_times))
    pending = np.arange(n_samples)
    attempts = 0
    while pending.size:
        batch = pending.size
        if attempts + batch > max_attempts:
            raise ResourceLimitError(
                f"rejection sampler exhausted its {max_attempts}-attempt budget"
            )
        attempts += batch
        u = _uniforms(rng, k * (T - 1) + 1, pending)
        rows = (x_rows, y_rows, f_rows, g_rows)
        xs, ys, fs, gs = (r[pending] if r.ndim == 2 else r for r in rows)
        proposal = _free_bridge_batch(
            spec.hrw, spec.a, spec.b, xs, ys, u[:-1].reshape(k, T - 1, batch), m
        )
        logw = _log_weight_batch(spec.interaction, spec.a, spec.b, proposal, fs, gs)
        accept = np.log(u[-1]) < logw
        out[pending[accept]] = proposal[accept]
        pending = pending[~accept]
    return out, attempts


def sample_ensemble_rejection(
    spec: EnsembleSpec,
    rng: np.random.Generator,
    max_attempts: int = 10**6,
    m: int = SAMPLER_GRID_M,
) -> tuple[DiscreteLineEnsemble, int]:
    """A single exact Gibbs draw plus the number of proposals it took."""
    curves, attempts = sample_ensembles_rejection(spec, 1, rng, max_attempts, m)
    return DiscreteLineEnsemble(curves=curves[0], t0=spec.a, t1=spec.b), attempts


def _mcmc_sweep(curves: np.ndarray, spec: EnsembleSpec, u: np.ndarray, m: int, support) -> None:
    """One systematic single-site Gibbs sweep over all interior (curve, time)
    sites, in place: curves (S, k, T+1), site (i, t) driven by u[i, t-1]."""
    S, k, n_t = curves.shape
    s_lo, s_hi = support
    for i in range(k):
        above = np.asarray(spec.f, dtype=float) if i == 0 else curves[:, i - 1, :]
        below = np.asarray(spec.g, dtype=float) if i == k - 1 else curves[:, i + 1, :]
        above = np.broadcast_to(above, (S, n_t))
        below = np.broadcast_to(below, (S, n_t))
        for t in range(1, n_t - 1):
            left = curves[:, i, t - 1]
            right = curves[:, i, t + 1]
            grids = _conditional_grid(left + s_lo, left + s_hi, right - s_hi, right - s_lo, m)
            log_pdf = spec.hrw.log_g(grids - left[:, None])
            log_pdf += spec.hrw.log_g(right[:, None] - grids)
            bond_l = spec.interaction.bond(spec.a + t - 1)
            bond_r = spec.interaction.bond(spec.a + t)
            # a switched-off bond adds 0 everywhere, and so does a bond to f = +inf
            # or g = -inf: H(-inf) = 0 for every kind, a term of -0.0
            if bond_l.kind != "zero" and not (i == 0 and spec.f[t - 1] == math.inf):
                log_pdf += bond_l.log_weight(grids - above[:, t - 1][:, None])
            if bond_r.kind != "zero" and not (i == k - 1 and spec.g[t + 1] == -math.inf):
                log_pdf += bond_r.log_weight(below[:, t + 1][:, None] - grids)
            curves[:, i, t] = _draw_sites(
                grids, log_pdf, u[i, t - 1], "Gibbs full conditional underflowed on its grid"
            )


def sample_ensembles_mcmc(
    spec: EnsembleSpec,
    n_chains: int,
    sweeps: int,
    rng,
    init: np.ndarray | None = None,
    m: int = SAMPLER_GRID_M,
) -> np.ndarray:
    """Parallel single-site Gibbs chains targeting the Gibbs measure.

    Each interior site is resampled from its exact full conditional
    (neighboring increments times the two adjacent bond factors).  Chains
    start from the linear chords unless ``init`` is given, with columns 0
    and T pinned to ``x_vec``/``y_vec`` either way; with every bond switched
    off this reduces to independent bridge MCMC.  Each sweep reads
    k(T-1) uniforms per chain in (curve, time) order: from one Generator as
    k(T-1) successive draws of one value per chain, or from each chain's own
    Generator in a sequence of n_chains.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    rng = _streams(rng, n_chains)
    T = spec.b - spec.a
    if init is not None:
        curves = np.array(init, dtype=float, copy=True)
        if curves.shape != (n_chains, spec.n_curves, T + 1):
            raise ValueError("init has wrong shape")
    else:
        frac = np.linspace(0.0, 1.0, T + 1)
        x = np.asarray(spec.x_vec)[:, None]
        y = np.asarray(spec.y_vec)[:, None]
        curves = np.broadcast_to(x + frac * (y - x), (n_chains, spec.n_curves, T + 1)).copy()
    curves[:, :, 0], curves[:, :, T] = spec.x_vec, spec.y_vec
    k = spec.n_curves
    support = _support(spec.hrw)
    for _ in range(sweeps):
        u = _uniforms(rng, k * (T - 1), range(n_chains)).reshape(k, T - 1, n_chains)
        _mcmc_sweep(curves, spec, u, m, support)
    return curves


def sample_ensemble_mcmc(
    spec: EnsembleSpec,
    sweeps: int,
    rng: np.random.Generator,
    init=None,
    m: int = SAMPLER_GRID_M,
) -> DiscreteLineEnsemble:
    """A single MCMC draw after ``sweeps`` systematic sweeps."""
    init2 = None if init is None else np.asarray(init)[None]
    curves = sample_ensembles_mcmc(spec, 1, sweeps, rng, init2, m)
    return DiscreteLineEnsemble(curves=curves[0], t0=spec.a, t1=spec.b)


def _sub_spec_rows(spec: EnsembleSpec, curves: np.ndarray, kk1, kk2, aa, bb):
    """Per-sample boundary rows for resampling the box [kk1, kk2] x [aa, bb]."""
    ia, ib = aa - spec.a, bb - spec.a
    i1, i2 = kk1 - spec.k1, kk2 - spec.k1
    x_rows = curves[:, i1 : i2 + 1, ia]
    y_rows = curves[:, i1 : i2 + 1, ib]
    if i1 == 0:
        f_rows = np.broadcast_to(
            np.asarray(spec.f, dtype=float)[ia : ib + 1], (curves.shape[0], ib - ia + 1)
        )
    else:
        f_rows = curves[:, i1 - 1, ia : ib + 1]
    g_rows = curves[:, i2 + 1, ia : ib + 1]  # kk2 <= k2 - 1 guarantees this row exists
    return x_rows, y_rows, f_rows, g_rows


def gibbs_invariance_check(
    spec: EnsembleSpec,
    sub_box: tuple[int, int, int, int],
    n_samples: int,
    rng: np.random.Generator,
    m: int = SAMPLER_GRID_M,
    max_attempts: int = 10**7,
) -> StatReport:
    """Resampling-invariance probe of the conditional (Gibbs) property.

    Draws ``n_samples`` exact ensembles, conditionally resamples the interior
    of ``sub_box = (kk1, kk2, aa, bb)`` given everything outside it, and
    compares pre- vs post-resampling marginals at probe points by two-sample
    KS on independent halves.  The box must not touch the bottom curve.
    """
    kk1, kk2, aa, bb = sub_box
    if not (spec.k1 <= kk1 <= kk2 <= spec.k2 - 1):
        raise ValueError("sub_box curves must lie in [k1, k2-1] (bottom curve is boundary)")
    if not (spec.a <= aa < bb <= spec.b):
        raise ValueError("sub_box times must lie inside [a, b]")

    curves, _ = sample_ensembles_rejection(spec, n_samples, rng, max_attempts, m)
    x_rows, y_rows, f_rows, g_rows = _sub_spec_rows(spec, curves, kk1, kk2, aa, bb)
    sub = EnsembleSpec.make(
        kk1, kk2, aa, bb,
        x_vec=np.zeros(kk2 - kk1 + 1), y_vec=np.zeros(kk2 - kk1 + 1),
        hrw=spec.hrw, interaction=spec.interaction.restricted(aa, bb),
    )
    resampled, _ = sample_ensembles_rejection(
        sub, n_samples, rng, max_attempts, m,
        _xy_rows=(x_rows, y_rows), _fg_rows=(f_rows, g_rows),
    )
    post = curves.copy()
    post[:, kk1 - spec.k1 : kk2 - spec.k1 + 1, aa - spec.a : bb - spec.a + 1] = resampled

    # probe each resampled curve at three interior times, on independent halves
    half = n_samples // 2
    interior = np.linspace(aa + 1, bb - 1, 3).round().astype(int) if bb - aa >= 2 else []
    report = StatReport(meta={"sub_box": list(sub_box), "n_samples": n_samples})
    worst = 0.0
    for i in range(kk1, kk2 + 1):
        for t in np.unique(interior):
            pre_v = curves[:half, i - spec.k1, t - spec.a]
            post_v = post[half:, i - spec.k1, t - spec.a]
            d = ks_distance(EmpiricalCDF(pre_v), EmpiricalCDF(post_v))
            report.add(f"ks_curve{i}_t{t}", d)
            worst = max(worst, d)
    report.add("ks_max", worst)
    report.add("ks_critical_1pct", ks_two_sample_critical(half, n_samples - half))
    return report


def window_spec_from_ensemble(
    ensemble: DiscreteLineEnsemble,
    k: int,
    s_minus: int,
    s_plus: int,
    hrw: HrwSpec,
    interaction: InteractionSpec | None = None,
) -> EnsembleSpec:
    """The Gibbs spec of curves 1..k over [s_minus, s_plus] with boundary data
    read off the ensemble: entrance/exit at the window edges and the (k+1)-th
    curve as the bottom boundary."""
    if ensemble.k < k + 1:
        raise ValueError(f"need {k + 1} curves, ensemble has {ensemble.k}")
    if not (ensemble.t0 <= s_minus < s_plus <= ensemble.t1):
        raise ValueError("window outside ensemble data")
    ia = s_minus - ensemble.t0
    ib = s_plus - ensemble.t0
    if interaction is None:
        interaction = InteractionSpec.exp(s_minus, s_plus)
    return EnsembleSpec.make(
        1, k, s_minus, s_plus,
        x_vec=ensemble.curves[:k, ia],
        y_vec=ensemble.curves[:k, ib],
        hrw=hrw,
        interaction=interaction,
        g=ensemble.curves[k, ia : ib + 1],
    )
