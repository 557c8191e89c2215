"""1/3:2/3 rescaling of line ensembles and the empirical KPZ diagnostics:
one-point edge fluctuations against a GUE largest-eigenvalue oracle, window
extrema and curve gaps, acceptance-probability diagnostics, modulus of
continuity, and parabolic profile fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ensembles import DiscreteLineEnsemble
from .reports import EmpiricalCDF, StatReport, ks_distance, ks_two_sample_critical
from .special import ScalingConstants

__all__ = [
    "ScaledEnsemble",
    "kpz_scale",
    "tw_statistic",
    "tw_statistics_from_values",
    "modulus_of_continuity",
    "window_extrema",
    "gap_and_acceptance_diagnostics",
    "gue_tw_oracle",
    "EmpiricalCDF",
    "ks_distance",
    "ks_two_sample_critical",
    "StatReport",
    "ParabolaFit",
    "parabola_fit",
    "profile_points",
]


@dataclass(frozen=True)
class ScaledEnsemble:
    """Curves under the KPZ rescaling: horizontal N^(2/3), vertical N^(1/3).

    values[i, j] = f_i(s_j) on the lattice-time grid s_j; evaluation outside
    [-psi, psi] extends constantly (psi = psi_coeff * N^(1/3)).
    """

    values: np.ndarray
    s_grid: np.ndarray
    constants: ScalingConstants
    N: int

    @property
    def psi(self) -> float:
        return self.constants.psi_coeff * self.N ** (1.0 / 3.0)

    def evaluate(self, i: int, s) -> np.ndarray | float:
        sa = np.clip(np.asarray(s, dtype=float), self.s_grid[0], self.s_grid[-1])
        res = np.interp(sa, self.s_grid, self.values[i - 1])
        return res if isinstance(s, np.ndarray) else float(res)

    def unscale(self) -> DiscreteLineEnsemble:
        """Invert the rescaling at lattice points (round trip with kpz_scale)."""
        c = self.constants
        n_alpha = self.N**c.alpha
        j = self.s_grid * n_alpha
        curves = self.values * c.sigma_p * self.N ** (c.alpha / 2.0) + c.p * j
        j_int = np.rint(j).astype(int)
        return DiscreteLineEnsemble(curves=curves, t0=int(j_int[0]), t1=int(j_int[-1]))


def kpz_scale(ensemble: DiscreteLineEnsemble, constants: ScalingConstants, N: int) -> ScaledEnsemble:
    """f_i(s) = sigma_p^-1 N^(-1/3) (L_i(s N^(2/3)) - p s N^(2/3)) on the
    lattice grid of [-psi(N), psi(N)]."""
    if ensemble.t0 > -N or ensemble.t1 < N:
        raise ValueError(f"ensemble must cover [-N, N] = [{-N}, {N}]")
    c = constants
    n_alpha = N**c.alpha
    # psi(N) N^alpha = psi_coeff * N exactly; avoid float cube-root dust
    j_max = int(math.floor(c.psi_coeff * N + 1e-9))
    j = np.arange(-j_max, j_max + 1)
    cols = j - ensemble.t0
    vals = ensemble.curves[:, cols]
    scaled = (vals - c.p * j) / (c.sigma_p * N ** (c.alpha / 2.0))
    return ScaledEnsemble(values=scaled, s_grid=j / n_alpha, constants=c, N=N)


def tw_statistic(ensemble: DiscreteLineEnsemble, constants: ScalingConstants, N: int, n: int) -> float:
    """The centered, edge-scaled top-curve value at floor(n N^(2/3)).

    (L_1(floor(n N^(2/3))) - p n N^(2/3) + lam n^2 N^(1/3)) / ((2N)^(1/3) d_theta(1));
    its law approaches the GUE Tracy-Widom distribution as N grows.
    """
    return float(tw_statistics_from_values(
        np.asarray([ensemble.value(1, _tw_time(ensemble, N, n, constants))]), constants, N, n
    )[0])


def _tw_time(ensemble: DiscreteLineEnsemble, N: int, n: int, constants: ScalingConstants) -> int:
    j = math.floor(n * N ** constants.alpha)
    if j < ensemble.t0 or j > ensemble.t1:
        raise ValueError(f"time floor(n N^alpha) = {j} outside [{ensemble.t0}, {ensemble.t1}]")
    return j


def tw_statistics_from_values(values: np.ndarray, constants: ScalingConstants, N: int, n: int) -> np.ndarray:
    """Vectorized form: ``values`` are centered top-curve values L_1(floor(n N^(2/3)))."""
    c = constants
    shift = -c.p * n * N**c.alpha + c.lam * n**2 * N ** (c.alpha / 2.0)
    return (np.asarray(values, dtype=float) + shift) / ((2.0 * N) ** (1.0 / 3.0) * c.d_theta_1)


def modulus_of_continuity(s: np.ndarray, values: np.ndarray, delta: float) -> float:
    """sup |f(x) - f(y)| over grid pairs with |x - y| <= delta."""
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    if delta <= 0.0 or delta > s[-1] - s[0]:
        raise ValueError("need 0 < delta <= b - a")
    worst = 0.0
    hi = 0
    for i in range(s.size):
        hi = max(hi, i)
        while hi + 1 < s.size and s[hi + 1] - s[i] <= delta:
            hi += 1
        if hi > i:
            seg = values[i : hi + 1]
            worst = max(worst, float(seg.max() - values[i]), float(values[i] - seg.min()))
    return worst


def window_extrema(
    ensemble: DiscreteLineEnsemble, constants: ScalingConstants, N: int, r: float, k: int
) -> tuple[float, float]:
    """(sup, inf) of L_k(x) - p x over the window [-r N^(2/3), r N^(2/3)].

    The tilted curve is piecewise linear, so extrema occur at lattice points
    or at the (possibly non-lattice) window endpoints.
    """
    c = constants
    half = r * N**c.alpha
    if -half < ensemble.t0 or half > ensemble.t1:
        raise ValueError(f"window [-{half:.2f}, {half:.2f}] exceeds ensemble data")
    j_lo = int(math.ceil(-half))
    j_hi = int(math.floor(half))
    xs = np.concatenate([[-half], np.arange(j_lo, j_hi + 1), [half]])
    tilted = ensemble.value(k, xs) - c.p * xs
    return float(tilted.max()), float(tilted.min())


def gap_and_acceptance_diagnostics(
    ensemble: DiscreteLineEnsemble,
    constants: ScalingConstants,
    N: int,
    r: float,
    k: int,
    m: int | None = None,
) -> StatReport:
    """Edge-gap and acceptance-probability diagnostics over the centered window.

    Reports the smallest gap between consecutive curves among the k+1 present
    at the window edges s+- = floor(+-r N^(2/3)), and the exact acceptance
    probability of curves 1..k with boundary data read from the ensemble (the
    curve below the window acts as the bottom boundary) under the log-gamma
    increment law of ``constants.theta``, from a transfer sweep on an m-point
    grid (``gibbs.acceptance_probability``).
    """
    from .bridge import HrwSpec
    from .gibbs import acceptance_probability, window_spec_from_ensemble

    if ensemble.k < k + 1:
        raise ValueError(f"need k+1 = {k + 1} curves, ensemble has {ensemble.k}")
    c = constants
    s_minus = int(math.floor(-r * N**c.alpha))
    s_plus = int(math.floor(r * N**c.alpha))
    if s_minus < ensemble.t0 or s_plus > ensemble.t1:
        raise ValueError("window exceeds ensemble data")
    gaps = []
    for i in range(1, k + 1):
        for s in (s_minus, s_plus):
            gaps.append(ensemble.value(i, s) - ensemble.value(i + 1, s))
    spec = window_spec_from_ensemble(ensemble, k, s_minus, s_plus, HrwSpec.log_gamma(c.theta))
    report = StatReport(meta={"s_minus": s_minus, "s_plus": s_plus, "k": k})
    report.add("min_gap", float(min(gaps)))
    report.add("acceptance", acceptance_probability(spec, m))
    return report


def gue_tw_oracle(M: int, n_samples: int, rng: np.random.Generator) -> EmpiricalCDF:
    """Empirical reference for the GUE edge law: largest eigenvalues of
    M x M Hermitian matrices with density proportional to exp(-tr H^2 / 2),
    recentered by 2 sqrt(M) and rescaled by M^(1/6).

    Draws the Dumitriu-Edelman tridiagonal beta = 2 Hermite model (J. Math.
    Phys. 43, 2002), whose eigenvalues have exactly the dense GUE law:
    diagonal N(0, 1), off-diagonal sqrt(chi^2_{2(M-1)}/2), ...,
    sqrt(chi^2_2/2); LAPACK ``dstebz`` computes only the largest eigenvalue.
    """
    from scipy.linalg.lapack import dstebz  # loaded by the first call

    if M < 50:
        raise ValueError("need M >= 50 for a meaningful edge law")
    diag = rng.normal(size=(n_samples, M))
    off = np.sqrt(rng.chisquare(2.0 * np.arange(M - 1, 0, -1), size=(n_samples, M - 1)) / 2.0)
    top = np.empty(n_samples)
    for b, (d, e) in enumerate(zip(diag, off)):
        _, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, M, M, 0.0, "E")  # index M of 1..M
        if info != 0:
            raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
        top[b] = w[0]
    return EmpiricalCDF(M ** (1.0 / 6.0) * (top - 2.0 * math.sqrt(M)))


class ParabolaFit(NamedTuple):
    lam_hat: float
    offset: float
    residual_rms: float


def parabola_fit(n_values, profile, std_errors=None) -> ParabolaFit:
    """Weighted least-squares fit of -lam n^2 + c to a mean profile.

    ``std_errors`` (if given) weight the fit by inverse variance.  A design
    without at least two distinct |n| values is degenerate and rejected.
    """
    n_values = np.asarray(n_values, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if n_values.size < 5:
        raise ValueError("need at least 5 profile points")
    if np.unique(np.abs(n_values)).size < 2:
        raise ValueError("degenerate design: need at least two distinct |n|")
    w = np.ones_like(profile)
    if std_errors is not None:
        se = np.asarray(std_errors, dtype=float)
        if np.any(se <= 0.0):
            raise ValueError("standard errors must be positive")
        w = 1.0 / se**2
    design = np.column_stack([-(n_values**2), np.ones_like(n_values)])
    wsqrt = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * wsqrt[:, None], profile * wsqrt, rcond=None)
    fitted = design @ coef
    rms = float(np.sqrt(np.mean((profile - fitted) ** 2)))
    return ParabolaFit(lam_hat=float(coef[0]), offset=float(coef[1]), residual_rms=rms)


def profile_points(
    top_curves: np.ndarray,
    t0: int,
    constants: ScalingConstants,
    N: int,
    n_values,
    include_sigma: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean tilted profile of sampled top curves at the rescaled times n.

    top_curves has one sampled curve per row (lattice values from time t0 on);
    the value at n is N^(-1/3) (L(n N^(2/3)) - p n N^(2/3)), interpolated
    linearly, optionally divided by sigma_p.  Means use compensated
    summation; returns (means, standard errors).
    """
    c = constants
    top_curves = np.asarray(top_curves, dtype=float)
    times = t0 + np.arange(top_curves.shape[1])
    n_values = np.asarray(n_values, dtype=float)
    x = n_values * N**c.alpha
    if x.min() < times[0] or x.max() > times[-1]:
        raise ValueError("profile times outside sampled data")
    scale = N ** (c.alpha / 2.0) * (c.sigma_p if include_sigma else 1.0)
    means = np.empty(n_values.size)
    errs = np.empty(n_values.size)
    # np.interp's arithmetic on the unit-step lattice, all rows at once
    for idx, (xv, j) in enumerate(zip(x, np.searchsorted(times, x, side="right") - 1)):
        if times[j] == xv:
            vals = top_curves[:, j]
        else:
            vals = (top_curves[:, j + 1] - top_curves[:, j]) * (xv - times[j]) + top_curves[:, j]
        vals = (vals - c.p * xv) / scale
        means[idx] = math.fsum(vals) / vals.size
        errs[idx] = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return means, errs
