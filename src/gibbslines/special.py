"""Digamma-family special functions and the KPZ scaling constants.

psi, psi' and sum_{n>=0} (n+z)^-3 = -psi''(z)/2 come from
``scipy.special.digamma`` and ``polygamma``; the tail-corrected defining
series is kept in the tests as their independent oracle.  The
slope/curvature machinery (``g_theta``, ``h_theta``) and the constant set for
the 1/3:2/3 rescaling live here as well.  The curvature has a closed form:
differentiating h_theta'(x) = psi(g_theta^{-1}(x)) at the symmetry point
x = 1, w = theta/2 gives

    h_theta''(1) = psi'(theta/2)^2 / (-2 psi''(theta/2)),

so  lam = h_theta''(1)/4 = psi'(theta/2)^2 / (16 sum_n (n+theta/2)^-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma as _digamma
from scipy.special import polygamma

__all__ = [
    "ScalingConstants",
    "log_gamma",
    "digamma",
    "trigamma",
    "inverse_cube_sum",
    "g_theta",
    "g_theta_inv",
    "h_theta",
    "scaling_constants",
]


def _check_positive(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if arr.size == 0 or not np.all(arr > 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (relative error well below 1e-12 on [1e-3, 1e3])."""
    _check_positive("x", x)
    return math.lgamma(float(x))


def digamma(z):
    """Digamma psi(z) for z > 0 (``scipy.special.digamma``); scalars or arrays."""
    _check_positive("z", z)
    res = _digamma(np.asarray(z, dtype=float))
    return res if isinstance(z, np.ndarray) else float(res)


def trigamma(z):
    """Trigamma psi'(z) = sum_{n>=0} 1/(n+z)^2 for z > 0 (``polygamma(1, z)``)."""
    _check_positive("z", z)
    res = polygamma(1, np.asarray(z, dtype=float))
    return res if isinstance(z, np.ndarray) else float(res)


def inverse_cube_sum(z):
    """sum_{n>=0} 1/(n+z)^3 = -psi''(z)/2 for z > 0 (enters the edge-fluctuation scale)."""
    _check_positive("z", z)
    res = -0.5 * polygamma(2, np.asarray(z, dtype=float))
    return res if isinstance(z, np.ndarray) else float(res)


def g_theta(theta: float, z):
    """The slope-parameter bijection psi'(theta - z)/psi'(z) on (0, theta).

    Strictly increasing from 0 (z -> 0+) to infinity (z -> theta-).
    """
    _check_positive("theta", theta)
    za = np.asarray(z, dtype=float)
    if np.any(za <= 0.0) or np.any(za >= theta):
        raise ValueError(f"z must lie in (0, theta)=(0, {theta}), got {z!r}")
    res = trigamma(theta - za) / trigamma(za)
    return res if isinstance(z, np.ndarray) else float(res)


def g_theta_inv(theta: float, x):
    """Inverse of ``g_theta``: the unique z in (0, theta) with g_theta(z) = x.

    Bracketing bisection on (0, theta); no derivatives, so no blowup near the
    endpoints.  Iterates to the floating-point fixpoint of the bracket.
    """
    _check_positive("theta", theta)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError(f"x must be positive, got {x!r}")
    lo = np.full_like(xa, theta * 1e-14)
    hi = np.full_like(xa, theta * (1.0 - 1e-14))
    done = np.zeros_like(xa, dtype=bool)
    for _ in range(90):  # 90 halvings shrink the bracket below one ulp of theta
        mid = 0.5 * (lo + hi)
        done |= (mid <= lo) | (mid >= hi)
        if np.all(done):
            break
        num = trigamma(theta - mid)
        den = xa * trigamma(mid)
        # residual g(mid) - x already at the polygamma accuracy floor: stop
        done |= np.abs(num - den) <= 1e-12 * den
        too_low = num < den
        lo = np.where(too_low & ~done, mid, lo)
        hi = np.where(~too_low & ~done, mid, hi)
    res = 0.5 * (lo + hi)
    return res if isinstance(x, np.ndarray) else float(res)


def h_theta(theta: float, x):
    """Law-of-large-numbers shape function x*psi(w) + psi(theta - w), w = g_theta^{-1}(x)."""
    _check_positive("theta", theta)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError(f"x must be positive, got {x!r}")
    w = g_theta_inv(theta, xa)
    res = xa * digamma(w) + digamma(theta - w)
    return res if isinstance(x, np.ndarray) else float(res)


@dataclass(frozen=True)
class ScalingConstants:
    """All constants of the 1/3:2/3 rescaling for one value of theta.

    alpha      -- transversal exponent, always 2/3
    p          -- global slope of the line ensemble, -psi(theta/2)
    lam        -- parabolic curvature, (1/4) h_theta''(1)
                  = psi'(theta/2)^2 / (16 sum_n (n+theta/2)^-3) > 0
    sigma_p    -- diffusive scale sqrt(psi'(theta/2))
    d_theta_1  -- one-point fluctuation scale [2 sum_n (n+theta/2)^-3]^(1/3)
    h_theta_1  -- free-energy density at slope 1, 2 psi(theta/2)
    psi_coeff  -- windowing coefficient: curves are compared on [-c N^(1/3), c N^(1/3)]
    """

    theta: float
    alpha: float
    p: float
    lam: float
    sigma_p: float
    d_theta_1: float
    h_theta_1: float
    psi_coeff: float = 0.5

    def __post_init__(self):
        if self.lam <= 0.0:
            raise RuntimeError(
                f"curvature must be positive, got lam={self.lam} (theta={self.theta})"
            )
        if self.sigma_p <= 0.0 or self.d_theta_1 <= 0.0:
            raise RuntimeError("scale constants must be positive")


@lru_cache(maxsize=64)
def scaling_constants(theta: float) -> ScalingConstants:
    """Compute the full scaling-constant set for a given theta > 0.

    The curvature is the closed form psi'(theta/2)^2 / (16 sum_n (n+theta/2)^-3)
    (see the module docstring).  Raises ``RuntimeError`` if a computed scale
    fails to be positive.
    """
    theta = float(theta)
    _check_positive("theta", theta)
    half = theta / 2.0
    psi1 = trigamma(half)
    cube = inverse_cube_sum(half)
    return ScalingConstants(
        theta=theta,
        alpha=2.0 / 3.0,
        p=-digamma(half),
        lam=psi1**2 / (16.0 * cube),
        sigma_p=math.sqrt(psi1),
        d_theta_1=(2.0 * cube) ** (1.0 / 3.0),
        h_theta_1=2.0 * digamma(half),
    )
