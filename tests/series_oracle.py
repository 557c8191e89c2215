"""The defining series of psi, psi' and sum_n (n+z)^-3: the independent oracle
that the scipy-backed ``gibbslines.special`` is checked against.

    psi(z)  = -gamma_E + sum_{n>=0} [ 1/(n+1) - 1/(n+z) ]
    psi'(z) = sum_{n>=0} 1/(n+z)^2

Each series is truncated at ``TERMS`` summands with an analytic
(midpoint-rule) integral tail correction, whose error is O(TERMS^-3): at
10**5 summands it is ~1e-15, far below every tolerance that uses it.
"""

from __future__ import annotations

import numpy as np

TERMS = 10**5
_CHUNK = 1 << 14


def _series_sum(z, term_fn, tail_fn):
    """sum_{n=0}^{TERMS-1} term_fn(n, z) + tail_fn(TERMS, z), chunked over n;
    a float for scalar z."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for start in range(0, TERMS, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, TERMS), dtype=float)
        # n along the last axis: numpy sums it pairwise, so rounding stays ~1e-16 relative
        out += term_fn(n, z[..., None]).sum(axis=-1)
    out = out + tail_fn(float(TERMS), z)
    return out if out.ndim else float(out)


def digamma(z):
    """psi(z); the tail sum_{n>=M} [1/(n+1) - 1/(n+z)] is the midpoint
    integral log((M - 1/2 + z)/(M + 1/2))."""
    return _series_sum(
        z,
        lambda n, w: 1.0 / (n + 1.0) - 1.0 / (n + w),
        lambda m, w: np.log((m - 0.5 + w) / (m + 0.5)),
    ) - np.euler_gamma


def trigamma(z):
    """psi'(z) = sum_{n>=0} 1/(n+z)^2."""
    return _series_sum(z, lambda n, w: 1.0 / (n + w) ** 2, lambda m, w: 1.0 / (m - 0.5 + w))


def inverse_cube_sum(z):
    """sum_{n>=0} 1/(n+z)^3."""
    return _series_sum(z, lambda n, w: 1.0 / (n + w) ** 3, lambda m, w: 0.5 / (m - 0.5 + w) ** 2)


def h_theta(theta: float, x: float) -> float:
    """x psi(w) + psi(theta - w) at the root w of psi'(theta - w) = x psi'(w),
    found by bisection on (0, theta) down to the floating-point fixpoint."""
    lo, hi = 0.0, theta
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if trigamma(theta - mid) < x * trigamma(mid):
            lo = mid
        else:
            hi = mid
    return x * digamma(mid) + digamma(theta - mid)


def lam_finite_difference(theta: float, step: float = 1e-4) -> float:
    """The curvature h_theta''(1)/4 from a central second difference of the series h_theta."""
    h = [h_theta(theta, 1.0 + s) for s in (step, 0.0, -step)]
    return 0.25 * (h[0] - 2.0 * h[1] + h[2]) / step**2
